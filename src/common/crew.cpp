#include "common/crew.hpp"

#include <algorithm>
#include <utility>

namespace gprsim::common {
namespace {

/// The crew whose task the calling thread runs, if any.
thread_local Crew* current_crew = nullptr;

}  // namespace

bool Crew::seated() { return current_crew != nullptr; }

std::size_t Crew::run_tasks(ThreadPool& pool, std::span<const std::function<void()>> tasks,
                            int width) {
    Crew crew;
    const int seats = std::clamp(width, 1, pool.size());
    pool.run(seats, [&](int) { crew.seat(tasks); }, seats);
    if (crew.first_error_) {
        std::rethrow_exception(crew.first_error_);
    }
    return crew.helped_;
}

void Crew::seat(std::span<const std::function<void()>> tasks) {
    Crew* const outer = std::exchange(current_crew, this);
    std::unique_lock<std::mutex> lock(mutex_);
    // A task is claimed and counted as working in one step, so helpers stay
    // while any task may still offer a batch.
    while (next_task_ < tasks.size()) {
        const std::function<void()>& task = tasks[next_task_++];
        ++working_;
        lock.unlock();
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !first_error_) {
            first_error_ = error;
        }
        if (--working_ == 0) {
            wake_.notify_all();
        }
    }
    // Help until no task runs.
    while (working_ > 0) {
        const auto open = std::find_if(open_.begin(), open_.end(), [](const Batch* b) {
            return b->next.load(std::memory_order_relaxed) < b->count;
        });
        if (open == open_.end()) {
            wake_.wait(lock);
            continue;
        }
        Batch& batch = **open;
        ++batch.helpers;
        lock.unlock();
        std::size_t ran = 0;
        for (int i; (i = batch.next.fetch_add(1, std::memory_order_relaxed)) < batch.count;
             ++ran) {
            batch.run(batch.context, i);
        }
        lock.lock();
        helped_ += ran;
        if (--batch.helpers == 0) {
            released_.notify_all();
        }
    }
    current_crew = outer;
}

void Crew::offer(int count, void (*run)(void*, int), void* context) {
    Crew* const crew = current_crew;
    if (crew == nullptr || count <= 1) {
        for (int i = 0; i < count; ++i) {
            run(context, i);
        }
        return;
    }
    Batch batch{count, run, context};
    {
        std::lock_guard<std::mutex> lock(crew->mutex_);
        crew->open_.push_back(&batch);
    }
    crew->wake_.notify_all();
    for (int i; (i = batch.next.fetch_add(1, std::memory_order_relaxed)) < count;) {
        run(context, i);
    }
    std::unique_lock<std::mutex> lock(crew->mutex_);
    std::erase(crew->open_, &batch);
    crew->released_.wait(lock, [&] { return batch.helpers == 0; });
}

}  // namespace gprsim::common
