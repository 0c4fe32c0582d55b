#include "common/thread_pool.hpp"

#include <algorithm>

namespace gprsim::common {

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(num_threads, 1)) {
    workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
    for (int t = 0; t < num_threads_ - 1; ++t) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

int ThreadPool::hardware_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

int ThreadPool::resolve_thread_count(int requested) {
    if (requested == 0) {
        return hardware_threads();
    }
    return std::max(requested, 1);
}

void ThreadPool::execute_tasks() {
    while (true) {
        const int t = next_task_.fetch_add(1, std::memory_order_relaxed);
        if (t >= num_tasks_) {
            return;
        }
        try {
            (*task_)(t);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) {
                first_error_ = std::current_exception();
            }
        }
    }
}

void ThreadPool::worker_loop() {
    std::uint64_t seen_generation = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
            if (stop_) {
                return;
            }
            seen_generation = generation_;
        }
        if (worker_tickets_.fetch_add(1, std::memory_order_relaxed) < worker_seats_) {
            execute_tasks();
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++workers_done_;
        }
        done_cv_.notify_one();
    }
}

void ThreadPool::run(int num_tasks, const std::function<void(int)>& task, int max_width) {
    if (num_tasks <= 0) {
        return;
    }
    const int width = max_width <= 0 ? num_threads_ : std::min(max_width, num_threads_);
    if (workers_.empty() || num_tasks == 1 || width == 1) {
        for (int t = 0; t < num_tasks; ++t) {
            task(t);
        }
        return;
    }

    std::lock_guard<std::mutex> run_lock(run_mutex_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        task_ = &task;
        num_tasks_ = num_tasks;
        next_task_.store(0, std::memory_order_relaxed);
        worker_tickets_.store(0, std::memory_order_relaxed);
        worker_seats_ = width - 1;  // the calling thread takes one seat
        workers_done_ = 0;
        first_error_ = nullptr;
        ++generation_;
    }
    start_cv_.notify_all();
    execute_tasks();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock,
                      [&] { return workers_done_ == static_cast<int>(workers_.size()); });
        task_ = nullptr;
        if (first_error_) {
            std::exception_ptr error = first_error_;
            first_error_ = nullptr;
            lock.unlock();
            std::rethrow_exception(error);
        }
    }
}

}  // namespace gprsim::common
