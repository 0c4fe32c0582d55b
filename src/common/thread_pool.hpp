// Reusable fixed-size worker pool for fork-join parallelism, shared by the
// campaign executor and the CTMC solver engine (whose seats run a crew,
// common/crew.hpp) and the simulation experiment engine (independent
// replications). The pool is created once (thread spawn is ~100us per
// worker) and reused across waves, whole solves, and replication batches,
// so the per-dispatch overhead is two mutex handshakes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gprsim::common {

/// Fork-join pool: run(num_tasks, task) invokes task(t) for every
/// t in [0, num_tasks) across the workers plus the calling thread and
/// blocks until all tasks finished. Concurrent run() calls from different
/// threads are serialized; tasks must not call run() on the same pool.
class ThreadPool {
public:
    /// `num_threads` <= 1 means no workers: run() executes inline.
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total execution width (workers + calling thread).
    int size() const { return num_threads_; }

    /// Executes task(0) .. task(num_tasks - 1), blocking until done.
    /// Tasks are claimed dynamically, so uneven task costs load-balance.
    /// `max_width` caps the number of threads (including the caller) that
    /// claim tasks; 0 means the full pool. A pool wider than the requested
    /// solve width therefore never over-parallelizes a narrower job.
    /// The first exception thrown by a task is rethrown here.
    void run(int num_tasks, const std::function<void(int)>& task, int max_width = 0);

    /// Number of concurrent threads the hardware supports (>= 1).
    static int hardware_threads();

    /// Repo-wide thread-count convention: 0 -> all hardware threads,
    /// otherwise max(1, requested). Shared by the solver and experiment
    /// engines so every --threads flag means the same thing.
    static int resolve_thread_count(int requested);

private:
    void worker_loop();
    void execute_tasks();

    int num_threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    std::mutex run_mutex_;  // serializes concurrent run() callers

    // Current job; guarded by mutex_ except for the atomic cursors.
    const std::function<void(int)>* task_ = nullptr;
    int num_tasks_ = 0;
    std::atomic<int> next_task_{0};
    std::atomic<int> worker_tickets_{0};  // seats for workers beyond the caller
    int worker_seats_ = 0;
    std::uint64_t generation_ = 0;
    int workers_done_ = 0;
    std::exception_ptr first_error_;
    bool stop_ = false;
};

}  // namespace gprsim::common
