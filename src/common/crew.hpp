// Idle threads lending a hand to running work.
//
// Crew::run_tasks runs a task set (a campaign wave, or one chain solve on
// the solver engine's pool) on a ThreadPool's seats. A seat claims tasks in
// order; once none is left it helps: it claims pieces of the batches that
// running tasks hand out through Crew::run_pieces, until every task has
// finished. Pieces are claimed in index order, and piece i may wait only on
// pieces below it, which running threads have claimed: nothing deadlocks,
// though a slow helper holds up the pieces after its own. run_pieces returns
// only after every piece has finished, and a helper touches a batch only
// between claiming a piece and reporting it done, so a batch lives on its
// owner's stack. The crew knows nothing of what the pieces compute; a chain
// solve's sweep groups (ctmc::detail::grouped_sweeps) are one client.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"

namespace gprsim::common {

class Crew {
public:
    /// Runs every task once on up to `width` seats of `pool`, the calling
    /// thread included, and returns the number of pieces that helpers ran.
    /// The first exception a task throws is rethrown after every task ran.
    static std::size_t run_tasks(ThreadPool& pool, std::span<const std::function<void()>> tasks,
                                 int width);

    /// Runs piece(0) .. piece(count - 1), each exactly once, and returns
    /// when all have finished. Inside a task of run_tasks, idle seats of its
    /// crew may claim the pieces the calling thread has not; elsewhere the
    /// calling thread runs them in order. A piece must not throw.
    template <typename Piece>
    static void run_pieces(int count, Piece&& piece) {
        using P = std::remove_reference_t<Piece>;
        offer(count, [](void* context, int i) { (*static_cast<P*>(context))(i); }, &piece);
    }

    /// Whether the calling thread runs a task of run_tasks (may get help).
    static bool seated();

private:
    /// One owner's open batch of pieces.
    struct Batch {
        int count;
        void (*run)(void*, int);
        void* context;
        std::atomic<int> next{0};  ///< the claim cursor
        int helpers = 0;           ///< helpers inside; guarded by mutex_
    };

    static void offer(int count, void (*run)(void*, int), void* context);

    /// One seat: claims tasks, then helps until no task is running.
    void seat(std::span<const std::function<void()>> tasks);

    std::mutex mutex_;
    std::condition_variable wake_;      ///< helpers: a batch opened, or no task runs
    std::condition_variable released_;  ///< owners: a helper left a batch
    // Guarded by mutex_:
    std::vector<Batch*> open_;
    std::size_t next_task_ = 0;
    int working_ = 0;         ///< seats inside a task
    std::size_t helped_ = 0;  ///< pieces helpers ran
    std::exception_ptr first_error_;
};

}  // namespace gprsim::common
