// Crew tests: tasks run once each whatever the width, pieces run once each
// whoever claims them, a piece may wait on the pieces below it, the owner
// sees every piece's writes when run_pieces returns, and exceptions surface
// after the whole task set ran. The stress test (many owners with short
// batches, helpers arriving whenever a seat runs out of tasks) is the one
// the ThreadSanitizer job runs.
#include "common/crew.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gprsim::common {
namespace {

/// Runs a batch of `count` pieces where piece i waits until piece i - 1
/// is done, then checks the plain value piece i - 1 wrote: the ordering
/// contract of run_pieces. Returns the pieces' values, read by the owner.
std::vector<long> chained_batch(int count, long seed) {
    std::vector<long> value(static_cast<std::size_t>(count), 0);
    std::vector<std::atomic<int>> done(static_cast<std::size_t>(count));
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(count));
    Crew::run_pieces(count, [&](int i) {
        const auto at = static_cast<std::size_t>(i);
        runs[at].fetch_add(1, std::memory_order_relaxed);
        long previous = seed;
        if (i > 0) {
            while (done[at - 1].load(std::memory_order_acquire) == 0) {
                std::this_thread::yield();
            }
            previous = value[at - 1];
        }
        value[at] = previous + i;
        done[at].store(1, std::memory_order_release);
    });
    for (const std::atomic<int>& r : runs) {
        EXPECT_EQ(r.load(), 1);
    }
    return value;
}

long expected_last(int count, long seed) {
    return seed + static_cast<long>(count) * (count - 1) / 2;
}

TEST(Crew, PiecesOutsideATaskRunInOrderOnTheCallingThread) {
    EXPECT_FALSE(Crew::seated());
    std::vector<int> order;
    Crew::run_pieces(5, [&](int i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Crew, EveryTaskRunsOnceAndTheFirstErrorSurfacesAfterAll) {
    ThreadPool pool(4);
    for (const int width : {1, 2, 4, 8}) {
        std::vector<std::atomic<int>> hits(37);
        std::vector<std::function<void()>> tasks;
        for (std::size_t t = 0; t < hits.size(); ++t) {
            tasks.emplace_back([&, t] {
                EXPECT_TRUE(Crew::seated());
                hits[t].fetch_add(1);
                if (t == 5) {
                    throw std::runtime_error("task 5");
                }
            });
        }
        EXPECT_THROW(Crew::run_tasks(pool, tasks, width), std::runtime_error)
            << width << " seats";
        for (const std::atomic<int>& h : hits) {
            EXPECT_EQ(h.load(), 1) << width << " seats";
        }
    }
    EXPECT_FALSE(Crew::seated());
}

TEST(Crew, IdleSeatsHelpAWaveOfOneTask) {
    // One long task offering chained batches on four seats: the three idle
    // seats claim pieces, and the owner still sees every piece's value.
    ThreadPool pool(4);
    std::size_t helped = 0;
    for (int round = 0; round < 20 && helped == 0; ++round) {
        const std::vector<std::function<void()>> tasks{[] {
            for (int batch = 0; batch < 50; ++batch) {
                const std::vector<long> value = chained_batch(3, batch);
                EXPECT_EQ(value.back(), expected_last(3, batch));
                std::this_thread::sleep_for(std::chrono::microseconds(20));
            }
        }};
        helped += Crew::run_tasks(pool, tasks, 4);
    }
    EXPECT_GT(helped, 0u);
}

TEST(Crew, StressManyOwnersShortBatchesHelpersArriveAtRandom) {
    // Each round runs a task set whose tasks own a random number of short
    // batches and sleep a random while between them, so seats run out of
    // tasks, and turn helper, at random moments, on random widths.
    ThreadPool pool(4);
    std::mt19937 rng(20261017);
    for (int round = 0; round < 40; ++round) {
        const int width = 1 + static_cast<int>(rng() % 4);
        const int task_count = 1 + static_cast<int>(rng() % 12);
        std::vector<std::function<void()>> tasks;
        std::vector<std::atomic<int>> finished(static_cast<std::size_t>(task_count));
        for (int t = 0; t < task_count; ++t) {
            const unsigned seed = static_cast<unsigned>(rng());
            tasks.emplace_back([&finished, t, seed] {
                std::mt19937 local(seed);
                const int batches = 1 + static_cast<int>(local() % 8);
                for (int b = 0; b < batches; ++b) {
                    const int count = 1 + static_cast<int>(local() % 5);
                    const long start = static_cast<long>(local() % 1000);
                    const std::vector<long> value = chained_batch(count, start);
                    EXPECT_EQ(value.back(), expected_last(count, start));
                    std::this_thread::sleep_for(std::chrono::microseconds(local() % 200));
                }
                finished[static_cast<std::size_t>(t)].fetch_add(1);
            });
        }
        Crew::run_tasks(pool, tasks, width);
        for (const std::atomic<int>& f : finished) {
            ASSERT_EQ(f.load(), 1) << "round " << round;
        }
    }
}

}  // namespace
}  // namespace gprsim::common
