// Gauss-Seidel kernels: the generic one-sweep-at-a-time sweep, the plain
// normalization, residual and uniformization-rate loops that every operator
// without its own pass runs (the CSR QtMatrix among them), and the
// wavefront groups and team lanes of an operator's pipelined pass (the
// GPRS stencil, core::GprsGenerator).
//
// A wavefront pass runs T sweeps at once, sweep t trailing sweep t-1 by
// more than the operator's bandwidth, so every read sees exactly the value
// of a sequential sweep sequence: bitwise T back-to-back sweeps, with the
// per-row accumulate -> divide chains of the T sweeps overlapping.
// grouped_sweeps splits a batch into such groups; run as a team, idle
// threads claim groups in order (common::Crew), and a lane keeps group g's
// leading sweep trailing group g-1's trailing sweep by the same distance:
// the same argument across threads, bitwise at any width.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ctmc/solver_options.hpp"
#include "common/crew.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {
namespace detail {

// --- reductions ---------------------------------------------------------

/// Left-to-right normalization, the seed solver's arithmetic.
inline void normalize(std::span<double> x) {
    double sum = 0.0;
    for (double v : x) {
        sum += v;
    }
    if (sum <= 0.0) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    for (double& v : x) {
        v /= sum;
    }
}

/// max_i |(pi Q)_i| / Lambda for a normalized pi.
template <QtOperatorConcept Op>
double scaled_residual(const Op& op, std::span<const double> x, double uniformization_rate) {
    double worst = 0.0;
    for (index_type i = 0; i < op.size(); ++i) {
        double acc = op.diagonal(i) * x[static_cast<std::size_t>(i)];
        op.for_each_incoming(i, [&](index_type j, double rate) {
            acc += rate * x[static_cast<std::size_t>(j)];
        });
        worst = std::max(worst, std::fabs(acc));
    }
    return worst / uniformization_rate;
}

/// Lambda = max_i |Q_ii|, the uniformization rate.
template <QtOperatorConcept Op>
double max_exit_rate(const Op& op) {
    double lambda = 0.0;
    for (index_type i = 0; i < op.size(); ++i) {
        lambda = std::max(lambda, -op.diagonal(i));
    }
    if (lambda <= 0.0) {
        throw std::invalid_argument("generator has no transitions (all diagonal zero)");
    }
    return lambda;
}

// --- sweep kernels ------------------------------------------------------

/// One in-place Gauss-Seidel update of state i (the seed arithmetic).
template <QtOperatorConcept Op>
inline void gauss_seidel_update(const Op& op, std::span<double> x, index_type i) {
    const double d = op.diagonal(i);
    if (d == 0.0) {
        return;  // isolated state keeps its (zero) mass
    }
    double acc = 0.0;
    op.for_each_incoming(i, [&](index_type j, double rate) {
        acc += rate * x[static_cast<std::size_t>(j)];
    });
    x[static_cast<std::size_t>(i)] = acc / -d;
}

template <QtOperatorConcept Op>
void gauss_seidel_forward(const Op& op, std::span<double> x) {
    const index_type n = op.size();
    for (index_type i = 0; i < n; ++i) {
        gauss_seidel_update(op, x, i);
    }
}

// --- pipelined passes (the GPRS stencil's) -------------------------------

/// How many levels (the operator's unit of distance, e.g. the stencil's
/// buffer levels) a team group's trailing sweep has finished, and the count
/// a blocked successor waits for; on a cache line of its own.
struct alignas(64) GroupProgress {
    std::atomic<int> levels{0};
    std::atomic<int> awaited{std::numeric_limits<int>::max()};
};

/// A group waits on the previous group's progress and publishes its own; a
/// default lane (a solo pass) does neither.
class GroupLane {
public:
    GroupLane() = default;
    GroupLane(GroupProgress* previous, GroupProgress* own) : previous_(previous), own_(own) {}

    /// Returns once the previous group's trailing sweep has finished
    /// `levels` of the pass's `total` levels. Spins briefly, then blocks
    /// for an eighth of the pass more: a group reads from cache what its
    /// predecessor just wrote, so it keeps catching up, and a wake-up per
    /// level would cost more than the level.
    void wait_for(int levels, int total) const {
        if (previous_ == nullptr) {
            return;
        }
        constexpr int kSpins = 50;
        for (int spin = 0; spin < kSpins; ++spin) {
            if (previous_->levels.load(std::memory_order_acquire) >= levels) {
                return;
            }
            cpu_relax();
        }
        // Dekker with finished(): the waiter stores `awaited` and then loads
        // `levels`; the publisher stores `levels` and then loads `awaited`,
        // all sequentially consistent, so one of them sees the other.
        const int resume = std::min(levels + total / 8, total);
        previous_->awaited.store(resume);
        for (int seen; (seen = previous_->levels.load()) < resume;) {
            previous_->levels.wait(seen);
        }
        previous_->awaited.store(std::numeric_limits<int>::max(), std::memory_order_relaxed);
    }

    /// Publishes that this group's trailing sweep has finished `levels`
    /// levels, waking the next group if it waits for that many.
    void finished(int levels) const {
        if (own_ != nullptr) {
            own_->levels.store(levels);
            if (levels >= own_->awaited.load()) {
                own_->levels.notify_all();
            }
        }
    }

private:
    static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    GroupProgress* previous_ = nullptr;
    GroupProgress* own_ = nullptr;
};

/// A batch's wavefront groups: 4 sweeps while at least 4 are left, then 2,
/// then 1. A 10-sweep batch is 4, 4, 2.
struct GroupSplit {
    index_type fours, two, one;
    explicit GroupSplit(index_type count)
        : fours(count / 4), two(count % 4 / 2), one(count % 2) {}
    index_type groups() const { return fours + two + one; }
    int size(index_type g) const { return g < fours ? 4 : g < fours + two ? 2 : 1; }
};

/// Runs `count` forward sweeps as the wavefront groups of GroupSplit:
/// pass(group, sum, lane) runs group() sweeps, a std::integral_constant,
/// adding the last one's rows to *sum in index order when sum is non-null,
/// and ordering itself after the previous group through `lane`. Returns
/// that sum for the final sweep when want_sum, otherwise 0. As a team, the
/// groups are pieces of a common::Crew batch that idle seats may claim; one
/// thread that claims every group runs the solo schedule.
template <typename Pass>
double grouped_sweeps(index_type count, bool want_sum, bool team, Pass&& pass) {
    const GroupSplit split(count);
    double sum = 0.0;
    const auto run = [&](index_type g, const GroupLane& lane) {
        double* const tail_sum = want_sum && g + 1 == split.groups() ? &sum : nullptr;
        if (const int size = split.size(g); size == 4) {
            pass(std::integral_constant<int, 4>{}, tail_sum, lane);
        } else if (size == 2) {
            pass(std::integral_constant<int, 2>{}, tail_sum, lane);
        } else {
            pass(std::integral_constant<int, 1>{}, tail_sum, lane);
        }
    };
    if (!team) {
        for (index_type g = 0; g < split.groups(); ++g) {
            run(g, GroupLane{});
        }
        return sum;
    }
    std::vector<GroupProgress> progress(static_cast<std::size_t>(split.groups()));
    common::Crew::run_pieces(static_cast<int>(split.groups()), [&](int g) {
        const auto at = static_cast<std::size_t>(g);
        run(g, GroupLane(g > 0 ? &progress[at - 1] : nullptr, &progress[at]));
    });
    return sum;
}

/// Divides x[0, n) by `sum` and returns max_i |(x Q)_i| / uniformization_rate
/// in one pass: the division runs a chunk of `lag` rows ahead of
/// max_residual(begin, end), so when no row reads more than `lag` rows
/// ahead of itself every residual row reads divided entries only. Bitwise
/// equal to normalize's division followed by scaled_residual (max combines
/// exactly). Throws like normalize when `sum` is not positive.
template <typename MaxResidual>
double lagged_normalize_residual(double* x, index_type n, index_type lag, double sum,
                                 double uniformization_rate, MaxResidual&& max_residual) {
    if (sum <= 0.0) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    double worst = 0.0;
    for (index_type begin = 0; begin < n + lag; begin += lag) {
        for (index_type i = begin; i < std::min(begin + lag, n); ++i) {
            x[i] /= sum;
        }
        if (begin > 0) {
            worst = std::max(worst, max_residual(begin - lag, std::min(begin, n)));
        }
    }
    return worst / uniformization_rate;
}

}  // namespace detail
}  // namespace gprsim::ctmc
