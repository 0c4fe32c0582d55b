// Gauss-Seidel kernels: the generic one-sweep-at-a-time sweep, the plain
// normalization, residual and uniformization-rate loops, and the wavefront
// passes of the operators with their own pipelined sweep.
//
// A wavefront pass runs T sweeps at once, sweep t trailing sweep t-1 by
// more than the operator's bandwidth, so every read sees exactly the value
// of a sequential sweep sequence: bitwise T back-to-back sweeps, with the
// per-row accumulate -> divide chains of the T sweeps overlapping.
// grouped_sweeps splits a batch into such groups; run as a team, idle
// threads claim groups in order (common::Crew), and a lane keeps group g's
// leading sweep trailing group g-1's trailing sweep by the same distance:
// the same argument across threads, bitwise at any width. The raw-CSR
// kernels at the end are QtMatrix's serial pass, the reference the GPRS
// stencil (core::GprsGenerator) is checked against.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
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

// --- pipelined passes, shared by the raw-CSR kernels and the GPRS stencil --

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
/// then 1 (only 1s without pipelining). A 10-sweep batch is 4, 4, 2.
struct GroupSplit {
    index_type fours, two, one;
    GroupSplit(index_type count, bool pipeline)
        : fours(pipeline ? count / 4 : 0),
          two(pipeline ? count % 4 / 2 : 0),
          one(pipeline ? count % 2 : count) {}
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
double grouped_sweeps(index_type count, bool want_sum, bool pipeline, bool team, Pass&& pass) {
    const GroupSplit split(count, pipeline);
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

// --- raw-CSR serial Gauss-Seidel fast path ------------------------------

/// Borrowed contiguous view of a QtMatrix: off-diagonal CSR arrays plus the
/// diagonal, with the assembly-time bandwidth. The pipelined sweep kernels
/// work on this view so the hot loops touch plain arrays (32-bit columns,
/// no span re-materialization, no per-entry callback) the compiler can
/// schedule aggressively.
struct QtCsrView {
    index_type n = 0;
    const index_type* row_ptr = nullptr;
    const col_type* cols = nullptr;
    const double* vals = nullptr;
    const double* diag = nullptr;
    index_type bandwidth = 0;
};

inline QtCsrView csr_view(const QtMatrix& qt) {
    const SparseMatrix& off = qt.off_diagonal();
    return {qt.size(),        off.row_ptr_data(), off.col_data(),
            off.value_data(), qt.diagonal_data(), off.bandwidth()};
}

/// One Gauss-Seidel update of row i on the raw view; the same arithmetic as
/// gauss_seidel_update over plain arrays.
inline void gs_row_update(const QtCsrView& m, double* x, index_type i) {
    const double d = m.diag[i];
    if (d == 0.0) {
        return;  // isolated state keeps its (zero) mass
    }
    double acc = 0.0;
    const index_type end = m.row_ptr[i + 1];
    for (index_type p = m.row_ptr[i]; p < end; ++p) {
        acc += m.vals[p] * x[m.cols[p]];
    }
    x[i] = acc / -d;
}

/// T forward sweeps pipelined in one wavefront pass. Chain t executes sweep
/// t of the group and trails chain t-1 by D rows; with D > bandwidth every
/// row it reads above itself still holds the previous sweep's value and
/// every row below holds its own sweep's value — exactly the sequential
/// schedule, so the pass is bitwise identical to T back-to-back
/// gauss_seidel_forward calls. The win is throughput: the per-row
/// divide/accumulate dependency chains of the T sweeps interleave instead
/// of serializing. When `final_sum` is non-null the trailing chain (the
/// group's last sweep) accumulates x left-to-right as it writes, which
/// equals summing the finished vector afterwards.
template <int T>
void gs_wavefront_pass(const QtCsrView& m, double* x, index_type D, double* final_sum) {
    static_assert(T >= 1);
    const index_type n = m.n;
    const index_type trail_offset = static_cast<index_type>(T - 1) * D;

    const auto guarded_step = [&](index_type lead) {
        [&]<std::size_t... Ts>(std::index_sequence<Ts...>) {
            ([&] {
                const index_type row = lead - static_cast<index_type>(Ts) * D;
                if (row >= 0 && row < n) {
                    gs_row_update(m, x, row);
                    if constexpr (Ts == static_cast<std::size_t>(T - 1)) {
                        if (final_sum != nullptr) {
                            *final_sum += x[row];
                        }
                    }
                }
            }(),
             ...);
        }(std::make_index_sequence<static_cast<std::size_t>(T)>{});
    };

    index_type lead = 0;
    const index_type total = n + trail_offset;
    for (const index_type prologue_end = std::min(trail_offset, n); lead < prologue_end;
         ++lead) {
        guarded_step(lead);
    }
    // Steady state: all T chains in range — no bounds checks, the fold
    // expression keeps the T row updates in one straight-line loop body.
    for (; lead < n; ++lead) {
        [&]<std::size_t... Ts>(std::index_sequence<Ts...>) {
            (gs_row_update(m, x, lead - static_cast<index_type>(Ts) * D), ...);
        }(std::make_index_sequence<static_cast<std::size_t>(T)>{});
        if (final_sum != nullptr) {
            *final_sum += x[lead - trail_offset];
        }
    }
    for (; lead < total; ++lead) {
        guarded_step(lead);
    }
}

/// Runs `count` forward Gauss-Seidel sweeps on the raw view,
/// pipelined in wavefront groups of up to 4 sweeps. Bitwise identical to
/// `count` sequential gauss_seidel_forward passes. When
/// `accumulate_final_sum` is set, returns the left-to-right sum of x after
/// the last sweep (equal to summing the final vector separately: the
/// trailing chain writes rows in order, and skipped zero-diagonal rows
/// contribute their unchanged value); otherwise returns 0.
inline double gauss_seidel_sweeps(const QtCsrView& m, double* x, index_type count,
                                  bool accumulate_final_sum) {
    const index_type D = m.bandwidth + 8;  // > bandwidth: safe wavefront gap
    // Pipelining pays off only when the steady state dominates; tiny chains
    // (or near-dense bandwidth) run the plain sequential schedule (T == 1).
    return grouped_sweeps(count, accumulate_final_sum, 8 * D < m.n, false,
                          [&](auto group, double* sum, const GroupLane&) {
                              gs_wavefront_pass<decltype(group)::value>(m, x, D, sum);
                          });
}

/// fused_normalize_residual on the raw view: a row reads at most the
/// bandwidth ahead of itself.
inline double fused_normalize_residual(const QtCsrView& m, double* x, double sum,
                                       double uniformization_rate) {
    return lagged_normalize_residual(
        x, m.n, m.bandwidth + 1, sum, uniformization_rate,
        [&](index_type begin, index_type end) {
            double worst = 0.0;
            for (index_type i = begin; i < end; ++i) {
                double acc = m.diag[i] * x[i];
                for (index_type p = m.row_ptr[i]; p < m.row_ptr[i + 1]; ++p) {
                    acc += m.vals[p] * x[m.cols[p]];
                }
                worst = std::max(worst, std::fabs(acc));
            }
            return worst;
        });
}

}  // namespace detail
}  // namespace gprsim::ctmc
