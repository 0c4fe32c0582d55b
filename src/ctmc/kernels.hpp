// Per-method solver kernels: serial Gauss-Seidel sweeps plus block-sharded
// parallel kernels (red-black Gauss-Seidel, normalize, residual). All
// sharded kernels partition the state range into a FIXED number of
// contiguous blocks (kReductionBlocks, independent of the thread count) and
// combine per-block partials in block order, so every result is a pure
// function of the operator and the input vector — bitwise identical
// whether the blocks run on 1, 2, or 16 threads. Blocks are claimed
// dynamically from the pool, which load-balances rows of uneven degree. A
// RowRangeOperator evaluates each block's rows in one call.
//
// The raw-CSR kernels at the end are QtMatrix's PipelinedSweepOperator
// pass, the reference the GPRS stencil (core::GprsGenerator) is checked
// against: T sweeps in flight at once, sweep s+t trailing sweep s+t-1 by
// a row distance D > the matrix bandwidth, so every read sees exactly the
// value a sequential sweep sequence would — bitwise identical to T
// back-to-back sweeps, while the per-row accumulate -> divide chains (the
// serial solver's actual bottleneck) of the T sweeps overlap.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "ctmc/solver_options.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {
namespace detail {

/// Fixed shard count for all blocked kernels. 64 keeps per-block state in
/// one cache line's worth of partials while exposing enough slack for
/// dynamic load balancing on any realistic core count.
inline constexpr int kReductionBlocks = 64;

struct BlockRange {
    index_type begin = 0;
    index_type end = 0;
};

/// Contiguous block `block` of [0, n) split into kReductionBlocks pieces.
/// Depends only on n and the block id — never on the thread count.
inline BlockRange reduction_block(index_type n, int block) {
    const index_type per = (n + kReductionBlocks - 1) / kReductionBlocks;
    const index_type begin = std::min(per * static_cast<index_type>(block), n);
    return {begin, std::min(begin + per, n)};
}

/// Execution context for the blocked kernels: which pool to dispatch on
/// and how many threads of it may participate. A default-constructed
/// Executor runs inline — the serial path of every kernel.
struct Executor {
    common::ThreadPool* pool = nullptr;
    int width = 1;  ///< cap on participating threads (pool may be wider)

    /// Runs body(block) for every block; on the pool when one is given
    /// (and the width allows it), inline in ascending block order
    /// otherwise. The partition is fixed, so both paths — and any width —
    /// produce bitwise identical results for the blocked kernels.
    template <typename Body>
    void for_each_block(Body&& body) const {
        if (pool != nullptr && width > 1) {
            pool->run(kReductionBlocks, [&](int b) { body(b); }, width);
        } else {
            for (int b = 0; b < kReductionBlocks; ++b) {
                body(b);
            }
        }
    }
};

// --- reductions ---------------------------------------------------------

/// Serial left-to-right normalization — the seed solver's arithmetic; used
/// by the strictly serial Gauss-Seidel family for bit-compatibility.
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

/// Blocked sum: per-block partials combined in block order. Deterministic
/// across thread counts (including the inline path).
inline double blocked_sum(std::span<const double> x, const Executor& exec) {
    const index_type n = static_cast<index_type>(x.size());
    std::array<double, kReductionBlocks> partial{};
    exec.for_each_block([&](int b) {
        const BlockRange r = reduction_block(n, b);
        double s = 0.0;
        for (index_type i = r.begin; i < r.end; ++i) {
            s += x[static_cast<std::size_t>(i)];
        }
        partial[static_cast<std::size_t>(b)] = s;
    });
    double sum = 0.0;
    for (double p : partial) {
        sum += p;
    }
    return sum;
}

/// Thread-count-invariant normalization used by the parallel method family.
inline void normalize_blocked(std::span<double> x, const Executor& exec) {
    const double sum = blocked_sum(x, exec);
    if (sum <= 0.0) {
        throw std::runtime_error("steady-state solve collapsed to the zero vector");
    }
    const index_type n = static_cast<index_type>(x.size());
    exec.for_each_block([&](int b) {
        const BlockRange r = reduction_block(n, b);
        for (index_type i = r.begin; i < r.end; ++i) {
            x[static_cast<std::size_t>(i)] /= sum;
        }
    });
}

/// max_i |(pi Q)_i| / Lambda for a normalized pi. Max combines exactly, so
/// the sharded result is bitwise equal to the serial one for any partition.
template <QtOperatorConcept Op>
double scaled_residual(const Op& op, std::span<const double> x, double uniformization_rate,
                       const Executor& exec = {}) {
    const index_type n = op.size();
    std::array<double, kReductionBlocks> partial{};
    exec.for_each_block([&](int b) {
        const BlockRange r = reduction_block(n, b);
        double worst = 0.0;
        if constexpr (RowRangeOperator<Op>) {
            worst = op.max_residual(x.data(), r.begin, r.end);
        } else {
            for (index_type i = r.begin; i < r.end; ++i) {
                double acc = op.diagonal(i) * x[static_cast<std::size_t>(i)];
                op.for_each_incoming(i, [&](index_type j, double rate) {
                    acc += rate * x[static_cast<std::size_t>(j)];
                });
                worst = std::max(worst, std::fabs(acc));
            }
        }
        partial[static_cast<std::size_t>(b)] = worst;
    });
    double worst = 0.0;
    for (double p : partial) {
        worst = std::max(worst, p);
    }
    return worst / uniformization_rate;
}

/// Lambda = max_i |Q_ii| (uniformization rate); exact under sharding.
template <QtOperatorConcept Op>
double max_exit_rate(const Op& op, const Executor& exec = {}) {
    const index_type n = op.size();
    std::array<double, kReductionBlocks> partial{};
    exec.for_each_block([&](int b) {
        const BlockRange r = reduction_block(n, b);
        double lambda = 0.0;
        for (index_type i = r.begin; i < r.end; ++i) {
            lambda = std::max(lambda, -op.diagonal(i));
        }
        partial[static_cast<std::size_t>(b)] = lambda;
    });
    double lambda = 0.0;
    for (double p : partial) {
        lambda = std::max(lambda, p);
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

/// One red-black Gauss-Seidel sweep. States are colored by index parity;
/// each color phase computes updates for all of its states from the vector
/// as it stood at the start of the phase (writes land in `scratch`, then
/// commit), so within a phase the updates are order-independent and shard
/// cleanly. Across phases the freshly committed opposite-color values are
/// used, which is what makes this Gauss-Seidel-like rather than Jacobi.
template <QtOperatorConcept Op>
void red_black_sweep(const Op& op, std::span<double> x, std::span<double> scratch,
                     const Executor& exec) {
    const index_type n = op.size();
    for (index_type color = 0; color < 2; ++color) {
        exec.for_each_block([&](int b) {
            const BlockRange r = reduction_block(n, b);
            index_type i = r.begin + ((r.begin & 1) == color ? 0 : 1);
            if constexpr (RowRangeOperator<Op>) {
                op.update_rows(x.data(), scratch.data(), i, r.end, 2);
            } else {
                for (; i < r.end; i += 2) {
                    const double d = op.diagonal(i);
                    if (d == 0.0) {
                        scratch[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)];
                        continue;
                    }
                    double acc = 0.0;
                    op.for_each_incoming(i, [&](index_type j, double rate) {
                        acc += rate * x[static_cast<std::size_t>(j)];
                    });
                    scratch[static_cast<std::size_t>(i)] = acc / -d;
                }
            }
        });
        exec.for_each_block([&](int b) {
            const BlockRange r = reduction_block(n, b);
            index_type i = r.begin + ((r.begin & 1) == color ? 0 : 1);
            for (; i < r.end; i += 2) {
                x[static_cast<std::size_t>(i)] = scratch[static_cast<std::size_t>(i)];
            }
        });
    }
}

// --- pipelined passes, shared by the raw-CSR kernels and the GPRS stencil --

/// Runs `count` forward sweeps as wavefront groups of 4, then 2, then 1
/// (only 1 when !pipeline): pass(group, sum) runs group() sweeps, a
/// std::integral_constant, adding the last one's rows to *sum in index
/// order when sum is non-null. Returns that sum for the final sweep when
/// want_sum, otherwise 0.
template <typename Pass>
double grouped_sweeps(index_type count, bool want_sum, bool pipeline, Pass&& pass) {
    double sum = 0.0;
    double* const tail_sum = want_sum ? &sum : nullptr;
    for (index_type left = count; left > 0;) {
        if (pipeline && left >= 4) {
            pass(std::integral_constant<int, 4>{}, left == 4 ? tail_sum : nullptr);
            left -= 4;
        } else if (pipeline && left >= 2) {
            pass(std::integral_constant<int, 2>{}, left == 2 ? tail_sum : nullptr);
            left -= 2;
        } else {
            pass(std::integral_constant<int, 1>{}, left == 1 ? tail_sum : nullptr);
            left -= 1;
        }
    }
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
    return grouped_sweeps(count, accumulate_final_sum, 8 * D < m.n,
                          [&](auto group, double* sum) {
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
