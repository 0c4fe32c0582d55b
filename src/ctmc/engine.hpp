// SolverEngine: the reusable entry point of the steady-state stack.
//
//   engine layer   (this file + kernels.hpp + thread_pool.hpp)
//        ^ owns a shared common::ThreadPool, dispatches per-method kernels
//   model layer    (core/model.hpp)
//        ^ routes GprsModel::solve() through an engine
//   consumers      (bench/, examples/)
//
// One engine should live as long as the workload: its pool is spawned once
// and reused across every solve and residual evaluation; a
// pool wider than a given solve's width never over-parallelizes it (the
// dispatch caps participating threads at num_threads).
// Thread-count semantics (SolveOptions::num_threads):
//   1  -> serial. For gauss_seidel this is the exact seed arithmetic
//         (bit-compatible); red_black_gauss_seidel uses block-ordered
//         reductions, whose rounding differs from the seed's
//         left-to-right sums in the last ulps.
//   0  -> all hardware threads,
//   N  -> N-wide execution. red_black_gauss_seidel produces bitwise
//         identical distributions for every thread count; plain
//         gauss_seidel upgrades to red_black_gauss_seidel when more than
//         one thread is requested (unless auto_select picked it — the cost
//         model's serial choice is deliberate and runs serially whatever
//         the width).
//
// The solve loop runs sweeps in batches of check_interval. Serial
// Gauss-Seidel on a PipelinedSweepOperator (the CSR QtMatrix, the GPRS
// stencil) runs the operator's own wavefront pass, which pipelines the
// batch and fuses the normalization sum into the final sweep and the
// residual into the normalizing division — bitwise identical to the
// one-sweep-at-a-time schedule, about 2x faster.
// With adaptive_checks the residual is evaluated only when the observed
// convergence rate predicts it could matter; normalization stays on the
// fixed every-interval schedule, so the iterate trajectory is unchanged.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>

#include "ctmc/kernels.hpp"
#include "ctmc/solver_options.hpp"
#include "common/thread_pool.hpp"

namespace gprsim::ctmc {

class SolverEngine {
public:
    /// `prewarm_threads` > 1 spawns the pool eagerly; otherwise the pool is
    /// created on first parallel solve (or pool() call).
    explicit SolverEngine(int prewarm_threads = 0);

    SolverEngine(const SolverEngine&) = delete;
    SolverEngine& operator=(const SolverEngine&) = delete;

    /// Resolves SolveOptions::num_threads via the repo-wide convention
    /// (common::ThreadPool::resolve_thread_count): 0 -> hardware threads,
    /// else max(1, requested).
    static int resolve_thread_count(int requested);

    /// The shared pool, grown (recreated) if narrower than `min_threads`.
    /// Do not resize while another thread is solving on this engine.
    common::ThreadPool& pool(int min_threads);

    /// Solves pi Q = 0, sum(pi) = 1 for the operator's chain.
    ///
    /// Throws std::invalid_argument for degenerate generators. A
    /// non-converged result (result.converged == false) is returned rather
    /// than thrown so callers can decide whether the residual is
    /// acceptable. Concurrent serial solves (num_threads == 1) on one
    /// engine are safe; concurrent *parallel* solves serialize on the pool.
    template <QtOperatorConcept Op>
    SolveResult solve(const Op& op, const SolveOptions& options = {});

private:
    std::unique_ptr<common::ThreadPool> pool_;
    std::mutex pool_mutex_;
};

/// Process-wide engine used by the solve_steady_state() convenience wrapper
/// and by model-layer callers that do not manage their own engine.
SolverEngine& default_engine();

// --- implementation -----------------------------------------------------

template <QtOperatorConcept Op>
SolveResult SolverEngine::solve(const Op& op, const SolveOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    const index_type n = op.size();
    if (n <= 0) {
        throw std::invalid_argument("solve_steady_state: empty state space");
    }
    if (!options.initial.empty() &&
        static_cast<index_type>(options.initial.size()) != n) {
        throw std::invalid_argument("solve_steady_state: initial vector size mismatch");
    }
    if (!options.initial_candidates.empty() && !options.initial.empty()) {
        throw std::invalid_argument(
            "solve_steady_state: initial and initial_candidates are mutually exclusive");
    }
    if (options.check_interval <= 0) {
        throw std::invalid_argument("solve_steady_state: check_interval must be positive");
    }

    SolveResult result;
    const int threads = resolve_thread_count(options.num_threads);
    SolveMethod method = options.method;
    bool auto_serial = false;  // auto-picked gauss_seidel stays serial
    if (method == SolveMethod::auto_select) {
        const AutoSelection pick = auto_select_method(n, threads);
        method = pick.method;
        result.reason = pick.reason;
        auto_serial = method == SolveMethod::gauss_seidel;
    }
    if (method == SolveMethod::gauss_seidel && threads > 1 && !auto_serial) {
        method = SolveMethod::red_black_gauss_seidel;
        result.reason =
            "gauss_seidel is strictly serial; upgraded to red_black_gauss_seidel "
            "for the parallel run";
    }
    const bool parallel_family = method == SolveMethod::red_black_gauss_seidel;
    detail::Executor exec;
    if (threads > 1 && parallel_family) {
        exec = {&this->pool(threads), threads};
    }

    result.threads_used = exec.pool != nullptr ? threads : 1;
    result.method_used = method;
    const double lambda = detail::max_exit_rate(op, exec);

    const auto prepared_initial = [&](const std::vector<double>& raw) {
        std::vector<double> x = raw;
        for (double& v : x) {
            v = std::max(v, 0.0);
        }
        if (parallel_family) {
            detail::normalize_blocked(x, exec);
        } else {
            detail::normalize(x);
        }
        return x;
    };
    result.distribution.assign(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
    if (!options.initial.empty()) {
        result.distribution = prepared_initial(options.initial);
    } else if (!options.initial_candidates.empty()) {
        // Competitive warm starts: one residual evaluation per candidate
        // (an O(nnz) pass, far cheaper than the sweeps a bad start costs),
        // then iterate from the winner. A later candidate only displaces
        // the incumbent when it undercuts margin * incumbent — see the
        // candidate_margin documentation for why near-ties go to the
        // earlier (preferred) candidate.
        if (options.candidate_margin <= 0.0 || options.candidate_margin > 1.0) {
            throw std::invalid_argument(
                "solve_steady_state: candidate_margin must be in (0, 1]");
        }
        double incumbent_residual = 0.0;
        for (std::size_t c = 0; c < options.initial_candidates.size(); ++c) {
            const std::vector<double>& raw = options.initial_candidates[c];
            if (static_cast<index_type>(raw.size()) != n) {
                throw std::invalid_argument(
                    "solve_steady_state: initial candidate size mismatch");
            }
            std::vector<double> x = prepared_initial(raw);
            const double residual = detail::scaled_residual(op, x, lambda, exec);
            ++result.residual_evaluations;
            if (result.initial_selected < 0 ||
                residual < options.candidate_margin * incumbent_residual) {
                incumbent_residual = residual;
                result.initial_selected = static_cast<int>(c);
                result.distribution = std::move(x);
            }
        }
    }
    std::vector<double>& x = result.distribution;
    std::vector<double> scratch;
    if (parallel_family) {
        scratch.resize(static_cast<std::size_t>(n));
    }

    const auto normalize_x = [&] {
        if (parallel_family) {
            detail::normalize_blocked(x, exec);
        } else {
            detail::normalize(x);
        }
    };

    // One batch: `count` sweeps, then the checkpoint's normalization and,
    // when asked, its residual. Serial Gauss-Seidel on an operator with its
    // own pipelined pass takes that pass, which also returns the
    // normalization sum and fuses the residual into the division; every
    // other (method, operator, width) combination runs the generic
    // one-sweep-at-a-time kernels.
    const auto run_batch = [&](index_type count, bool want_residual) {
        if constexpr (PipelinedSweepOperator<Op>) {
            if (method == SolveMethod::gauss_seidel && exec.pool == nullptr) {
                const double sum = op.gauss_seidel_sweeps(x.data(), count, true);
                if (want_residual) {
                    result.residual = op.fused_normalize_residual(x.data(), sum, lambda);
                    ++result.residual_evaluations;
                    return;
                }
                if (sum <= 0.0) {
                    throw std::runtime_error("steady-state solve collapsed to the zero vector");
                }
                for (double& v : x) {
                    v /= sum;
                }
                return;
            }
        }
        for (index_type s = 0; s < count; ++s) {
            if (parallel_family) {
                detail::red_black_sweep(op, x, scratch, exec);
            } else {
                detail::gauss_seidel_forward(op, x);
            }
        }
        normalize_x();
        if (want_residual) {
            result.residual = detail::scaled_residual(op, x, lambda, exec);
            ++result.residual_evaluations;
        }
    };

    // Batched sweep loop. Checkpoints land at every multiple of
    // check_interval (and at max_iterations) exactly as in the
    // sweep-at-a-time schedule; normalization happens at every checkpoint,
    // the residual only where the adaptive schedule (or a fixed schedule
    // with adaptive_checks off) asks for it.
    bool have_residual = false;
    index_type next_residual = options.check_interval;
    index_type prev_sweep = 0;
    double prev_residual = -1.0;
    index_type sweep = 0;
    while (sweep < options.max_iterations) {
        const index_type target = std::min(sweep + options.check_interval,
                                           options.max_iterations);
        const bool want_residual = !options.adaptive_checks || target >= next_residual ||
                                   target == options.max_iterations;
        run_batch(target - sweep, want_residual);
        sweep = target;
        result.iterations = sweep;
        have_residual = want_residual;
        if (!want_residual) {
            continue;
        }
        if (options.progress) {
            options.progress(sweep, result.residual);
        }
        if (result.residual <= options.tolerance) {
            break;
        }
        // Schedule the next residual evaluation. With two residuals on
        // record, extrapolate the per-sweep decay and skip ahead — but only
        // half the predicted remaining distance, in whole intervals, capped
        // at 16 intervals, so decelerating convergence cannot overshoot the
        // sweep where the fixed schedule would have stopped.
        index_type gap = options.check_interval;
        if (options.adaptive_checks && prev_residual > 0.0 && result.residual > 0.0 &&
            result.residual < prev_residual) {
            const double f = std::pow(result.residual / prev_residual,
                                      1.0 / static_cast<double>(sweep - prev_sweep));
            if (f > 0.0 && f < 1.0) {
                const double remaining =
                    std::log(options.tolerance / result.residual) / std::log(f);
                const double half_intervals =
                    remaining / 2.0 / static_cast<double>(options.check_interval);
                const index_type mult = std::clamp<index_type>(
                    static_cast<index_type>(half_intervals), 1, 16);
                gap = mult * options.check_interval;
            }
        }
        prev_sweep = sweep;
        prev_residual = result.residual;
        next_residual = sweep + gap;
    }

    // Every loop exit passes through a residual checkpoint (the converged
    // break, or the forced evaluation at max_iterations), so this fallback
    // only fires when max_iterations left the loop body unentered.
    if (!have_residual) {
        normalize_x();
        result.residual = detail::scaled_residual(op, x, lambda, exec);
        ++result.residual_evaluations;
    }
    result.converged = result.residual <= options.tolerance;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

}  // namespace gprsim::ctmc
