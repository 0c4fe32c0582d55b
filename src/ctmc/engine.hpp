// SolverEngine: the reusable entry point of the steady-state stack.
//
//   engine layer   (this file + kernels.hpp + common/crew.hpp)
//        ^ owns a shared common::ThreadPool for solves wider than one thread
//   model layer    (core/model.hpp)
//        ^ routes GprsModel::solve() through an engine
//   consumers      (bench/, examples/)
//
// One engine should live as long as the workload: its pool is spawned once
// and reused across every solve.
//
// The solve loop runs forward Gauss-Seidel sweeps straight through from one
// residual checkpoint to the next, then normalizes the iterate and
// evaluates its residual there. Checkpoints are multiples of kCheckInterval
// that the observed convergence rate picks, so the residual is evaluated
// only when it could matter. A sweep is linear in the iterate, so leaving
// it unnormalized between checkpoints changes it only by rounding. An
// operator with its own pipelined pass (PipelinedSweepOperator: the GPRS
// stencil) runs each run of sweeps as wavefront groups and fuses the
// normalization sum into the final sweep and the residual into the
// normalizing division: bitwise the one-sweep-at-a-time schedule that any
// other operator (the CSR QtMatrix, the reference) runs on the generic
// kernels.
//
// Threads never change the answer: it is bitwise the serial solve at every
// width. A pipelined pass on a chain of kTeamMinStates states or more runs
// as a team (kernels.hpp) whose sweep groups idle threads may claim:
// the other seats of the campaign wave the solve runs in, or, with
// SolveOptions::num_threads > 1 (0 = all hardware threads) outside a wave,
// this engine's pool, where the solve (and its progress callback) runs on
// one seat and the others help.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "ctmc/kernels.hpp"
#include "ctmc/solver_options.hpp"
#include "common/crew.hpp"
#include "common/thread_pool.hpp"

namespace gprsim::ctmc {

/// Chains with fewer states solve alone: three seats lost to one thread on
/// chains of up to 40,299 states and won from 53,732 up (docs/benchmarks.md).
inline constexpr index_type kTeamMinStates = index_type{1} << 16;

/// Checkpoint unit in sweeps. The solve sweeps straight through to a
/// checkpoint, then normalizes the iterate and evaluates its residual
/// there. Checkpoints are multiples of kCheckInterval: the next is one
/// interval on until two falling residuals are on record, then half the
/// sweeps their decay predicts are left, in whole intervals, 1 to 16 of
/// them. A solve that reaches max_iterations stops there, at a checkpoint
/// of its own.
inline constexpr index_type kCheckInterval = 10;

class SolverEngine {
public:
    /// The pool is created on the first wide solve (or pool() call).
    SolverEngine() = default;

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
    /// The solve owns its options: its one start (SolveOptions::initial,
    /// else the uniform distribution) becomes the iterate in place, so pass
    /// it with std::move to avoid copying a state-space-sized vector.
    /// Throws std::invalid_argument for degenerate generators. A
    /// non-converged result (result.converged == false) is returned rather
    /// than thrown so callers can decide whether the residual is
    /// acceptable. Concurrent solves on one engine are safe; those wider
    /// than one thread serialize on the pool.
    template <QtOperatorConcept Op>
    SolveResult solve(const Op& op, SolveOptions options = {});

private:
    /// The solve on the calling thread (and its crew, if seated).
    template <QtOperatorConcept Op>
    static SolveResult solve_here(const Op& op, SolveOptions options);

    std::unique_ptr<common::ThreadPool> pool_;
    std::mutex pool_mutex_;
};

/// Process-wide engine used by model-layer callers that do not manage their
/// own engine.
SolverEngine& default_engine();

/// Prepares `x` in place exactly as a solve prepares SolveOptions::initial
/// (clamped to non-negative, divided by its left-to-right sum) and returns
/// its scaled residual max_i |(x Q)_i| / Lambda: one O(nnz) pass, no sweep.
/// A caller choosing between starts ranks prepared copies with it and hands
/// the raw winner to the solve, which iterates from the same vector bit for
/// bit (the ctmc backend's transfer rule, src/eval/backends.cpp). Throws
/// std::invalid_argument on a size mismatch.
template <QtOperatorConcept Op>
double prepare_start(const Op& op, std::vector<double>& x);

// --- implementation -----------------------------------------------------

namespace detail {

/// Prepares a start in place: clamped to non-negative and divided by its
/// left-to-right sum. With `residual`, also its scaled residual, which a
/// pipelined operator fuses into the division (bitwise the same division).
template <QtOperatorConcept Op>
void prepare_start(const Op& op, std::vector<double>& x, double lambda, double* residual) {
    for (double& v : x) {
        v = std::max(v, 0.0);
    }
    if constexpr (PipelinedSweepOperator<Op>) {
        if (residual != nullptr) {
            const double sum = std::accumulate(x.begin(), x.end(), 0.0);
            *residual = op.fused_normalize_residual(x.data(), sum, lambda);
            return;
        }
    }
    normalize(x);
    if (residual != nullptr) {
        *residual = scaled_residual(op, x, lambda);
    }
}

}  // namespace detail

template <QtOperatorConcept Op>
double prepare_start(const Op& op, std::vector<double>& x) {
    if (static_cast<index_type>(x.size()) != op.size()) {
        throw std::invalid_argument("prepare_start: start vector size mismatch");
    }
    double residual = 0.0;
    detail::prepare_start(op, x, detail::max_exit_rate(op), &residual);
    return residual;
}

template <QtOperatorConcept Op>
SolveResult SolverEngine::solve(const Op& op, SolveOptions options) {
    if constexpr (PipelinedSweepOperator<Op>) {
        const int seats = resolve_thread_count(options.num_threads);
        if (seats > 1 && op.size() >= kTeamMinStates && !common::Crew::seated()) {
            SolveResult result;
            const std::function<void()> task = [&] {
                result = solve_here(op, std::move(options));
            };
            common::Crew::run_tasks(pool(seats), std::span(&task, 1), seats);
            result.threads_used = seats;
            return result;
        }
    }
    return solve_here(op, std::move(options));
}

template <QtOperatorConcept Op>
SolveResult SolverEngine::solve_here(const Op& op, SolveOptions options) {
    const auto t0 = std::chrono::steady_clock::now();
    const index_type n = op.size();
    if (n <= 0) {
        throw std::invalid_argument("SolverEngine::solve: empty state space");
    }
    if (!options.initial.empty() &&
        static_cast<index_type>(options.initial.size()) != n) {
        throw std::invalid_argument("SolverEngine::solve: initial vector size mismatch");
    }

    SolveResult result;
    const double lambda = detail::max_exit_rate(op);
    // Sweep groups go to idle threads only when the calling thread has a
    // crew and a group is long enough to repay a wake-up.
    const bool team = n >= kTeamMinStates && common::Crew::seated();

    // The start becomes the iterate in place; the uniform distribution
    // only when none is given.
    if (!options.initial.empty()) {
        result.distribution = std::move(options.initial);
        detail::prepare_start(op, result.distribution, lambda, nullptr);
    } else {
        result.distribution.assign(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
    }
    std::vector<double>& x = result.distribution;

    // One run: `count` sweeps, then the checkpoint's normalization and
    // residual. An operator with its own pipelined pass takes that pass,
    // which also returns the normalization sum and fuses the residual into
    // the division; any other operator runs the generic one-sweep-at-a-time
    // kernels.
    const auto run_to_checkpoint = [&](index_type count) {
        if constexpr (PipelinedSweepOperator<Op>) {
            const double sum = op.gauss_seidel_sweeps(x.data(), count, true, team);
            result.residual = op.fused_normalize_residual(x.data(), sum, lambda);
        } else {
            for (index_type s = 0; s < count; ++s) {
                detail::gauss_seidel_forward(op, x);
            }
            detail::normalize(x);
            result.residual = detail::scaled_residual(op, x, lambda);
        }
        ++result.residual_evaluations;
    };

    // Sweep loop: one run per residual checkpoint. Checkpoints land at
    // multiples of kCheckInterval chosen below, and at max_iterations.
    index_type next_residual = kCheckInterval;
    index_type prev_sweep = 0;
    double prev_residual = -1.0;
    index_type sweep = 0;
    while (sweep < options.max_iterations) {
        const index_type target = std::min(next_residual, options.max_iterations);
        run_to_checkpoint(target - sweep);
        sweep = target;
        result.iterations = sweep;
        if (options.progress) {
            options.progress(sweep, result.residual);
        }
        if (result.residual <= options.tolerance) {
            break;
        }
        // Schedule the next checkpoint. With two residuals on record,
        // extrapolate the per-sweep decay and skip ahead — but only half
        // the predicted remaining distance, in whole intervals, capped at
        // 16 intervals, so decelerating convergence cannot overshoot the
        // sweep where an every-interval check would have stopped.
        index_type gap = kCheckInterval;
        if (prev_residual > 0.0 && result.residual > 0.0 && result.residual < prev_residual) {
            const double f = std::pow(result.residual / prev_residual,
                                      1.0 / static_cast<double>(sweep - prev_sweep));
            if (f > 0.0 && f < 1.0) {
                const double remaining =
                    std::log(options.tolerance / result.residual) / std::log(f);
                const double half_intervals =
                    remaining / 2.0 / static_cast<double>(kCheckInterval);
                const index_type mult = std::clamp<index_type>(
                    static_cast<index_type>(half_intervals), 1, 16);
                gap = mult * kCheckInterval;
            }
        }
        prev_sweep = sweep;
        prev_residual = result.residual;
        next_residual = sweep + gap;
    }

    // Every run ends at a residual checkpoint, so this fallback only fires
    // when max_iterations left the loop body unentered.
    if (sweep == 0) {
        detail::normalize(x);
        result.residual = detail::scaled_residual(op, x, lambda);
        ++result.residual_evaluations;
    }
    result.converged = result.residual <= options.tolerance;
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

}  // namespace gprsim::ctmc
