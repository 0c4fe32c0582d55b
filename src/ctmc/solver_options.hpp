// Solver vocabulary shared by every layer of the steady-state stack: the
// transposed-generator operator concepts, the explicit CSR operator, and the
// option/result structs consumed by SolverEngine (see engine.hpp).
//
// All solvers compute the stationary distribution pi of an irreducible CTMC
// with generator Q, i.e. the solution of  pi * Q = 0,  sum(pi) = 1.
// They operate on the *transposed* generator: a type modelling the
// QtOperatorConcept below exposes, for every state i, the diagonal Q_ii and
// the incoming transition rates Q_ji (j != i). An operator that also brings
// its own pipelined Gauss-Seidel pass (PipelinedSweepOperator) gets the
// engine's serial fast path: the explicit CSR matrix (QtMatrix) and the GPRS
// chain's stencil (core::GprsGenerator) both do.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ctmc/sparse_matrix.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {

/// Requirements for a transposed-generator operator usable by the solvers.
///
///   index_type size() const;                 // number of states
///   double diagonal(index_type i) const;     // Q_ii  (strictly negative
///                                            //  for non-absorbing states)
///   void for_each_incoming(index_type i, F&& f) const;
///                                            // f(j, rate) for every j != i
///                                            //  with Q_ji = rate > 0
template <typename Op>
concept QtOperatorConcept = requires(const Op& op, index_type i) {
    { op.size() } -> std::convertible_to<index_type>;
    { op.diagonal(i) } -> std::convertible_to<double>;
    op.for_each_incoming(i, [](index_type, double) {});
};

/// An operator with its own serial Gauss-Seidel pass, which the engine
/// runs instead of one-sweep-at-a-time kernels. gauss_seidel_sweeps runs
/// `count` forward sweeps (returning the final iterate's left-to-right sum
/// when want_sum, else 0); fused_normalize_residual divides x by `sum` and
/// returns max_i |(x Q)_i| / lambda. Both are bitwise equal to the generic
/// kernels they replace.
template <typename Op>
concept PipelinedSweepOperator =
    QtOperatorConcept<Op> &&
    requires(const Op& op, double* x, index_type count, bool want_sum, double sum) {
        { op.gauss_seidel_sweeps(x, count, want_sum) } -> std::convertible_to<double>;
        { op.fused_normalize_residual(x, sum, sum) } -> std::convertible_to<double>;
    };

/// An operator that evaluates a range of rows at once for the blocked
/// kernels: update_rows(x, out, begin, end, stride) sets out[i] to the
/// Gauss-Seidel value of row i from x (red-black's color phase) for
/// i = begin, begin + stride, ... < end, and max_residual(x, begin, end)
/// returns max |(x Q)_i| over [begin, end). Both add the products in
/// for_each_incoming's order, so they are bitwise equal to the row loops.
template <typename Op>
concept RowRangeOperator =
    QtOperatorConcept<Op> &&
    requires(const Op& op, const double* x, double* out, index_type i) {
        op.update_rows(x, out, i, i, i);
        { op.max_residual(x, i, i) } -> std::convertible_to<double>;
    };

/// Transposed generator stored explicitly: off-diagonal CSR + diagonal array.
class QtMatrix {
public:
    QtMatrix() = default;
    QtMatrix(SparseMatrix off_diagonal_qt, std::vector<double> diagonal)
        : off_diag_(std::move(off_diagonal_qt)), diag_(std::move(diagonal)) {
        if (off_diag_.rows() != static_cast<index_type>(diag_.size()) ||
            off_diag_.cols() != static_cast<index_type>(diag_.size())) {
            throw std::invalid_argument("QtMatrix: dimension mismatch");
        }
    }

    index_type size() const { return static_cast<index_type>(diag_.size()); }
    double diagonal(index_type i) const { return diag_[static_cast<std::size_t>(i)]; }

    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        const auto cols = off_diag_.row_cols(i);
        const auto values = off_diag_.row_values(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            f(cols[p], values[p]);
        }
    }

    /// PipelinedSweepOperator over the raw-CSR kernels (engine.cpp).
    double gauss_seidel_sweeps(double* x, index_type count, bool want_sum) const;
    double fused_normalize_residual(double* x, double sum, double uniformization_rate) const;

    const SparseMatrix& off_diagonal() const { return off_diag_; }
    /// Contiguous diagonal array (size() entries) for the raw sweep kernels.
    const double* diagonal_data() const { return diag_.data(); }

private:
    SparseMatrix off_diag_;  // entry (i, j) = Q_ji, i != j
    std::vector<double> diag_;
};

/// Builds a QtMatrix from an enumerator of *outgoing* transitions.
///
/// `outgoing(i, emit)` must call `emit(j, rate)` for every transition
/// i -> j (j != i, rate > 0) of the chain. The diagonal is derived as the
/// negated row sum, so the result is a proper generator by construction.
template <typename Outgoing>
QtMatrix build_qt_matrix(index_type num_states, Outgoing&& outgoing) {
    std::vector<double> diag(static_cast<std::size_t>(num_states), 0.0);
    std::vector<Triplet> triplets;
    for (index_type i = 0; i < num_states; ++i) {
        outgoing(i, [&](index_type j, double rate) {
            if (rate <= 0.0) {
                return;
            }
            diag[static_cast<std::size_t>(i)] -= rate;
            triplets.push_back({j, i, rate});  // transposed: row=target, col=source
        });
    }
    SparseMatrix off = SparseMatrix::from_triplets(num_states, num_states, std::move(triplets));
    return QtMatrix(std::move(off), std::move(diag));
}

/// Iteration scheme used by SolverEngine::solve() / solve_steady_state().
/// The values are the ones these methods had before sor, jacobi, power and
/// symmetric Gauss-Seidel were removed, so a printed value keeps its meaning.
enum class SolveMethod {
    /// In-place forward sweeps; the default. Strictly serial; with
    /// num_threads > 1 the engine substitutes the red-black variant.
    gauss_seidel = 0,
    /// Two-color Gauss-Seidel: states are split by index parity; each color
    /// phase updates all of its states from a consistent snapshot (writes go
    /// to a scratch half-vector, then commit), so the phase parallelizes
    /// over row shards and the result is bitwise independent of the thread
    /// count.
    red_black_gauss_seidel = 5,
    /// Let the engine pick between serial and red-black Gauss-Seidel from
    /// the state count and thread budget via the measured cost model in
    /// engine.cpp (auto_select_method). The decision and its reasoning land
    /// in SolveResult::method_used / SolveResult::reason. Note an
    /// auto-selected gauss_seidel runs SERIALLY even when num_threads > 1 —
    /// choosing the serial pipelined kernel over the parallel method is
    /// precisely the decision the cost model makes for small chains and
    /// narrow thread budgets.
    auto_select = 6,
};

/// Canonical spelling of a method, as used by the eval/campaign layers and
/// the benches ("gauss_seidel", "auto", ...).
inline const char* method_name(SolveMethod method) {
    switch (method) {
        case SolveMethod::gauss_seidel:
            return "gauss_seidel";
        case SolveMethod::red_black_gauss_seidel:
            return "red_black_gauss_seidel";
        case SolveMethod::auto_select:
            return "auto";
    }
    return "unknown";
}

/// Inverse of method_name; nullopt for unrecognized spellings (callers turn
/// that into their own typed error).
inline std::optional<SolveMethod> method_from_name(std::string_view name) {
    if (name == "gauss_seidel") return SolveMethod::gauss_seidel;
    if (name == "red_black_gauss_seidel") return SolveMethod::red_black_gauss_seidel;
    if (name == "auto") return SolveMethod::auto_select;
    return std::nullopt;
}

struct SolveOptions {
    SolveMethod method = SolveMethod::gauss_seidel;
    /// Convergence target on max_i |(pi Q)_i| / Lambda with
    /// Lambda = max_i |Q_ii| (a dimensionless residual).
    double tolerance = 1e-12;
    index_type max_iterations = 200000;
    /// Normalization interval in sweeps. The iterate is renormalized at
    /// every multiple of `check_interval` (a fixed schedule — the division
    /// changes the iterate, so it must not depend on anything adaptive for
    /// results to stay reproducible); the residual is evaluated there too,
    /// unless adaptive_checks thins the residual schedule.
    index_type check_interval = 10;
    /// Derive the residual-evaluation interval from the observed
    /// convergence rate: once two residuals have been seen, checks are
    /// scheduled at conservative multiples of check_interval (at most half
    /// the predicted remaining sweeps, capped at 16 intervals), skipping
    /// the O(nnz) residual passes a long solve would otherwise burn every
    /// interval. Normalization stays on the fixed every-interval schedule,
    /// so the iterate trajectory — and the converged distribution — is
    /// bitwise identical to adaptive_checks = false; only
    /// SolveResult::residual_evaluations (and the progress callback
    /// cadence) changes. Disable to force a residual at every interval.
    bool adaptive_checks = true;
    /// Execution width. 1 (default) runs serially; 0 means "all hardware
    /// threads". red_black_gauss_seidel results are bitwise identical for
    /// every thread count; plain gauss_seidel is inherently sequential and
    /// upgrades to red_black_gauss_seidel when more than one thread is
    /// requested.
    int num_threads = 1;
    /// Warm start; empty means the uniform distribution. Non-negative,
    /// renormalized internally.
    std::vector<double> initial;
    /// Competing warm starts, in preference order: when non-empty the
    /// engine evaluates the scaled residual of every candidate (one O(nnz)
    /// pass each, no iterations consumed) and starts from the winner;
    /// SolveResult::initial_selected reports the choice. The evaluation
    /// uses the same block-ordered reduction as the solve, so the
    /// selection is deterministic at every thread count. Mutually
    /// exclusive with `initial`.
    std::vector<std::vector<double>> initial_candidates;
    /// Preference margin for the candidate comparison: a later candidate
    /// replaces the incumbent only when its residual is strictly below
    /// margin * incumbent residual. 1.0 is a plain argmin with ties to the
    /// earlier candidate; smaller values demand a decisive advantage —
    /// the initial residual is only a proxy for iterations-to-converge,
    /// and near-ties routinely mispredict (measured on the paper's Fig. 6
    /// cell: a transfer candidate at 0.92x the product form's residual
    /// cost 2x the sweeps, while every candidate below 0.5x converged
    /// faster). Must be in (0, 1].
    double candidate_margin = 1.0;
    /// Optional progress callback: (sweeps done, current residual).
    std::function<void(index_type, double)> progress;
};

struct SolveResult {
    std::vector<double> distribution;
    index_type iterations = 0;
    double residual = 0.0;
    bool converged = false;
    double seconds = 0.0;
    /// Execution width actually used (after resolving num_threads == 0).
    int threads_used = 1;
    /// Method actually executed (gauss_seidel may upgrade to red-black).
    SolveMethod method_used = SolveMethod::gauss_seidel;
    /// Index of the winning SolveOptions::initial_candidates entry;
    /// -1 when no candidate list was supplied.
    int initial_selected = -1;
    /// Number of scaled-residual evaluations the solve performed (each is
    /// an O(nnz) pass; adaptive_checks exists to shrink this).
    index_type residual_evaluations = 0;
    /// Why method_used was chosen: the cost-model explanation for
    /// SolveMethod::auto_select, the upgrade note when gauss_seidel was
    /// promoted to red-black for a parallel run, empty when the caller's
    /// explicit choice ran as-is.
    std::string reason;
};

/// The auto_select decision for a chain of `n` states under a budget of
/// `threads` (already resolved; >= 1): the method to run and the
/// cost-model reasoning behind it. Deterministic in (n, threads) — the
/// eval layer relies on per-point decisions being reproducible.
struct AutoSelection {
    SolveMethod method = SolveMethod::gauss_seidel;
    std::string reason;
};
AutoSelection auto_select_method(index_type n, int threads);

}  // namespace gprsim::ctmc
