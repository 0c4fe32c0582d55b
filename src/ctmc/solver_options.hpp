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
// engine's fast path: the explicit CSR matrix (QtMatrix) and the GPRS
// chain's stencil (core::GprsGenerator) both do; the stencil's can also run
// as a team on idle threads (TeamSweepOperator).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
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

/// An operator with its own pipelined Gauss-Seidel pass, which the engine
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

/// A pipelined operator whose pass can run as a team:
/// gauss_seidel_sweeps(x, count, want_sum, team) with team = true hands its
/// sweep groups to idle threads of the calling thread's common::Crew, with
/// results bitwise equal to the solo pass.
template <typename Op>
concept TeamSweepOperator =
    PipelinedSweepOperator<Op> &&
    requires(const Op& op, double* x, index_type count, bool flag) {
        { op.gauss_seidel_sweeps(x, count, flag, flag) } -> std::convertible_to<double>;
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
/// Forward Gauss-Seidel is the one scheme; the value is the one it had when
/// sor, jacobi, power, symmetric and red-black Gauss-Seidel still existed,
/// so a printed value keeps its meaning.
enum class SolveMethod {
    gauss_seidel = 0,
};

/// Canonical spelling of a method ("gauss_seidel").
inline const char* method_name(SolveMethod method) {
    switch (method) {
        case SolveMethod::gauss_seidel:
            return "gauss_seidel";
    }
    return "unknown";
}

/// Inverse of method_name; "auto", the eval layer's default spelling, also
/// means gauss_seidel. nullopt for unrecognized spellings, removed ones
/// included (callers turn that into their own typed error).
inline std::optional<SolveMethod> method_from_name(std::string_view name) {
    if (name == "gauss_seidel" || name == "auto") return SolveMethod::gauss_seidel;
    return std::nullopt;
}

struct SolveOptions {
    SolveMethod method = SolveMethod::gauss_seidel;
    /// Convergence target on max_i |(pi Q)_i| / Lambda with
    /// Lambda = max_i |Q_ii| (a dimensionless residual).
    double tolerance = 1e-12;
    index_type max_iterations = 200000;
    /// Execution width, see engine.hpp. 1 (default) runs on the calling
    /// thread; 0 means "all hardware threads"; N > 1 lets up to N threads
    /// of the engine's pool run a large chain's sweep groups. The result is
    /// bitwise identical at every width.
    int num_threads = 1;
    /// The one start; empty means the uniform distribution. Clamped to
    /// non-negative and renormalized in place: the solve takes the options
    /// by value and iterates in this vector, so move it in to avoid a copy.
    /// Choosing between starts is the caller's (ctmc::prepare_start ranks
    /// one without a solve; the ctmc backend's transfer rule uses it).
    std::vector<double> initial;
    /// Optional progress callback, run at each residual checkpoint (see
    /// kCheckInterval in engine.hpp): (sweeps done, residual of the
    /// normalized iterate). An exception it throws ends the solve and
    /// propagates to the caller.
    std::function<void(index_type, double)> progress;
};

struct SolveResult {
    std::vector<double> distribution;
    index_type iterations = 0;
    double residual = 0.0;
    bool converged = false;
    double seconds = 0.0;
    /// Threads of the engine's pool the solve ran on: 1 when it ran on the
    /// calling thread alone, as a campaign task does (idle seats of the
    /// campaign's crew may still run its sweep groups).
    int threads_used = 1;
    /// Number of scaled-residual evaluations the solve performed (each is
    /// an O(nnz) pass): one per checkpoint.
    index_type residual_evaluations = 0;
};

}  // namespace gprsim::ctmc
