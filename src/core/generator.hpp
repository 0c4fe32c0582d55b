// The transposed generator of the GPRS Markov chain as a stencil.
//
// Every state (k, n, m, r) has at most ten predecessors (paper Table 1),
// each at a fixed offset of the StateSpace codec: -(m+1), -m, -1, +1,
// +(m+1), +(m+2) inside the (m, r) session triangle, -P and +P for the GSM
// call count n (P = session pairs) and -L and +L for the buffer level k
// (L = (N_gsm + 1) P states). GprsGenerator keeps the rates of those
// neighbours as a per-(m, r) coefficient table, rates shared by a whole
// (k, n) block, and the diagonal, not a CSR matrix: a Gauss-Seidel sweep
// streams only the iterate and the diagonal.
//
// Results are bitwise identical to sweeping to_qt_matrix(): each row adds
// the same products in the CSR's column order, and a neighbour Table 1
// lacks adds rate 0 times a value of the iterate, +0.0, which leaves the
// running sum unchanged. to_qt_matrix() and to_generator_matrix() are the
// reference forms, assembled from the Table 1 enumerators of
// transitions.hpp.
#pragma once

#include <algorithm>
#include <vector>

#include "ctmc/solver.hpp"
#include "ctmc/sparse_matrix.hpp"
#include "core/parameters.hpp"
#include "core/state_space.hpp"
#include "core/transitions.hpp"

namespace gprsim::core {

class GprsGenerator {
public:
    /// `parameters` must be validated; `rates` normally comes from
    /// balance_handover() so that handover flows are in equilibrium.
    GprsGenerator(Parameters parameters, ModelRates rates);

    const Parameters& parameters() const { return parameters_; }
    const ModelRates& rates() const { return rates_; }
    const StateSpace& space() const { return space_; }

    // --- ctmc::QtOperatorConcept ---------------------------------------
    common::index_type size() const { return space_.size(); }

    double diagonal(common::index_type i) const {
        return diag_[static_cast<std::size_t>(i)];
    }

    /// Emits row i of the transposed generator exactly as to_qt_matrix()
    /// stores it: the same columns, in ascending order, with the same bits.
    template <typename F>
    void for_each_incoming(common::index_type i, F&& f) const {
        const common::index_type k = i / level_;
        const common::index_type n = (i - k * level_) / pairs_count_;
        const Pair& q = pairs_[static_cast<std::size_t>(i - k * level_ - n * pairs_count_)];
        const BlockRates b = block_rates(k, n);
        if (const double arrival = std::min(q.offered, b.arrival_cap); arrival > 0.0) {
            f(i - level_, arrival);
        }
        if (n > 0) {
            f(i - pairs_count_, b.gsm_arrival);
        }
        for (int t = 0; t < kSessionTerms; ++t) {
            if (q.offset[t] != 0) {
                f(i + q.offset[t], q.rate[t]);
            }
        }
        if (n < space_.gsm_channels()) {
            f(i + pairs_count_, b.gsm_departure);
        }
        if (b.service > 0.0) {
            f(i + level_, b.service);
        }
    }

    // --- ctmc::TeamSweepOperator ----------------------------------------
    /// `count` forward Gauss-Seidel sweeps over x in wavefront groups of up
    /// to four sweeps, bitwise `count` one-at-a-time sweeps of
    /// to_qt_matrix(). With `want_sum` returns the left-to-right sum of the
    /// final iterate, otherwise 0. With `team` idle threads may claim groups
    /// (common::Crew); group g's leading sweep enters buffer level l once
    /// group g - 1 has finished levels 0..min(l + 1, K), the pass's own
    /// two-level lag (a row reads only its level and the two next to it).
    double gauss_seidel_sweeps(double* x, common::index_type count, bool want_sum,
                               bool team = false) const;

    /// Divides x by `sum` and returns max_i |(x Q)_i| / uniformization_rate
    /// in one pass, bitwise equal to normalizing and then evaluating the
    /// scaled residual. Throws when `sum` is not positive.
    double fused_normalize_residual(double* x, double sum, double uniformization_rate) const;

    /// max_i |(x Q)_i| over [begin, end), the fused pass's residual.
    double max_residual(const double* x, common::index_type begin,
                        common::index_type end) const;

    // --- reference forms -------------------------------------------------
    /// Transposed generator in CSR form (off-diagonal) plus diagonal array.
    ctmc::QtMatrix to_qt_matrix() const;

    /// The generator Q itself (diagonal included); used by GTH ground-truth
    /// solves in tests. O(n^2) memory via dense GTH, so small configs only.
    ctmc::SparseMatrix to_generator_matrix() const;

private:
    /// Session-triangle predecessors, in column order: OFF and ON session
    /// arrival (-(m+1), -m), ON->OFF and OFF->ON (-1, +1), ON and OFF
    /// session departure (+(m+1), +(m+2)).
    static constexpr int kSessionTerms = 6;

    /// Coefficients of one (m, r) pair. A predecessor Table 1 lacks has
    /// offset 0 (the state reads itself) and rate 0.
    struct Pair {
        double offered = 0.0;  ///< (m - r) lambda_packet, what its ON sources offer
        double rate[kSessionTerms] = {};
        int offset[kSessionTerms] = {};
    };

    /// The rates every row of the (k, n) block shares, each computed by the
    /// expression core::for_each_incoming uses: the cap on the packet
    /// arrival from (k - 1, n) (offered_packet_rate's throttle: infinite up
    /// to the flow-control onset, the service rate there above it), the GSM
    /// arrival from n - 1 and departure from n + 1, and the service from
    /// (k + 1, n). A neighbour the block lacks gets 0.
    struct BlockRates {
        double arrival_cap = 0.0;
        double gsm_arrival = 0.0;
        double gsm_departure = 0.0;
        double service = 0.0;
    };
    BlockRates block_rates(common::index_type k, common::index_type n) const;

    /// The block-wise sweep kernels (generator.cpp).
    struct Kernel;

    Parameters parameters_;
    ModelRates rates_;
    StateSpace space_;
    common::index_type pairs_count_;  ///< P
    common::index_type level_;        ///< L
    std::vector<Pair> pairs_;
    std::vector<double> diag_;
};

}  // namespace gprsim::core
