#include "core/generator.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace gprsim::core {

using common::index_type;

/// The sweep kernels work on whole (k, n) blocks of P states. A Chain is the
/// block one sweep is at; its rows read the blocks at -L and +L (per chain)
/// and at -P and +P (in Gsm, shared by every chain at the same n) through
/// offsets from the row. A neighbour the block lacks gets offset 0, so the
/// row reads itself, with rate 0, and no load leaves the iterate. Keeping
/// the shared part apart keeps four chains' state in registers.
struct GprsGenerator::Kernel {
    struct Chain {
        index_type at = 0;     ///< first state of the (k, n) block
        index_type below = 0;  ///< (k - 1, n): packet arrival
        index_type above = 0;  ///< (k + 1, n): packet service
        double arrival_cap = 0.0;
        double service = 0.0;
    };

    struct Gsm {
        index_type left = 0;   ///< (k, n - 1): GSM arrival
        index_type right = 0;  ///< (k, n + 1): GSM departure
        double arrival = 0.0;
        double departure = 0.0;
    };

    static Chain chain(const GprsGenerator& g, index_type k, index_type n) {
        const BlockRates b = g.block_rates(k, n);
        return {k * g.level_ + n * g.pairs_count_, k > 0 ? -g.level_ : 0,
                k < g.space_.buffer_capacity() ? g.level_ : 0, b.arrival_cap, b.service};
    }

    static Gsm gsm(const GprsGenerator& g, index_type n) {
        const BlockRates b = g.block_rates(0, n);
        return {n > 0 ? -g.pairs_count_ : 0, n < g.space_.gsm_channels() ? g.pairs_count_ : 0,
                b.gsm_arrival, b.gsm_departure};
    }

    /// acc plus the ten incoming products of the state at `row`, in the
    /// CSR's column order.
    static double add_incoming(double acc, const Pair& q, const Gsm& s, const Chain& c,
                               const double* row) {
        acc += std::min(q.offered, c.arrival_cap) * row[c.below];
        acc += s.arrival * row[s.left];
        for (int t = 0; t < kSessionTerms; ++t) {
            acc += q.rate[t] * row[q.offset[t]];
        }
        acc += s.departure * row[s.right];
        acc += c.service * row[c.above];
        return acc;
    }

    /// gauss_seidel_update's arithmetic. No state is isolated (each has a
    /// GSM arrival or departure), so no diagonal is zero.
    static void update(const Pair& q, const Gsm& s, const Chain& c, double* row, double d) {
        *row = add_incoming(0.0, q, s, c, row) / -d;
    }

    /// Updates A blocks at call count n, one pair position at a time. The
    /// last block's rows are added to *sum as they are written, when sum
    /// is non-null.
    template <std::size_t A>
    static void sweep(const GprsGenerator& g, double* x, index_type lead, index_type first,
                      index_type n, double* sum) {
        std::array<Chain, A> chains;
        for (std::size_t c = 0; c < A; ++c) {
            chains[c] = chain(g, lead - 2 * (first + static_cast<index_type>(c)), n);
        }
        const Gsm s = gsm(g, n);
        const Pair* pairs = g.pairs_.data();
        const double* diag = g.diag_.data();
        double total = sum != nullptr ? *sum : 0.0;
        for (index_type p = 0; p < g.pairs_count_; ++p) {
            const Pair q = pairs[p];
            [&]<std::size_t... C>(std::index_sequence<C...>) {
                (update(q, s, chains[C], x + chains[C].at + p, diag[chains[C].at + p]), ...);
            }(std::make_index_sequence<A>{});
            total += x[chains[A - 1].at + p];
        }
        if (sum != nullptr) {
            *sum = total;
        }
    }

    /// T forward sweeps in one pass over the buffer levels. Chain t runs
    /// sweep t of the group two levels behind chain t - 1, more than the
    /// one-level bandwidth: every row it reads below itself already holds
    /// its own sweep's value and every row above still holds the previous
    /// sweep's, exactly as in T back-to-back sweeps (gs_wavefront_pass's
    /// argument). The chains at one (n, pair) position share its rates,
    /// and their updates are independent, so they overlap. The group's
    /// last sweep adds the iterate to *final_sum in index order. `lane`
    /// keeps the leading chain as far behind the previous group's trailing
    /// chain, and publishes the levels this group's trailing chain finished.
    template <index_type T>
    static void wavefront_pass(const GprsGenerator& g, double* x, double* final_sum,
                               const ctmc::detail::GroupLane& lane) {
        static constexpr std::array steps{&sweep<1>, &sweep<2>, &sweep<3>, &sweep<4>};
        const index_type K = g.space_.buffer_capacity();
        for (index_type lead = 0; lead <= K + 2 * (T - 1); ++lead) {
            if (lead <= K) {
                lane.wait_for(static_cast<int>(std::min(lead + 2, K + 1)),
                              static_cast<int>(K + 1));
            }
            // Chains first..last are at a level lead - 2t within [0, K].
            const index_type first = std::max<index_type>(0, (lead - K + 1) / 2);
            const index_type last = std::min<index_type>(T - 1, lead / 2);
            for (index_type n = 0; n <= g.space_.gsm_channels(); ++n) {
                steps[static_cast<std::size_t>(last - first)](
                    g, x, lead, first, n, last == T - 1 ? final_sum : nullptr);
            }
            if (lead >= 2 * (T - 1)) {
                lane.finished(static_cast<int>(lead - 2 * (T - 1) + 1));
            }
        }
    }
};

GprsGenerator::GprsGenerator(Parameters parameters, ModelRates rates)
    : parameters_(std::move(parameters)),
      rates_(rates),
      space_(parameters_.buffer_capacity, parameters_.gsm_channels(),
             parameters_.max_gprs_sessions),
      pairs_count_(space_.session_pair_count()),
      level_((static_cast<index_type>(space_.gsm_channels()) + 1) * pairs_count_) {
    parameters_.validate();
    // The rates are the ones core::for_each_incoming emits for (0, 0, m, r),
    // filed by predecessor (m-1, r-1), (m-1, r), (m, r-1), (m, r+1),
    // (m+1, r), (m+1, r+1). At k = 0 no source is throttled, so
    // offered_packet_rate is the full (m - r) lambda_packet.
    pairs_.resize(static_cast<std::size_t>(pairs_count_));
    for (int m = 0; m <= space_.max_gprs_sessions(); ++m) {
        for (int r = 0; r <= m; ++r) {
            const State s{0, 0, m, r};
            const index_type i = space_.index_of(s);
            Pair& q = pairs_[static_cast<std::size_t>(i)];
            q.offered = offered_packet_rate(parameters_, rates_, s);
            core::for_each_incoming(parameters_, rates_, s, [&](const State& pred, double rate) {
                if (pred.buffer == 0 && pred.gsm_calls == 0) {
                    const int dm = pred.gprs_sessions - m;
                    const int t = 2 * (dm + 1) + (pred.off_sessions > r + std::min(dm, 0));
                    q.rate[t] = rate;
                    q.offset[t] = static_cast<int>(space_.index_of(pred) - i);
                }
            });
        }
    }
    diag_.resize(static_cast<std::size_t>(space_.size()));
    space_.for_each([&](const State& s, index_type i) {
        diag_[static_cast<std::size_t>(i)] = -total_exit_rate(parameters_, rates_, s);
    });
}

GprsGenerator::BlockRates GprsGenerator::block_rates(index_type k, index_type n) const {
    const auto service_at = [&](index_type level) {
        return service_rate_in(parameters_, rates_,
                               State{static_cast<int>(level), static_cast<int>(n), 0, 0});
    };
    BlockRates b;
    if (k > 0) {
        b.arrival_cap = k - 1 <= parameters_.flow_control_onset()
                            ? std::numeric_limits<double>::infinity()
                            : service_at(k - 1);
    }
    if (n > 0) {
        b.gsm_arrival = rates_.gsm_arrival;
    }
    if (n < space_.gsm_channels()) {
        b.gsm_departure = static_cast<double>(n + 1) * rates_.gsm_departure;
    }
    if (k < space_.buffer_capacity()) {
        b.service = service_at(k + 1);
    }
    return b;
}

double GprsGenerator::gauss_seidel_sweeps(double* x, index_type count, bool want_sum,
                                          bool team) const {
    return ctmc::detail::grouped_sweeps(
        count, want_sum, true, team,
        [&](auto group, double* sum, const ctmc::detail::GroupLane& lane) {
            Kernel::wavefront_pass<decltype(group)::value>(*this, x, sum, lane);
        });
}

double GprsGenerator::fused_normalize_residual(double* x, double sum,
                                               double uniformization_rate) const {
    // A row reads at most one level ahead of itself.
    return ctmc::detail::lagged_normalize_residual(
        x, size(), level_, sum, uniformization_rate,
        [&](index_type begin, index_type end) { return max_residual(x, begin, end); });
}

double GprsGenerator::max_residual(const double* x, index_type begin, index_type end) const {
    // One (k, n) block at a time: its chain and GSM terms are decoded once.
    double worst = 0.0;
    for (index_type i = begin; i < end;) {
        const index_type k = i / level_;
        const index_type n = (i - k * level_) / pairs_count_;
        const Kernel::Chain c = Kernel::chain(*this, k, n);
        const Kernel::Gsm s = Kernel::gsm(*this, n);
        for (const index_type block_end = std::min(c.at + pairs_count_, end); i < block_end;
             ++i) {
            const double acc = Kernel::add_incoming(diagonal(i) * x[i],
                                                    pairs_[static_cast<std::size_t>(i - c.at)],
                                                    s, c, x + i);
            worst = std::max(worst, std::fabs(acc));
        }
    }
    return worst;
}

ctmc::QtMatrix GprsGenerator::to_qt_matrix() const {
    const common::index_type n = space_.size();

    // Rows of Q^T are exactly the incoming-transition lists, so the CSR can
    // be emitted row by row in index order with no staging triplets. The
    // inverse events of Table 1 never produce duplicate (pred, state) pairs,
    // which the per-row sort below would otherwise have to merge.
    std::vector<common::index_type> row_ptr;
    row_ptr.reserve(static_cast<std::size_t>(n) + 1);
    std::vector<ctmc::col_type> cols;
    std::vector<double> values;
    cols.reserve(static_cast<std::size_t>(n) * 10);
    values.reserve(static_cast<std::size_t>(n) * 10);
    std::vector<double> diag(static_cast<std::size_t>(n));

    row_ptr.push_back(0);
    std::vector<std::pair<common::index_type, double>> row;
    space_.for_each([&](const State& s, common::index_type i) {
        row.clear();
        core::for_each_incoming(parameters_, rates_, s,
                                [&](const State& pred, double rate) {
                                    row.emplace_back(space_.index_of(pred), rate);
                                });
        std::sort(row.begin(), row.end());
        for (const auto& [col, rate] : row) {
            cols.push_back(static_cast<ctmc::col_type>(col));
            values.push_back(rate);
        }
        row_ptr.push_back(static_cast<common::index_type>(cols.size()));
        diag[static_cast<std::size_t>(i)] = -total_exit_rate(parameters_, rates_, s);
    });

    ctmc::SparseMatrix off = ctmc::SparseMatrix::from_csr(
        n, n, std::move(row_ptr), std::move(cols), std::move(values));
    return ctmc::QtMatrix(std::move(off), std::move(diag));
}

ctmc::SparseMatrix GprsGenerator::to_generator_matrix() const {
    std::vector<ctmc::Triplet> triplets;
    space_.for_each([&](const State& s, common::index_type i) {
        double exit = 0.0;
        core::for_each_outgoing(parameters_, rates_, s,
                                [&](const State& succ, double rate) {
                                    triplets.push_back({i, space_.index_of(succ), rate});
                                    exit += rate;
                                });
        triplets.push_back({i, i, -exit});
    });
    return ctmc::SparseMatrix::from_triplets(space_.size(), space_.size(),
                                             std::move(triplets));
}

}  // namespace gprsim::core
