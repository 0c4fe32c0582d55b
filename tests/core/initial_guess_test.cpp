#include "core/initial_guess.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/generator.hpp"
#include "core/model.hpp"
#include "queueing/erlang.hpp"

namespace gprsim::core {
namespace {

Parameters guess_config() {
    Parameters p = Parameters::base();
    p.total_channels = 5;
    p.reserved_pdch = 1;
    p.buffer_capacity = 8;
    p.max_gprs_sessions = 4;
    p.call_arrival_rate = 0.4;
    p.gprs_fraction = 0.3;
    p.traffic.mean_reading_time = 6.0;
    p.traffic.mean_packet_calls = 4.0;
    p.traffic.mean_packets_per_call = 8.0;
    p.traffic.mean_packet_interarrival = 0.3;
    return p;
}

TEST(ProductFormInitial, IsAProperDistribution) {
    const Parameters p = guess_config();
    const BalancedTraffic balanced = balance_handover(p);
    const StateSpace space(p.buffer_capacity, p.gsm_channels(), p.max_gprs_sessions);
    const std::vector<double> guess = product_form_initial(p, balanced, space);
    ASSERT_EQ(static_cast<common::index_type>(guess.size()), space.size());
    double sum = 0.0;
    for (double v : guess) {
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ProductFormInitial, MarginalsMatchClosedForms) {
    // The n and (m, r) marginals of the guess are exact by construction.
    const Parameters p = guess_config();
    const BalancedTraffic balanced = balance_handover(p);
    const StateSpace space(p.buffer_capacity, p.gsm_channels(), p.max_gprs_sessions);
    const std::vector<double> guess = product_form_initial(p, balanced, space);

    std::vector<double> marginal_n(static_cast<std::size_t>(p.gsm_channels()) + 1, 0.0);
    std::vector<double> marginal_m(static_cast<std::size_t>(p.max_gprs_sessions) + 1, 0.0);
    space.for_each([&](const State& s, common::index_type i) {
        marginal_n[static_cast<std::size_t>(s.gsm_calls)] += guess[static_cast<std::size_t>(i)];
        marginal_m[static_cast<std::size_t>(s.gprs_sessions)] +=
            guess[static_cast<std::size_t>(i)];
    });
    const std::vector<double> erlang_n =
        queueing::mmcc_distribution(balanced.gsm.offered_load, p.gsm_channels());
    const std::vector<double> erlang_m =
        queueing::mmcc_distribution(balanced.gprs.offered_load, p.max_gprs_sessions);
    for (std::size_t n = 0; n < erlang_n.size(); ++n) {
        EXPECT_NEAR(marginal_n[n], erlang_n[n], 1e-12);
    }
    for (std::size_t m = 0; m < erlang_m.size(); ++m) {
        EXPECT_NEAR(marginal_m[m], erlang_m[m], 1e-12);
    }
}

TEST(ProductFormInitial, CutsIterationsVsUniformStart) {
    const Parameters p = guess_config();
    const BalancedTraffic balanced = balance_handover(p);
    const GprsGenerator generator(p, balanced.rates);
    const ctmc::QtMatrix qt = generator.to_qt_matrix();

    ctmc::SolveOptions uniform;
    uniform.tolerance = 1e-11;
    const ctmc::SolveResult from_uniform = ctmc::default_engine().solve(qt, uniform);
    ASSERT_TRUE(from_uniform.converged);

    ctmc::SolveOptions warm = uniform;
    warm.initial = product_form_initial(p, balanced, generator.space());
    const ctmc::SolveResult from_guess = ctmc::default_engine().solve(qt, warm);
    ASSERT_TRUE(from_guess.converged);

    EXPECT_LT(from_guess.iterations, from_uniform.iterations);

    // Same fixed point either way (each solve carries ~5e-9 of residual
    // error, so their difference can reach ~1e-8).
    for (std::size_t i = 0; i < from_guess.distribution.size(); ++i) {
        EXPECT_NEAR(from_guess.distribution[i], from_uniform.distribution[i], 5e-8);
    }
}

TEST(ProductFormInitial, HandlesLargeSessionCountsWithoutUnderflow) {
    // m = 150 exercises the log-space binomial path (p_on^150 ~ 1e-230).
    Parameters p = Parameters::base();
    p.max_gprs_sessions = 150;
    p.buffer_capacity = 5;
    p.call_arrival_rate = 1.0;
    const BalancedTraffic balanced = balance_handover(p);
    const StateSpace space(p.buffer_capacity, p.gsm_channels(), p.max_gprs_sessions);
    const std::vector<double> guess = product_form_initial(p, balanced, space);
    double sum = 0.0;
    for (double v : guess) {
        ASSERT_GE(v, 0.0);
        ASSERT_FALSE(std::isnan(v));
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace gprsim::core
