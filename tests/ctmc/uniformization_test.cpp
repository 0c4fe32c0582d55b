#include "ctmc/uniformization.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ctmc/engine.hpp"

namespace gprsim::ctmc {
namespace {

QtMatrix two_state_chain(double a, double b) {
    return build_qt_matrix(2, [=](index_type i, auto&& emit) {
        if (i == 0) {
            emit(1, a);
        } else {
            emit(0, b);
        }
    });
}

TEST(Uniformization, TimeZeroReturnsInitial) {
    const QtMatrix qt = two_state_chain(1.0, 2.0);
    const std::vector<double> initial{1.0, 0.0};
    const std::vector<double> pi = transient_distribution(qt, initial, 0.0);
    EXPECT_DOUBLE_EQ(pi[0], 1.0);
    EXPECT_DOUBLE_EQ(pi[1], 0.0);
}

TEST(Uniformization, TwoStateChainMatchesAnalyticSolution) {
    // For a 2-state chain, p_01(t) = a/(a+b) (1 - e^{-(a+b)t}).
    const double a = 1.5;
    const double b = 0.5;
    const QtMatrix qt = two_state_chain(a, b);
    const std::vector<double> initial{1.0, 0.0};
    for (double t : {0.1, 0.5, 1.0, 3.0}) {
        const std::vector<double> pi = transient_distribution(qt, initial, t);
        const double expected1 = a / (a + b) * (1.0 - std::exp(-(a + b) * t));
        EXPECT_NEAR(pi[1], expected1, 1e-9) << "t = " << t;
        EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
    }
}

TEST(Uniformization, ConvergesToSteadyState) {
    const QtMatrix qt = two_state_chain(2.0, 3.0);
    const std::vector<double> initial{0.0, 1.0};
    const std::vector<double> pi = transient_distribution(qt, initial, 100.0);
    const SolveResult steady = default_engine().solve(qt);
    EXPECT_NEAR(pi[0], steady.distribution[0], 1e-8);
    EXPECT_NEAR(pi[1], steady.distribution[1], 1e-8);
}

TEST(Uniformization, RejectsBadInputs) {
    const QtMatrix qt = two_state_chain(1.0, 1.0);
    EXPECT_THROW(transient_distribution(qt, std::vector<double>{1.0}, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(transient_distribution(qt, std::vector<double>{1.0, 0.0}, -1.0),
                 std::invalid_argument);
}

}  // namespace
}  // namespace gprsim::ctmc
