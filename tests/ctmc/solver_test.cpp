#include "ctmc/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ctmc/gth.hpp"

namespace gprsim::ctmc {
namespace {

/// Random irreducible generator: a ring backbone (guarantees irreducibility)
/// plus random extra transitions.
std::vector<Triplet> random_chain(index_type n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> rate(0.1, 10.0);
    std::uniform_int_distribution<index_type> pick(0, n - 1);
    std::vector<Triplet> triplets;
    for (index_type i = 0; i < n; ++i) {
        triplets.push_back({i, (i + 1) % n, rate(rng)});
    }
    for (index_type e = 0; e < 3 * n; ++e) {
        const index_type i = pick(rng);
        const index_type j = pick(rng);
        if (i != j) {
            triplets.push_back({i, j, rate(rng)});
        }
    }
    return triplets;
}

QtMatrix qt_from_triplets(index_type n, const std::vector<Triplet>& triplets) {
    return build_qt_matrix(n, [&](index_type i, auto&& emit) {
        for (const Triplet& t : triplets) {
            if (t.row == i) {
                emit(t.col, t.value);
            }
        }
    });
}

SparseMatrix generator_from_triplets(index_type n, std::vector<Triplet> triplets) {
    std::vector<double> exit(static_cast<std::size_t>(n), 0.0);
    for (const Triplet& t : triplets) {
        exit[static_cast<std::size_t>(t.row)] += t.value;
    }
    for (index_type i = 0; i < n; ++i) {
        triplets.push_back({i, i, -exit[static_cast<std::size_t>(i)]});
    }
    return SparseMatrix::from_triplets(n, n, std::move(triplets));
}

class SolverMethods : public ::testing::TestWithParam<SolveMethod> {};

TEST_P(SolverMethods, MatchesGthOnRandomChains) {
    for (std::uint64_t seed : {7u, 13u, 99u}) {
        const index_type n = 40;
        const std::vector<Triplet> triplets = random_chain(n, seed);
        const std::vector<double> exact = solve_gth(generator_from_triplets(n, triplets));

        const QtMatrix qt = qt_from_triplets(n, triplets);
        SolveOptions options;
        options.method = GetParam();
        options.tolerance = 1e-13;
        options.max_iterations = 500000;
        const SolveResult result = solve_steady_state(qt, options);
        ASSERT_TRUE(result.converged) << "seed " << seed;
        for (index_type i = 0; i < n; ++i) {
            EXPECT_NEAR(result.distribution[static_cast<std::size_t>(i)],
                        exact[static_cast<std::size_t>(i)], 1e-9)
                << "state " << i << " seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SolverMethods,
                         ::testing::Values(SolveMethod::gauss_seidel),
                         [](const auto& info) { return method_name(info.param); });

TEST(Solver, TwoStateChainExact) {
    const QtMatrix qt = build_qt_matrix(2, [](index_type i, auto&& emit) {
        if (i == 0) {
            emit(1, 2.0);
        } else {
            emit(0, 3.0);
        }
    });
    const SolveResult result = solve_steady_state(qt);
    ASSERT_TRUE(result.converged);
    EXPECT_NEAR(result.distribution[0], 0.6, 1e-10);
    EXPECT_NEAR(result.distribution[1], 0.4, 1e-10);
}

TEST(Solver, WarmStartReducesIterations) {
    const index_type n = 60;
    const std::vector<Triplet> triplets = random_chain(n, 5);
    const QtMatrix qt = qt_from_triplets(n, triplets);

    SolveOptions cold;
    cold.tolerance = 1e-13;
    const SolveResult first = solve_steady_state(qt, cold);
    ASSERT_TRUE(first.converged);

    SolveOptions warm = cold;
    warm.initial = first.distribution;
    const SolveResult second = solve_steady_state(qt, warm);
    ASSERT_TRUE(second.converged);
    EXPECT_LT(second.iterations, first.iterations);
}

TEST(Solver, ReportsNonConvergenceInsteadOfThrowing) {
    const std::vector<Triplet> triplets = random_chain(50, 3);
    const QtMatrix qt = qt_from_triplets(50, triplets);
    SolveOptions options;
    options.tolerance = 1e-16;  // unreachable
    options.max_iterations = 3;
    const SolveResult result = solve_steady_state(qt, options);
    EXPECT_FALSE(result.converged);
    EXPECT_GT(result.residual, 0.0);
}

TEST(Solver, RejectsBadInputs) {
    const QtMatrix qt = build_qt_matrix(2, [](index_type i, auto&& emit) {
        emit(1 - i, 1.0);
    });
    SolveOptions options;
    options.initial = {1.0};  // wrong size
    EXPECT_THROW(solve_steady_state(qt, options), std::invalid_argument);
}

TEST(Solver, ProgressCallbackIsInvoked) {
    const std::vector<Triplet> triplets = random_chain(30, 11);
    const QtMatrix qt = qt_from_triplets(30, triplets);
    int calls = 0;
    SolveOptions options;
    options.progress = [&](index_type, double) { ++calls; };
    const SolveResult result = solve_steady_state(qt, options);
    ASSERT_TRUE(result.converged);
    EXPECT_GT(calls, 0);
}

}  // namespace
}  // namespace gprsim::ctmc
