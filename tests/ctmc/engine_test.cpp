// SolverEngine tests: the parallel methods must (a) agree with the serial
// GTH ground truth to 1e-10 and (b) produce bitwise identical distributions
// for every thread count — the blocked kernels make the result a pure
// function of the operator, never of the execution width.
#include "ctmc/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "ctmc/gth.hpp"
#include "ctmc/solver.hpp"

namespace gprsim::ctmc {
namespace {

/// Random irreducible generator: a ring backbone plus random extra
/// transitions (the gth_test/solver_test fixture family).
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

std::vector<double> gth_ground_truth(index_type n, std::vector<Triplet> triplets) {
    std::vector<double> exit(static_cast<std::size_t>(n), 0.0);
    for (const Triplet& t : triplets) {
        exit[static_cast<std::size_t>(t.row)] += t.value;
    }
    for (index_type i = 0; i < n; ++i) {
        triplets.push_back({i, i, -exit[static_cast<std::size_t>(i)]});
    }
    return solve_gth(SparseMatrix::from_triplets(n, n, std::move(triplets)));
}

class ParallelMethods : public ::testing::TestWithParam<SolveMethod> {};

TEST_P(ParallelMethods, MatchesGthGroundTruthTo1e10) {
    SolverEngine engine;
    for (std::uint64_t seed : {7u, 21u, 99u}) {
        const index_type n = 40;
        const std::vector<Triplet> triplets = random_chain(n, seed);
        const std::vector<double> exact = gth_ground_truth(n, triplets);
        const QtMatrix qt = qt_from_triplets(n, triplets);

        SolveOptions options;
        options.method = GetParam();
        options.tolerance = 1e-13;
        options.max_iterations = 500000;
        options.num_threads = 2;
        const SolveResult result = engine.solve(qt, options);
        ASSERT_TRUE(result.converged) << "seed " << seed;
        EXPECT_EQ(result.method_used, GetParam());
        for (index_type i = 0; i < n; ++i) {
            EXPECT_NEAR(result.distribution[static_cast<std::size_t>(i)],
                        exact[static_cast<std::size_t>(i)], 1e-10)
                << "state " << i << " seed " << seed;
        }
    }
}

TEST_P(ParallelMethods, BitwiseIdenticalAcrossThreadCounts) {
    SolverEngine engine;
    const index_type n = 173;  // odd and not a multiple of the block count
    const std::vector<Triplet> triplets = random_chain(n, 4242);
    const QtMatrix qt = qt_from_triplets(n, triplets);

    SolveOptions options;
    options.method = GetParam();
    options.tolerance = 1e-12;
    options.max_iterations = 500000;

    options.num_threads = 1;
    const SolveResult one = engine.solve(qt, options);
    ASSERT_TRUE(one.converged);
    for (int threads : {2, 8}) {
        options.num_threads = threads;
        const SolveResult wide = engine.solve(qt, options);
        ASSERT_TRUE(wide.converged) << threads << " threads";
        EXPECT_EQ(wide.iterations, one.iterations) << threads << " threads";
        for (index_type i = 0; i < n; ++i) {
            // Bitwise: the blocked kernels shard over a fixed partition, so
            // the arithmetic is identical for every execution width.
            EXPECT_EQ(wide.distribution[static_cast<std::size_t>(i)],
                      one.distribution[static_cast<std::size_t>(i)])
                << "state " << i << " at " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Engine, ParallelMethods,
                         ::testing::Values(SolveMethod::red_black_gauss_seidel),
                         [](const auto& info) { return method_name(info.param); });

TEST(SolverEngine, GaussSeidelUpgradesToRedBlackWhenParallel) {
    SolverEngine engine;
    const index_type n = 60;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 3));

    SolveOptions options;  // method defaults to gauss_seidel
    options.tolerance = 1e-12;
    options.num_threads = 4;
    const SolveResult parallel = engine.solve(qt, options);
    ASSERT_TRUE(parallel.converged);
    EXPECT_EQ(parallel.method_used, SolveMethod::red_black_gauss_seidel);
    EXPECT_EQ(parallel.threads_used, 4);

    options.num_threads = 1;
    const SolveResult serial = engine.solve(qt, options);
    EXPECT_EQ(serial.method_used, SolveMethod::gauss_seidel);
    EXPECT_EQ(serial.threads_used, 1);
}

TEST(SolverEngine, SerialPathMatchesFreeFunctionBitwise) {
    // The solve_steady_state() facade routes through the default engine;
    // a private engine with num_threads = 1 must agree exactly.
    SolverEngine engine;
    const index_type n = 50;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 11));

    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult a = engine.solve(qt, options);
    const SolveResult b = solve_steady_state(qt, options);
    ASSERT_TRUE(a.converged);
    ASSERT_TRUE(b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    for (index_type i = 0; i < n; ++i) {
        EXPECT_EQ(a.distribution[static_cast<std::size_t>(i)],
                  b.distribution[static_cast<std::size_t>(i)]);
    }
}

TEST(SolverEngine, PoolGrowsButNeverShrinks) {
    SolverEngine engine;
    EXPECT_EQ(engine.pool(2).size(), 2);
    EXPECT_EQ(engine.pool(1).size(), 2);  // wide enough already
    EXPECT_EQ(engine.pool(6).size(), 6);
}

TEST(SolverEngine, ResolveThreadCount) {
    EXPECT_EQ(SolverEngine::resolve_thread_count(1), 1);
    EXPECT_EQ(SolverEngine::resolve_thread_count(5), 5);
    EXPECT_EQ(SolverEngine::resolve_thread_count(-3), 1);
    EXPECT_GE(SolverEngine::resolve_thread_count(0), 1);
}

TEST(SolverEngine, RejectsDegenerateInputsLikeTheSerialSolver) {
    SolverEngine engine;
    const QtMatrix empty;
    SolveOptions options;
    EXPECT_THROW(engine.solve(empty, options), std::invalid_argument);

    const QtMatrix qt = qt_from_triplets(10, random_chain(10, 1));
    options.initial.assign(7, 0.1);  // size mismatch
    EXPECT_THROW(engine.solve(qt, options), std::invalid_argument);
}

TEST(SolverEngine, InitialCandidatesPickTheLowestResidualStart) {
    // Candidate selection: offered the converged solution and the uniform
    // vector, the engine must start from the solution (index 0 reported)
    // and converge almost immediately; order flipped, it reports index 1.
    SolverEngine engine;
    const index_type n = 60;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 5));
    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult reference = engine.solve(qt, options);
    ASSERT_TRUE(reference.converged);

    const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);
    SolveOptions with_candidates;
    with_candidates.tolerance = 1e-12;
    with_candidates.initial_candidates = {reference.distribution, uniform};
    const SolveResult from_solution = engine.solve(qt, with_candidates);
    EXPECT_EQ(from_solution.initial_selected, 0);
    EXPECT_LE(from_solution.iterations, reference.iterations);

    with_candidates.initial_candidates = {uniform, reference.distribution};
    EXPECT_EQ(engine.solve(qt, with_candidates).initial_selected, 1);

    // The preference margin keeps near-ties at the earlier candidate: an
    // identical later candidate never displaces the incumbent, while a
    // decisively better one still does.
    with_candidates.candidate_margin = 0.5;
    with_candidates.initial_candidates = {uniform, uniform};
    EXPECT_EQ(engine.solve(qt, with_candidates).initial_selected, 0);
    with_candidates.initial_candidates = {uniform, reference.distribution};
    EXPECT_EQ(engine.solve(qt, with_candidates).initial_selected, 1);
    with_candidates.candidate_margin = 1.0;

    // No candidate list: the field stays -1.
    EXPECT_EQ(reference.initial_selected, -1);

    // Mutually exclusive with a plain initial; sizes are validated.
    SolveOptions conflicting;
    conflicting.initial = uniform;
    conflicting.initial_candidates = {uniform};
    EXPECT_THROW(engine.solve(qt, conflicting), std::invalid_argument);
    SolveOptions missized;
    missized.initial_candidates = {std::vector<double>(7, 0.1)};
    EXPECT_THROW(engine.solve(qt, missized), std::invalid_argument);
}

TEST(AutoSelect, SerialBudgetAlwaysPicksGaussSeidel) {
    for (index_type n : {100, 50000, 10000000}) {
        const AutoSelection pick = auto_select_method(n, 1);
        EXPECT_EQ(pick.method, SolveMethod::gauss_seidel) << n << " states";
        EXPECT_FALSE(pick.reason.empty());
    }
}

TEST(AutoSelect, SmallChainsStaySerialWhateverTheBudget) {
    for (int threads : {2, 4, 8, 64}) {
        const AutoSelection pick = auto_select_method(20000, threads);
        EXPECT_EQ(pick.method, SolveMethod::gauss_seidel) << threads << " threads";
    }
}

TEST(AutoSelect, WideBudgetOnLargeChainsPicksRedBlack) {
    // The cost model's crossover: the red-black per-sweep cost and its
    // sweep-count penalty amortize over the pool only past ~9 threads.
    EXPECT_EQ(auto_select_method(200000, 16).method,
              SolveMethod::red_black_gauss_seidel);
    EXPECT_EQ(auto_select_method(200000, 8).method, SolveMethod::gauss_seidel);
}

TEST(AutoSelect, DecisionAndReasonAreDeterministic) {
    for (int threads : {1, 8, 16}) {
        const AutoSelection a = auto_select_method(200000, threads);
        const AutoSelection b = auto_select_method(200000, threads);
        EXPECT_EQ(a.method, b.method);
        EXPECT_EQ(a.reason, b.reason);
    }
}

TEST(AutoSelect, SolveRecordsTheDecisionAndMatchesExplicitSerialBitwise) {
    SolverEngine engine;
    const index_type n = 120;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 9));

    SolveOptions explicit_gs;
    explicit_gs.tolerance = 1e-12;
    explicit_gs.method = SolveMethod::gauss_seidel;
    explicit_gs.num_threads = 1;
    const SolveResult reference = engine.solve(qt, explicit_gs);
    ASSERT_TRUE(reference.converged);
    EXPECT_TRUE(reference.reason.empty());

    SolveOptions auto_opts = explicit_gs;
    auto_opts.method = SolveMethod::auto_select;
    const SolveResult picked = engine.solve(qt, auto_opts);
    ASSERT_TRUE(picked.converged);
    EXPECT_EQ(picked.method_used, SolveMethod::gauss_seidel);
    EXPECT_FALSE(picked.reason.empty());
    EXPECT_EQ(picked.iterations, reference.iterations);
    EXPECT_EQ(picked.distribution, reference.distribution);
}

TEST(AutoSelect, AutoPickedSerialStaysSerialOnAWideEngine) {
    // auto_select's serial choice is deliberate: unlike an explicit
    // gauss_seidel request, it must NOT be upgraded to red-black when the
    // caller offers more threads (a small chain solves faster serially).
    SolverEngine engine;
    const index_type n = 90;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 13));
    SolveOptions options;
    options.tolerance = 1e-12;
    options.method = SolveMethod::auto_select;
    options.num_threads = 4;
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(result.method_used, SolveMethod::gauss_seidel);
    EXPECT_EQ(result.threads_used, 1);

    options.method = SolveMethod::gauss_seidel;
    const SolveResult upgraded = engine.solve(qt, options);
    EXPECT_EQ(upgraded.method_used, SolveMethod::red_black_gauss_seidel);
}

TEST(MethodNames, RoundTripThroughTheStringMapping) {
    for (SolveMethod m : {SolveMethod::gauss_seidel, SolveMethod::red_black_gauss_seidel,
                          SolveMethod::auto_select}) {
        const auto parsed = method_from_name(method_name(m));
        ASSERT_TRUE(parsed.has_value()) << method_name(m);
        EXPECT_EQ(*parsed, m);
    }
    EXPECT_EQ(method_name(SolveMethod::auto_select), std::string("auto"));
    EXPECT_FALSE(method_from_name("bogus").has_value());
    EXPECT_FALSE(method_from_name("").has_value());
    // The deleted schemes are unknown spellings now.
    for (const char* removed : {"jacobi", "sor", "symmetric_gauss_seidel", "power"}) {
        EXPECT_FALSE(method_from_name(removed).has_value()) << removed;
    }
}

TEST(SolverEngine, ConvergedResultSkipsRedundantRecomputation) {
    // After a converged check the residual must describe the returned
    // distribution: recomputing it from scratch gives the same value.
    SolverEngine engine;
    const index_type n = 40;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 77));
    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    const double lambda = detail::max_exit_rate(qt);
    EXPECT_EQ(result.residual, detail::scaled_residual(qt, result.distribution, lambda));
}

}  // namespace
}  // namespace gprsim::ctmc
