// SolverEngine tests: moved-in starts, prepare_start against the solve's
// own preparation of its start, the pool, degenerate inputs, the method
// spellings, and that a width above one leaves an operator without a
// pipelined pass (the CSR) on the calling thread, bitwise the serial solve.
// The stencil's pass and team are tested in tests/core/generator_test.cpp,
// the crew in tests/common/crew_test.cpp.
#include "ctmc/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

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

TEST(SolverEngine, CsrSolveStaysOnTheCallingThreadAtAnyWidth) {
    SolverEngine engine;
    const index_type n = 60;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 3));

    SolveOptions options;
    options.tolerance = 1e-12;
    const SolveResult serial = engine.solve(qt, options);
    ASSERT_TRUE(serial.converged);
    EXPECT_EQ(serial.threads_used, 1);

    options.num_threads = 4;
    const SolveResult wide = engine.solve(qt, options);
    EXPECT_EQ(wide.threads_used, 1);
    EXPECT_EQ(wide.iterations, serial.iterations);
    EXPECT_EQ(wide.distribution, serial.distribution);
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

TEST(SolverEngine, MovedInStartsMatchCopiedInStartsBitwise) {
    // The engine iterates in the start it is given: a moved-in start
    // solves exactly like a copied-in one, and an lvalue's vector is left
    // to the caller.
    SolverEngine engine;
    const index_type n = 50;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 11));
    std::vector<double> start(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < start.size(); ++i) {
        start[i] = 1.0 + static_cast<double>(i % 7);
    }

    SolveOptions copied;
    copied.tolerance = 1e-12;
    copied.initial = start;
    const SolveResult from_copy = engine.solve(qt, copied);
    EXPECT_EQ(copied.initial, start);
    SolveOptions moved = copied;
    const SolveResult from_move = engine.solve(qt, std::move(moved));
    ASSERT_TRUE(from_copy.converged);
    EXPECT_EQ(from_move.distribution, from_copy.distribution);
    EXPECT_EQ(from_move.iterations, from_copy.iterations);
    EXPECT_EQ(from_move.residual, from_copy.residual);
}

TEST(SolverEngine, PrepareStartLeavesTheVectorASolveIteratesFrom) {
    // prepare_start prepares a start exactly as a solve prepares
    // SolveOptions::initial and returns the prepared vector's scaled
    // residual. So a caller that ranks prepared copies and hands the raw
    // winner to the solve iterates from the vector it ranked: one sweep
    // from the raw start is one sweep from the prepared copy. (The
    // stencil's fused division is checked against this in
    // GeneratorStencil.WarmStartCandidatesMatchCsr.)
    SolverEngine engine;
    const index_type n = 60;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 5));
    SolveOptions cold;
    cold.tolerance = 1e-12;
    const SolveResult reference = engine.solve(qt, cold);
    std::vector<double> near = reference.distribution;
    for (std::size_t i = 0; i < near.size(); ++i) {
        near[i] *= 1.0 + 0.01 * static_cast<double>(i % 3);
    }
    std::vector<double> clamped = near;
    clamped[7] = -clamped[7];  // a negative entry is clamped to zero
    const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);
    const double lambda = detail::max_exit_rate(qt);

    for (const std::vector<double>& raw : {uniform, near, clamped, reference.distribution}) {
        std::vector<double> prepared = raw;
        const double residual = prepare_start(qt, prepared);
        std::vector<double> expected = raw;
        for (double& v : expected) {
            v = std::max(v, 0.0);
        }
        detail::normalize(expected);
        EXPECT_EQ(prepared, expected);
        EXPECT_EQ(residual, detail::scaled_residual(qt, expected, lambda));

        SolveOptions one_sweep;
        one_sweep.max_iterations = 1;
        one_sweep.initial = raw;
        detail::gauss_seidel_forward(qt, prepared);
        detail::normalize(prepared);
        EXPECT_EQ(engine.solve(qt, one_sweep).distribution, prepared);
    }

    std::vector<double> missized(7, 0.1);
    EXPECT_THROW(prepare_start(qt, missized), std::invalid_argument);
}

TEST(MethodNames, RoundTripThroughTheStringMapping) {
    const auto parsed = method_from_name(method_name(SolveMethod::gauss_seidel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, SolveMethod::gauss_seidel);
    // "auto", the eval layer's default spelling, is the same method.
    EXPECT_EQ(method_from_name("auto"), SolveMethod::gauss_seidel);
    EXPECT_FALSE(method_from_name("bogus").has_value());
    EXPECT_FALSE(method_from_name("").has_value());
    // The deleted schemes are unknown spellings now.
    for (const char* removed : {"jacobi", "sor", "symmetric_gauss_seidel", "power",
                                "red_black_gauss_seidel"}) {
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
