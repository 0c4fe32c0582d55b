// SolverEngine tests: the serial solve against the free-function facade,
// warm-start candidates and the candidate rule on its own (choose_start),
// moved-in starts, the pool, degenerate inputs, the method spellings,
// and that a width above one leaves an operator without a team pass (the
// CSR) on the calling thread, bitwise the serial solve. The stencil's team
// is tested in tests/core/generator_test.cpp, the crew in
// tests/common/crew_test.cpp.
#include "ctmc/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

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

/// The CSR without its pipelined pass: the engine's generic kernels.
struct GenericView {
    const QtMatrix* qt;

    index_type size() const { return qt->size(); }
    double diagonal(index_type i) const { return qt->diagonal(i); }
    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        qt->for_each_incoming(i, std::forward<F>(f));
    }
};

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

TEST(SolverEngine, MovedInStartsMatchCopiedInStartsBitwise) {
    // The engine iterates in the start it is given: a moved-in start or
    // candidate set solves exactly like a copied-in one, and an lvalue's
    // vectors are left to the caller.
    SolverEngine engine;
    const index_type n = 50;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 11));
    std::vector<double> start(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < start.size(); ++i) {
        start[i] = 1.0 + static_cast<double>(i % 7);
    }
    const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);

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

    SolveOptions candidates;
    candidates.tolerance = 1e-12;
    candidates.candidate_margin = 0.5;
    candidates.initial_candidates = {uniform, start};
    const SolveResult chosen_copy = engine.solve(qt, candidates);
    EXPECT_EQ(candidates.initial_candidates[1], start);
    SolveOptions moved_candidates = candidates;
    const SolveResult chosen_move = engine.solve(qt, std::move(moved_candidates));
    EXPECT_EQ(chosen_move.initial_selected, chosen_copy.initial_selected);
    EXPECT_EQ(chosen_move.distribution, chosen_copy.distribution);
    EXPECT_EQ(chosen_move.iterations, chosen_copy.iterations);
    EXPECT_EQ(chosen_move.residual, chosen_copy.residual);
}

TEST(SolverEngine, CandidateRuleAgreesWithTheSolveAndPreparesLikeAPlainStart) {
    // choose_start is the rule a solve with initial_candidates applies: it
    // names the same winner for every order and margin. A winning candidate
    // is prepared by the same steps as a plain start, so a solve from the
    // winner alone is the candidate solve bit for bit, on the pipelined
    // (fused-residual) operator and on the generic one alike.
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
    const std::vector<double> uniform(static_cast<std::size_t>(n), 1.0);

    const std::vector<std::vector<std::vector<double>>> sets = {
        {uniform, near}, {near, uniform}, {uniform, uniform}, {near, reference.distribution}};
    const auto check = [&](const auto& op, const char* path) {
        for (const double margin : {1.0, 0.5, 0.01}) {
            for (std::size_t k = 0; k < sets.size(); ++k) {
                SolveOptions options;
                options.tolerance = 1e-12;
                options.candidate_margin = margin;
                options.initial_candidates = sets[k];
                const SolveResult solved = engine.solve(op, options);
                std::vector<std::vector<double>> prepared = sets[k];
                const int chosen = choose_start(op, std::span(prepared), margin);
                EXPECT_EQ(chosen, solved.initial_selected)
                    << path << " margin " << margin << " set " << k;

                SolveOptions plain;
                plain.tolerance = 1e-12;
                plain.initial = std::vector<double>(sets[k][static_cast<std::size_t>(chosen)]);
                const SolveResult alone = engine.solve(op, plain);
                EXPECT_EQ(alone.distribution, solved.distribution) << path << " " << k;
                EXPECT_EQ(alone.iterations, solved.iterations) << path << " " << k;
                EXPECT_EQ(alone.residual, solved.residual) << path << " " << k;
                // Sweeps damp a last-bit difference of the start away; one
                // sweep still shows it.
                plain.max_iterations = 1;
                options.max_iterations = 1;
                options.initial_candidates = sets[k];
                EXPECT_EQ(engine.solve(op, plain).distribution,
                          engine.solve(op, options).distribution)
                    << path << " one sweep, set " << k;
            }
        }
    };
    check(qt, "pipelined");
    check(GenericView{&qt}, "generic");

    // Sizes and the margin are validated like the solve's.
    std::vector<std::vector<double>> missized = {std::vector<double>(7, 0.1)};
    EXPECT_THROW(choose_start(qt, std::span(missized), 0.5), std::invalid_argument);
    std::vector<std::vector<double>> one = {uniform};
    EXPECT_THROW(choose_start(qt, std::span(one), 0.0), std::invalid_argument);
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
