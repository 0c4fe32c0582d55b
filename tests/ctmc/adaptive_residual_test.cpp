// Adaptive residual-check scheduling tests. The checkpoint schedule
// (normalization every check_interval sweeps) is FIXED whether or not
// adaptive checks are on — only the residual evaluation is skipped at
// checkpoints the convergence-rate extrapolation deems hopeless. The
// contract is therefore strong: the returned distribution, iteration count
// and final residual are bitwise identical with adaptive checks on or off;
// only result.residual_evaluations shrinks. A second family pins the
// pipelined QtMatrix fast path against the generic matrix-free kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "ctmc/engine.hpp"

namespace gprsim::ctmc {
namespace {

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

/// Matrix-free view over a QtMatrix: same data, different static type, so
/// the engine takes the generic operator kernels instead of the pipelined
/// CSR fast path.
struct MatrixFreeView {
    const QtMatrix* qt;

    index_type size() const { return qt->size(); }
    double diagonal(index_type i) const { return qt->diagonal(i); }
    template <typename F>
    void for_each_incoming(index_type i, F&& f) const {
        const auto cols = qt->off_diagonal().row_cols(i);
        const auto vals = qt->off_diagonal().row_values(i);
        for (std::size_t p = 0; p < cols.size(); ++p) {
            f(static_cast<index_type>(cols[p]), vals[p]);
        }
    }
};

class AdaptiveResidualMethods : public ::testing::TestWithParam<SolveMethod> {};

TEST_P(AdaptiveResidualMethods, BitwiseEqualToFixedScheduleWithFewerChecks) {
    SolverEngine engine;
    const index_type n = 250;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 2024));

    SolveOptions fixed;
    fixed.method = GetParam();
    fixed.tolerance = 1e-13;
    fixed.max_iterations = 500000;
    fixed.check_interval = 2;  // small interval => many skippable checkpoints
    fixed.adaptive_checks = false;
    const SolveResult dense = engine.solve(qt, fixed);
    ASSERT_TRUE(dense.converged);

    SolveOptions adaptive = fixed;
    adaptive.adaptive_checks = true;
    const SolveResult sparse = engine.solve(qt, adaptive);
    ASSERT_TRUE(sparse.converged);

    // Same trajectory, same stopping sweep, same answer — bitwise.
    EXPECT_EQ(sparse.iterations, dense.iterations);
    EXPECT_EQ(sparse.residual, dense.residual);
    EXPECT_EQ(sparse.distribution, dense.distribution);
    // ... reached with strictly fewer residual evaluations.
    EXPECT_LT(sparse.residual_evaluations, dense.residual_evaluations);
    EXPECT_GE(sparse.residual_evaluations, 1);
}

INSTANTIATE_TEST_SUITE_P(Engine, AdaptiveResidualMethods,
                         ::testing::Values(SolveMethod::gauss_seidel,
                                           SolveMethod::red_black_gauss_seidel),
                         [](const auto& info) { return method_name(info.param); });

TEST(AdaptiveResidual, FixedScheduleCountsOneResidualPerCheckpoint) {
    SolverEngine engine;
    const index_type n = 120;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 17));

    SolveOptions options;
    options.tolerance = 1e-12;
    options.check_interval = 5;
    options.adaptive_checks = false;
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    // One residual pass per visited checkpoint: ceil(iterations / interval).
    const long long checkpoints = (result.iterations + 4) / 5;
    EXPECT_EQ(result.residual_evaluations, checkpoints);
}

TEST(AdaptiveResidual, ProgressFiresOnlyAtResidualCheckpoints) {
    SolverEngine engine;
    const index_type n = 120;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 29));

    SolveOptions options;
    options.tolerance = 1e-13;
    options.check_interval = 2;
    long long calls = 0;
    options.progress = [&](index_type, double) { ++calls; };
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(calls, result.residual_evaluations);
}

TEST(AdaptiveResidual, RejectsNonPositiveCheckInterval) {
    SolverEngine engine;
    const QtMatrix qt = qt_from_triplets(10, random_chain(10, 3));
    SolveOptions options;
    options.check_interval = 0;
    EXPECT_THROW(engine.solve(qt, options), std::invalid_argument);
}

TEST(AdaptiveResidual, MaxIterationsCheckpointAlwaysEvaluates) {
    // A hopeless tolerance: the extrapolation wants to skip far ahead, but
    // the run must still report a residual for the sweep it stopped at.
    SolverEngine engine;
    const index_type n = 80;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 31));
    SolveOptions options;
    options.tolerance = 1e-300;
    options.max_iterations = 47;  // not a multiple of the interval
    options.check_interval = 10;
    const SolveResult result = engine.solve(qt, options);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 47);
    EXPECT_GT(result.residual, 0.0);
    EXPECT_GE(result.residual_evaluations, 1);
}

TEST(AdaptiveResidual, PipelinedFastPathMatchesGenericKernelBitwise) {
    // The wavefront-pipelined CSR sweeps and the fused normalize+residual
    // pass are pure layout optimizations: solving through the matrix-free
    // view (generic kernels, separate normalize/residual passes) must give
    // the identical trajectory.
    SolverEngine engine;
    const index_type n = 300;
    const QtMatrix qt = qt_from_triplets(n, random_chain(n, 4711));

    for (const bool adaptive : {false, true}) {
        SolveOptions options;
        options.tolerance = 1e-13;
        options.max_iterations = 500000;
        options.adaptive_checks = adaptive;
        const SolveResult fast = engine.solve(qt, options);
        const SolveResult generic = engine.solve(MatrixFreeView{&qt}, options);
        ASSERT_TRUE(fast.converged);
        ASSERT_TRUE(generic.converged);
        EXPECT_EQ(fast.iterations, generic.iterations);
        EXPECT_EQ(fast.residual, generic.residual);
        EXPECT_EQ(fast.residual_evaluations, generic.residual_evaluations);
        EXPECT_EQ(fast.distribution, generic.distribution);
    }
}

}  // namespace
}  // namespace gprsim::ctmc
