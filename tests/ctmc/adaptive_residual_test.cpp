// Adaptive residual-check scheduling tests. A solve sweeps straight
// through from one residual checkpoint to the next and normalizes the
// iterate only there; the convergence-rate extrapolation picks the
// checkpoints (multiples of kCheckInterval, plus max_iterations). The
// contract is therefore strong: replaying the checkpoints a solve reports
// with the generic kernels (sweeps, then normalize and residual at each)
// gives its distribution, iteration count, residual and residual count bit
// for bit. A second family pins the pipelined QtMatrix fast path against
// the generic matrix-free kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
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

/// A slowly mixing chain: a random birth-death path closed by one weak
/// edge, plus n / 10 random shortcuts. Gauss-Seidel needs hundreds of
/// sweeps on it, so the checkpoint schedule skips ahead by several
/// intervals.
std::vector<Triplet> slow_chain(index_type n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> rate(0.5, 1.5);
    std::uniform_int_distribution<index_type> pick(0, n - 1);
    std::vector<Triplet> triplets;
    for (index_type i = 0; i + 1 < n; ++i) {
        triplets.push_back({i, i + 1, rate(rng)});
        triplets.push_back({i + 1, i, rate(rng)});
    }
    triplets.push_back({n - 1, 0, 0.01});
    for (index_type e = 0; e < n / 10; ++e) {
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

TEST(AdaptiveResidual, NormalizesOnlyAtResidualCheckpoints) {
    SolverEngine engine;
    const index_type n = 50;
    const QtMatrix qt = qt_from_triplets(n, slow_chain(n, 2024));
    const double lambda = detail::max_exit_rate(qt);

    const auto solve_and_replay = [&](const auto& op) {
        SolveOptions options;
        options.tolerance = 1e-13;
        options.max_iterations = 500000;
        std::vector<index_type> checkpoints;
        options.progress = [&](index_type sweep, double) { checkpoints.push_back(sweep); };
        const SolveResult solved = engine.solve(op, options);
        ASSERT_TRUE(solved.converged);
        // The schedule skipped ahead, so some runs span several intervals.
        ASSERT_LT(static_cast<index_type>(checkpoints.size()),
                  solved.iterations / kCheckInterval);

        // Generic sweeps between checkpoints; normalize and residual at each.
        std::vector<double> x(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
        index_type sweep = 0;
        double residual = 0.0;
        for (const index_type checkpoint : checkpoints) {
            for (; sweep < checkpoint; ++sweep) {
                detail::gauss_seidel_forward(qt, x);
            }
            detail::normalize(x);
            residual = detail::scaled_residual(qt, x, lambda);
        }
        EXPECT_EQ(solved.iterations, sweep);
        EXPECT_EQ(solved.residual, residual);
        EXPECT_EQ(solved.residual_evaluations, static_cast<index_type>(checkpoints.size()));
        EXPECT_EQ(solved.distribution, x);
    };
    {
        SCOPED_TRACE("pipelined CSR");
        solve_and_replay(qt);
    }
    {
        SCOPED_TRACE("generic kernels");
        solve_and_replay(MatrixFreeView{&qt});
    }
}

TEST(AdaptiveResidual, ProgressFiresOnlyAtResidualCheckpoints) {
    SolverEngine engine;
    const index_type n = 30;
    const QtMatrix qt = qt_from_triplets(n, slow_chain(n, 29));

    SolveOptions options;
    options.tolerance = 1e-13;
    long long calls = 0;
    options.progress = [&](index_type, double) { ++calls; };
    const SolveResult result = engine.solve(qt, options);
    ASSERT_TRUE(result.converged);
    EXPECT_EQ(calls, result.residual_evaluations);
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

    SolveOptions options;
    options.tolerance = 1e-13;
    options.max_iterations = 500000;
    const SolveResult fast = engine.solve(qt, options);
    const SolveResult generic = engine.solve(MatrixFreeView{&qt}, options);
    ASSERT_TRUE(fast.converged);
    ASSERT_TRUE(generic.converged);
    EXPECT_EQ(fast.iterations, generic.iterations);
    EXPECT_EQ(fast.residual, generic.residual);
    EXPECT_EQ(fast.residual_evaluations, generic.residual_evaluations);
    EXPECT_EQ(fast.distribution, generic.distribution);
}

}  // namespace
}  // namespace gprsim::ctmc
