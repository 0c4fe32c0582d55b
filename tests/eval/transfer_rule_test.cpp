// The ctmc backend's warm-start transfer rule (eval::transfer_wins) and the
// one start it hands each dependent point: a near-tie keeps the product
// form, a decisively better transfer wins, and every point of a grid is a
// standalone solve from its winning raw start, on the generator's stencil
// and on its CSR reference alike.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/initial_guess.hpp"
#include "core/model.hpp"
#include "ctmc/engine.hpp"
#include "eval/backends.hpp"
#include "eval/registry.hpp"

namespace gprsim::eval {
namespace {

/// A 12,012-state cell whose five-point grid has transfers that win and
/// transfers that lose.
ScenarioQuery transfer_query() {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 10;
    query.parameters.gprs_fraction = 0.02;
    query.solver.tolerance = 1e-10;
    return query;
}

/// The elementwise ratio a parent hands its dependents: its distribution
/// over its own product form (0 where the product form is 0).
std::vector<double> deviation_of(const std::vector<double>& distribution,
                                 const std::vector<double>& product) {
    std::vector<double> deviation(product.size());
    for (std::size_t s = 0; s < deviation.size(); ++s) {
        deviation[s] = product[s] > 0.0 ? distribution[s] / product[s] : 0.0;
    }
    return deviation;
}

TEST(TransferRule, NearTieKeepsTheProductFormAndADecisiveTransferWins) {
    ScenarioQuery query = transfer_query();
    query.call_arrival_rate = 0.65;
    const core::Parameters p = query.resolved_parameters();
    core::GprsModel model(p);
    const std::vector<double> product =
        core::product_form_initial(p, model.balanced(), model.space());
    ctmc::SolveOptions options;
    options.tolerance = 1e-13;
    const std::vector<double> solution = model.solve(options).distribution;
    const auto residual = [&](std::vector<double> start) {
        return ctmc::prepare_start(model.generator(), start);
    };
    const double product_residual = residual(product);
    ASSERT_GT(product_residual, 1e3 * options.tolerance);

    // The product form itself, transferred: a tie keeps the product form.
    EXPECT_FALSE(transfer_wins(model, product, std::vector<double>(product.size(), 1.0)));

    // A transfer a share t of the way from the product form to the solution
    // has (1 - t) times its residual: 0.7x is still a near-tie, 0.3x wins.
    for (const double t : {0.3, 0.7}) {
        std::vector<double> towards(product.size());
        for (std::size_t s = 0; s < towards.size(); ++s) {
            towards[s] = product[s] + t * (solution[s] - product[s]);
        }
        const std::vector<double> deviation = deviation_of(towards, product);
        std::vector<double> grafted(product.size());
        for (std::size_t s = 0; s < grafted.size(); ++s) {
            grafted[s] = deviation[s] * product[s];
        }
        EXPECT_NEAR(residual(grafted) / product_residual, 1.0 - t, 0.05) << t;
        EXPECT_EQ(transfer_wins(model, product, deviation), t > 0.5) << t;
    }
    EXPECT_THROW(transfer_wins(model, product, std::vector<double>(3, 1.0)),
                 std::invalid_argument);
}

TEST(TransferRule, GridPointsAreStandaloneSolvesFromTheirWinningRawStarts) {
    // Replays the bisection schedule by hand: each point ranks its starts
    // with transfer_wins against its parent's replayed deviation and solves
    // from the raw winner, on the stencil and on the CSR. Each grid
    // evaluation is that solve, bit for bit, and warm_started is the rule's
    // verdict.
    const std::vector<double> rates{0.3, 0.475, 0.65, 0.825, 1.0};
    const ScenarioQuery query = transfer_query();
    const std::vector<GridOutcome> grid =
        BackendRegistry::global().find("ctmc").value()->evaluate_grids(
            std::span<const ScenarioQuery>(&query, 1), rates);
    ASSERT_TRUE(grid.front().ok());
    const std::vector<PointEvaluation>& evaluated = grid.front().value();

    const std::vector<int> schedule = bisection_schedule(rates.size());
    std::vector<std::vector<double>> deviations(rates.size());
    ctmc::SolverEngine engine;
    int won = 0;
    // In grid order: every parent precedes its dependents.
    for (std::size_t at = 0; at < rates.size(); ++at) {
        SCOPED_TRACE("point " + std::to_string(at));
        const int parent = schedule[at];
        ScenarioQuery point = query;
        point.call_arrival_rate = rates[at];
        const core::Parameters p = point.resolved_parameters();
        core::GprsModel model(p);
        const std::vector<double> product =
            core::product_form_initial(p, model.balanced(), model.space());
        std::vector<double> start = product;
        bool wins = false;
        if (parent >= 0) {
            const std::vector<double>& transferred =
                deviations[static_cast<std::size_t>(parent)];
            wins = transfer_wins(model, product, transferred);
            if (wins) {
                for (std::size_t s = 0; s < start.size(); ++s) {
                    start[s] *= transferred[s];
                }
            }
        }
        won += wins ? 1 : 0;

        ctmc::SolveOptions options;
        options.tolerance = point.solver.tolerance;
        options.max_iterations = point.solver.max_iterations;
        options.initial = start;
        const ctmc::SolveResult csr =
            engine.solve(model.generator().to_qt_matrix(), options);
        const ctmc::SolveResult& stencil = model.solve(std::move(options), engine);
        ASSERT_TRUE(stencil.converged);
        EXPECT_EQ(stencil.iterations, csr.iterations);
        EXPECT_EQ(stencil.distribution, csr.distribution);

        const PointEvaluation& e = evaluated[at];
        const core::Measures measures =
            core::compute_measures(p, model.balanced(), model.space(), stencil.distribution);
        EXPECT_EQ(std::memcmp(&e.measures, &measures, sizeof(core::Measures)), 0);
        EXPECT_EQ(e.iterations, static_cast<long long>(stencil.iterations));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(e.residual),
                  std::bit_cast<std::uint64_t>(stencil.residual));
        EXPECT_EQ(e.warm_parent, parent);
        EXPECT_EQ(e.warm_started, wins);
        deviations[at] = deviation_of(stencil.distribution, product);
    }
    // Both of the rule's outcomes occur on this grid.
    EXPECT_EQ(won, 2);
}

}  // namespace
}  // namespace gprsim::eval
