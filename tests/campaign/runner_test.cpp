// CampaignRunner: the bisection warm-start schedule, warm-started grids
// against pointwise cold evaluations (agreement within solver tolerance,
// strictly fewer total iterations), bitwise thread-count invariance of full
// campaign output, bitwise agreement between the merged batch and
// per-(backend, variant) grids, and model-vs-sim deltas of a ctmc + des
// campaign. Cells are kept tiny (N = 5..8 channels, small M and buffer) so
// a full campaign solves in well under a second.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "eval/backends.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {
namespace {

/// Small-cell spec shared by the solve tests. The cell is deliberately
/// heavily loaded (30% GPRS users, rates near saturation): there the
/// product-form cold start is weak and the neighbor warm start saves ~2x,
/// so the iteration-saving assertion has a wide margin. (On nearly
/// decoupled cells the product form is already near-exact and warm starts
/// only break even.)
ScenarioSpec tiny_ctmc_spec() {
    ScenarioSpec spec;
    spec.named("tiny")
        .with_methods({"ctmc"})
        .over_reserved_pdch({1, 2})
        .over_gprs_fractions({0.3})
        .with_rate_grid(0.6, 1.0, 9)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 25;
    spec.max_gprs_sessions = {10};
    return spec;
}

eval::Evaluator& ctmc_backend() {
    return *eval::BackendRegistry::global().find("ctmc").value();
}

TEST(BisectionSchedule, WarmStartCoversEveryPointExactlyOnce) {
    for (const std::size_t count : {1u, 2u, 3u, 8u, 9u, 64u}) {
        const eval::SolveSchedule schedule = eval::bisection_schedule(count);
        std::vector<int> seen(count, 0);
        for (const auto& level : schedule.levels) {
            for (const int index : level) {
                ASSERT_GE(index, 0);
                ASSERT_LT(static_cast<std::size_t>(index), count);
                ++seen[static_cast<std::size_t>(index)];
            }
        }
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }))
            << "count = " << count;
        // Only the root is cold.
        EXPECT_EQ(std::count(schedule.parent.begin(), schedule.parent.end(), -1), 1)
            << "count = " << count;
    }
}

TEST(BisectionSchedule, ParentsAreSolvedInEarlierLevels) {
    const eval::SolveSchedule schedule = eval::bisection_schedule(16);
    std::vector<int> level_of(16, -1);
    for (std::size_t level = 0; level < schedule.levels.size(); ++level) {
        for (const int index : schedule.levels[level]) {
            level_of[static_cast<std::size_t>(index)] = static_cast<int>(level);
        }
    }
    for (std::size_t i = 0; i < 16; ++i) {
        const int parent = schedule.parent[i];
        if (parent >= 0) {
            EXPECT_LT(level_of[static_cast<std::size_t>(parent)], level_of[i]) << i;
        }
    }
    // Log-depth: 16 points need well under 16 levels.
    EXPECT_LE(schedule.levels.size(), 6u);
}

TEST(CampaignRunner, WarmStartAgreesWithColdAndSavesIterations) {
    // A warm-started campaign grid against pointwise evaluate() of the same
    // queries — each point solved on its own from its product form.
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    const ScenarioSpec spec = tiny_ctmc_spec();
    const CampaignResult warm = runner.run(spec);
    ASSERT_EQ(warm.points.size(), 18u);

    const CampaignWorkload workload = build_campaign_workload(spec);
    eval::Evaluator& ctmc = ctmc_backend();
    long long cold_iterations = 0;
    // The residual tolerance bounds pi Q, not the measures: sensitive
    // ratio measures (QD) inherit a ~1e4 amplification of the 1e-10
    // residual, so "agree" here means within 1e-4, observed ~5e-6.
    for (const CampaignPoint& point : warm.points) {
        eval::ScenarioQuery query = workload.queries[point.variant];
        query.call_arrival_rate = point.call_arrival_rate;
        const auto cold = ctmc.evaluate(query);
        ASSERT_TRUE(cold.ok());
        cold_iterations += cold.value().iterations;
        const eval::PointEvaluation& grid = point.evaluations.front();
        EXPECT_NEAR(grid.measures.carried_data_traffic,
                    cold.value().measures.carried_data_traffic, 1e-4);
        EXPECT_NEAR(grid.measures.queueing_delay, cold.value().measures.queueing_delay,
                    1e-4);
        EXPECT_LE(grid.residual, spec.solver.tolerance);
    }

    // Every point except each variant's root is offered a transfer, and on
    // this strongly coupled cell the transfers win their residual
    // comparisons (at least somewhere).
    const BackendTotals& totals = warm.summary.backends.front();
    EXPECT_EQ(totals.points, 18u);
    EXPECT_EQ(totals.warm_offered, 16u);
    EXPECT_GT(totals.warm_won, 0u);
    EXPECT_LE(totals.warm_won, totals.warm_offered);
    // The warm-started grid needs fewer total sweeps than cold solves.
    EXPECT_LT(totals.iterations, cold_iterations)
        << "warm " << totals.iterations << " vs cold " << cold_iterations;
}

/// Field-by-field bitwise comparison of two campaign points (memcmp on the
/// doubles, not EXPECT_DOUBLE_EQ).
void expect_points_bitwise_equal(const CampaignPoint& pa, const CampaignPoint& pb,
                                 std::size_t i) {
    ASSERT_EQ(pa.evaluations.size(), pb.evaluations.size()) << i;
    for (std::size_t b = 0; b < pa.evaluations.size(); ++b) {
        const eval::PointEvaluation& ea = pa.evaluations[b];
        const eval::PointEvaluation& eb = pb.evaluations[b];
        EXPECT_EQ(std::memcmp(&ea.measures, &eb.measures, sizeof(core::Measures)), 0)
            << i << " " << ea.backend;
        EXPECT_EQ(ea.iterations, eb.iterations) << i;
        EXPECT_EQ(ea.warm_parent, eb.warm_parent) << i;
        EXPECT_EQ(ea.warm_started, eb.warm_started) << i;
        EXPECT_EQ(ea.has_confidence, eb.has_confidence) << i;
        EXPECT_EQ(std::memcmp(&ea.sim.queueing_delay.half_width,
                              &eb.sim.queueing_delay.half_width, sizeof(double)), 0)
            << i;
        EXPECT_EQ(ea.sim.events_executed, eb.sim.events_executed) << i;
        EXPECT_EQ(std::memcmp(&pa.deltas[b], &pb.deltas[b], sizeof(MeasureDeltas)), 0)
            << i;
    }
}

/// The small ctmc + des campaign shared by the determinism tests.
ScenarioSpec tiny_ctmc_des_spec() {
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "des"});
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;
    spec.simulation.seed = 7;
    return spec;
}

TEST(CampaignRunner, OutputBitwiseInvariantToThreadCount) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_des_spec();
    spec.over_reserved_pdch({1});

    CampaignOptions serial;
    serial.num_threads = 1;
    CampaignOptions wide;
    wide.num_threads = 4;
    const CampaignResult a = runner.run(spec, serial);
    const CampaignResult b = runner.run(spec, wide);

    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        expect_points_bitwise_equal(a.points[i], b.points[i], i);
    }
    for (std::size_t m = 0; m < a.methods.size(); ++m) {
        EXPECT_EQ(a.summary.backends[m].iterations, b.summary.backends[m].iterations);
        EXPECT_EQ(a.summary.backends[m].events, b.summary.backends[m].events);
    }
}

TEST(CampaignRunner, BothMethodFillsDeltasAndCis) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "des"}).over_reserved_pdch({1}).with_rate_grid(0.2, 0.4, 2);
    spec.simulation.replications = 3;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.points.size(), 2u);
    for (const CampaignPoint& point : result.points) {
        const eval::PointEvaluation& model = point.evaluations[0];
        const eval::PointEvaluation& simulated = point.evaluations[1];
        EXPECT_FALSE(model.has_confidence);
        ASSERT_TRUE(simulated.has_confidence);
        EXPECT_EQ(simulated.sim.carried_data_traffic.batches, 3);
        EXPECT_GT(simulated.sim.events_executed, 0u);
        // delta is exactly model - pooled sim mean.
        EXPECT_DOUBLE_EQ(point.deltas[1].cdt, model.measures.carried_data_traffic -
                                                  simulated.sim.carried_data_traffic.mean);
        EXPECT_DOUBLE_EQ(point.deltas[1].qd, model.measures.queueing_delay -
                                                 simulated.sim.queueing_delay.mean);
    }
    EXPECT_EQ(result.summary.backends[1].replications, 6);
    EXPECT_EQ(result.summary.backends[0].replications, 0);
}

TEST(CampaignRunner, MultiBackendListFillsEvaluationsAndPairwiseDeltas) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"ctmc", "mm1k-approx", "erlang"})
        .over_reserved_pdch({1})
        .with_rate_grid(0.6, 0.8, 3);

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.methods,
              (std::vector<std::string>{"ctmc", "mm1k-approx", "erlang"}));
    ASSERT_EQ(result.points.size(), 3u);
    for (const CampaignPoint& point : result.points) {
        ASSERT_EQ(point.evaluations.size(), 3u);
        ASSERT_EQ(point.deltas.size(), 3u);
        EXPECT_EQ(point.evaluations[0].backend, "ctmc");
        EXPECT_EQ(point.evaluations[1].backend, "mm1k-approx");
        EXPECT_GT(point.evaluations[0].iterations, 0);
        EXPECT_EQ(point.evaluations[2].iterations, 0);
        // Pairwise deltas reference the FIRST backend; index 0 is zero.
        EXPECT_EQ(point.deltas[0].cdt, 0.0);
        EXPECT_DOUBLE_EQ(point.deltas[1].cdt,
                         point.evaluations[0].measures.carried_data_traffic -
                             point.evaluations[1].measures.carried_data_traffic);
        EXPECT_DOUBLE_EQ(point.deltas[2].qd,
                         point.evaluations[0].measures.queueing_delay -
                             point.evaluations[2].measures.queueing_delay);
        // All three backends agree on the closed-form populations.
        EXPECT_NEAR(point.evaluations[1].measures.carried_voice_traffic,
                    point.evaluations[2].measures.carried_voice_traffic, 1e-12);
    }
    ASSERT_EQ(result.summary.backends.size(), 3u);
    EXPECT_GT(result.summary.backends[0].iterations, 0);  // ctmc only
    EXPECT_EQ(result.summary.backends[1].iterations, 0);
    EXPECT_EQ(result.summary.backends[2].iterations, 0);
}

TEST(CampaignRunner, DesVariantsDrawFromDisjointSubstreams) {
    // Two IDENTICAL variants (a duplicated axis value) under one seed: if
    // the per-variant grids reused the same substream blocks, the two
    // variants' replications would be bit-identical copies instead of
    // independent draws.
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    spec.with_methods({"des"}).over_reserved_pdch({1}).over_gprs_fractions({0.3, 0.3});
    spec.with_rates({0.6});
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 50.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 100.0;
    spec.simulation.seed = 5;

    const CampaignResult result = runner.run(spec);
    ASSERT_EQ(result.points.size(), 2u);
    const sim::ExperimentResults& a = result.points[0].evaluations[0].sim;
    const sim::ExperimentResults& b = result.points[1].evaluations[0].sim;
    ASSERT_EQ(a.replications.size(), 2u);
    ASSERT_EQ(b.replications.size(), 2u);
    EXPECT_NE(a.carried_data_traffic.mean, b.carried_data_traffic.mean);
    EXPECT_NE(a.replications[0].events_executed, b.replications[0].events_executed);
}

TEST(CampaignRunner, ErlangMethodNeedsNoSolves) {
    ScenarioSpec spec;
    spec.named("erlang")
        .with_methods({"erlang"})
        .over_gprs_fractions({0.02, 0.10})
        .with_rate_grid(0.1, 1.0, 4);
    const CampaignResult result = run_campaign(spec);
    ASSERT_EQ(result.points.size(), 8u);
    EXPECT_EQ(result.summary.backends.front().points, 8u);
    EXPECT_EQ(result.summary.backends.front().iterations, 0);
    for (const CampaignPoint& point : result.points) {
        const eval::PointEvaluation& evaluation = point.evaluations.front();
        EXPECT_FALSE(evaluation.has_confidence);
        EXPECT_GT(evaluation.measures.carried_voice_traffic, 0.0);
        // Chain-only measures stay zero under the closed-form method.
        EXPECT_EQ(evaluation.measures.carried_data_traffic, 0.0);
    }
    // More load, more blocking: sanity on the closed forms via at().
    EXPECT_GT(result.at(1, 3).evaluations.front().measures.gprs_blocking,
              result.at(1, 0).evaluations.front().measures.gprs_blocking);
}

TEST(CampaignRunner, BatchedDispatchMatchesSequentialBitwiseAtEveryWidth) {
    // A 3-variant, 2-backend campaign produces bitwise-identical output
    // through the merged task set at 1 and 4 threads AND through one
    // evaluate_grid per (backend, variant) — the evaluation service's slice
    // path, assembled with the same assemble_campaign — while the merged
    // task set needs fewer waves than the grids dispatched one at a time.
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_des_spec();
    spec.over_reserved_pdch({1, 2, 3});

    const CampaignWorkload workload = build_campaign_workload(spec);
    std::vector<std::vector<eval::GridOutcome>> outcomes;
    std::size_t sequential_waves = 0;
    for (const std::string& method : workload.effective.methods) {
        eval::Evaluator& backend = *eval::BackendRegistry::global().find(method).value();
        std::vector<eval::GridOutcome> per_variant;
        for (std::size_t v = 0; v < workload.queries.size(); ++v) {
            eval::GridOptions grid;
            grid.grid_offset = workload.grid_offset(v);
            per_variant.push_back(
                backend.evaluate_grid(workload.queries[v], workload.effective.rates, grid));
            sequential_waves +=
                backend
                    .plan_grids(std::span<const eval::ScenarioQuery>(&workload.queries[v], 1),
                                workload.effective.rates, grid)
                    .waves;
        }
        outcomes.push_back(std::move(per_variant));
    }
    auto assembled = assemble_campaign(workload, std::move(outcomes));
    ASSERT_TRUE(assembled.ok());
    const CampaignResult& reference = assembled.value();

    CampaignOptions batched1;
    CampaignOptions batched4;
    batched4.num_threads = 4;
    const CampaignResult serial = runner.run(spec, batched1);
    const CampaignResult wide = runner.run(spec, batched4);

    ASSERT_EQ(reference.points.size(), 27u);  // 3 variants x 9 rates
    for (const CampaignResult* other : {&serial, &wide}) {
        ASSERT_EQ(other->points.size(), reference.points.size());
        for (std::size_t i = 0; i < reference.points.size(); ++i) {
            expect_points_bitwise_equal(reference.points[i], other->points[i], i);
        }
        for (std::size_t m = 0; m < reference.methods.size(); ++m) {
            EXPECT_EQ(other->summary.backends[m].iterations,
                      reference.summary.backends[m].iterations);
            EXPECT_EQ(other->summary.backends[m].events,
                      reference.summary.backends[m].events);
            EXPECT_EQ(other->summary.backends[m].warm_won,
                      reference.summary.backends[m].warm_won);
        }
    }

    // Cross-variant interleaving: the merged task set's wave count is the
    // DEEPEST plan (ctmc's bisection schedule), far below the sum over
    // every (backend, variant) grid run on its own.
    const std::size_t ctmc_depth = eval::bisection_schedule(9).levels.size();
    EXPECT_EQ(wide.summary.batch_waves, ctmc_depth);
    EXPECT_EQ(sequential_waves, 3 * ctmc_depth + 3);  // + 3 des grids
    EXPECT_LT(wide.summary.batch_waves, sequential_waves);
    // 27 solves + 27 points x 2 replications of simulator tasks.
    EXPECT_EQ(wide.summary.batch_tasks, 27u + 54u);
}

TEST(CampaignRunner, ProgressCallbackSeesEverySolve) {
    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    ScenarioSpec spec = tiny_ctmc_spec();
    CampaignOptions options;
    options.num_threads = 2;
    std::vector<int> seen(spec.point_count(), 0);
    options.solve_progress = [&](std::size_t flat, const eval::PointEvaluation& point) {
        ASSERT_LT(flat, seen.size());
        ++seen[flat];
        EXPECT_EQ(point.backend, "ctmc");
        EXPECT_GT(point.iterations, 0);
    };
    runner.run(spec, options);
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }));
}

}  // namespace
}  // namespace gprsim::campaign
