// CampaignRunner: the bisection warm-start schedule, warm-started grids
// against pointwise cold evaluations (agreement within solver tolerance,
// strictly fewer total iterations), bitwise thread-count invariance of full
// campaign output, dependents solved beside their parents included, bitwise
// agreement between the merged batch and per-(backend, variant) grids, and
// model-vs-sim deltas of a ctmc + des campaign. Cells are kept tiny (N = 5..8 channels,
// small M and buffer) so a full campaign solves in well under a second.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/sink.hpp"
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
        const std::vector<int> parent = eval::bisection_schedule(count);
        ASSERT_EQ(parent.size(), count);
        // Only the first point is cold; every other is offered one
        // transfer, from a point of the grid.
        EXPECT_EQ(parent.front(), -1) << "count = " << count;
        EXPECT_EQ(std::count(parent.begin(), parent.end(), -1), 1) << "count = " << count;
        for (const int p : parent) {
            EXPECT_LT(p, static_cast<int>(count)) << "count = " << count;
        }
    }
}

TEST(BisectionSchedule, ParentsHaveLowerIndicesAndLogDepth) {
    for (const std::size_t count : {2u, 9u, 16u, 64u, 1000u}) {
        const std::vector<int> parent = eval::bisection_schedule(count);
        std::size_t deepest = 0;
        for (std::size_t i = 1; i < count; ++i) {
            // A parent precedes its dependents in grid order, so the ctmc
            // plan's tasks, in grid order, settle every parent first.
            EXPECT_LT(parent[i], static_cast<int>(i)) << i;
            std::size_t depth = 0;
            for (int at = static_cast<int>(i); at > 0; at = parent[static_cast<std::size_t>(at)]) {
                ++depth;
            }
            deepest = std::max(deepest, depth);
        }
        // The chain from a point to the root is at most ceil(log2(count))
        // + 1 transfers long.
        EXPECT_LE(deepest, static_cast<std::size_t>(std::ceil(std::log2(count))) + 1)
            << "count = " << count;
    }
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

TEST(CampaignRunner, HelpedSolvesKeepTheCsvBytes) {
    // One wave of three solves on four seats: the idle seats take sweep
    // groups of the running solves, whose chain (69,632 states) is above
    // ctmc::kTeamMinStates. The CSV is the one-thread CSV, byte for byte.
    ScenarioSpec spec;
    spec.named("helped")
        .with_methods({"ctmc"})
        .over_reserved_pdch({1})
        .over_gprs_fractions({0.3})
        .with_rate_grid(0.6, 1.0, 3)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 63;
    spec.max_gprs_sessions = {15};

    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    CampaignOptions serial;
    serial.num_threads = 1;
    CampaignOptions wide;
    wide.num_threads = 4;
    const CampaignResult a = runner.run(spec, serial);
    ASSERT_LT(a.summary.batch_tasks / a.summary.batch_waves, 4u);
    EXPECT_EQ(a.summary.batch_helped_groups, 0u);
    std::ostringstream csv_a;
    write_campaign_csv(a, csv_a);

    // Whether a helper wakes before the owner has claimed every group of a
    // batch is up to the scheduler: rerun the wide campaign until one did.
    // Every run's CSV is the one-thread CSV.
    std::size_t helped = 0;
    for (int round = 0; round < 10 && helped == 0; ++round) {
        const CampaignResult b = runner.run(spec, wide);
        std::ostringstream csv_b;
        write_campaign_csv(b, csv_b);
        EXPECT_EQ(csv_b.str(), csv_a.str()) << "round " << round;
        helped = b.summary.batch_helped_groups;
    }
    EXPECT_GT(helped, 0u);
}

TEST(CampaignRunner, DependentsBesideTheirParentsKeepTheCsvBytesAndTheWarmCounts) {
    // A grid whose transfers win at two points and lose at two, one of
    // them the middle point, whose deviation its own dependent then takes
    // (and wins with). At two and four threads dependents start beside
    // their parents from the product form: one keeps that solve where the
    // transfer loses, and solves again from the transfer where it wins.
    // Neither may show in the output: the CSV, the task count, the
    // warm-start counts and the one progress call per point are the
    // one-thread run's.
    ScenarioSpec spec;
    spec.named("beside")
        .with_methods({"ctmc"})
        .over_reserved_pdch({1})
        .over_gprs_fractions({0.02})
        .with_rate_grid(0.3, 1.0, 5)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 25;
    spec.max_gprs_sessions = {10};

    ctmc::SolverEngine engine;
    CampaignRunner runner(engine);
    std::string serial_csv;
    BackendTotals serial_totals;
    for (const int threads : {1, 2, 4}) {
        CampaignOptions options;
        options.num_threads = threads;
        std::vector<int> seen(spec.point_count(), 0);
        options.solve_progress = [&](std::size_t flat, const eval::PointEvaluation&) {
            ASSERT_LT(flat, seen.size());
            ++seen[flat];
        };
        const CampaignResult result = runner.run(spec, options);
        std::ostringstream csv;
        write_campaign_csv(result, csv);
        const BackendTotals& totals = result.summary.backends.front();
        EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }))
            << threads << " threads";
        // One task per point, in one wave, at every width.
        EXPECT_EQ(result.summary.batch_tasks, 5u);
        EXPECT_EQ(result.summary.batch_waves, 1u);
        if (threads == 1) {
            serial_csv = csv.str();
            serial_totals = totals;
            EXPECT_EQ(totals.warm_offered, 4u);
            EXPECT_EQ(totals.warm_won, 2u);
            continue;
        }
        EXPECT_EQ(csv.str(), serial_csv) << threads << " threads";
        EXPECT_EQ(totals.warm_offered, serial_totals.warm_offered) << threads << " threads";
        EXPECT_EQ(totals.warm_won, serial_totals.warm_won) << threads << " threads";
        EXPECT_EQ(totals.iterations, serial_totals.iterations) << threads << " threads";
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
    // A small chain cell (1,848-2,464 states) and a short simulated
    // horizon: the paths must agree on every solve and every replication
    // whatever their size, and under ThreadSanitizer this is the slowest
    // test, where the shared cell's 27 solves per path (10,296-13,728
    // states) cost minutes.
    spec.buffer_capacity = 10;
    spec.max_gprs_sessions = {6};
    spec.simulation.warmup_time = 10.0;
    spec.simulation.batch_duration = 20.0;

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
            // The grid's depth, from its tasks' wave tags.
            const eval::GridPlan plan =
                backend.plan_grids(std::span<const eval::ScenarioQuery>(&workload.queries[v], 1),
                                   workload.effective.rates, grid);
            std::size_t depth = 0;
            for (const eval::BatchTask& task : plan.tasks) {
                depth = std::max(depth, task.wave + 1);
            }
            sequential_waves += depth;
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

    // Cross-variant interleaving: both plans are one wave, so the merged
    // task set runs in one, where the 6 (backend, variant) grids run on
    // their own take 6.
    EXPECT_EQ(wide.summary.batch_waves, 1u);
    EXPECT_EQ(serial.summary.batch_waves, 1u);
    EXPECT_EQ(sequential_waves, 3u + 3u);  // 3 ctmc + 3 des grids
    EXPECT_LT(wide.summary.batch_waves, sequential_waves);
    // 27 solves + 27 points x 2 replications of simulator tasks, at every
    // width.
    EXPECT_EQ(wide.summary.batch_tasks, 27u + 54u);
    EXPECT_EQ(serial.summary.batch_tasks, 27u + 54u);
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
