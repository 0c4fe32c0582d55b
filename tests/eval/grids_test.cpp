// Multi-grid batches through the unified API: evaluate_grids slot
// isolation (one variant's typed error never reaches another's grid),
// bitwise agreement between batched, looped, and single-grid evaluation at
// every thread count, the ctmc plan's one wave and its grids in any task
// order, the des substream discipline across batched variants, and the
// registry-level evaluate_campaign merge (fewer waves than running each
// grid alone). Cells are tiny so every chain solves in milliseconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval/backends.hpp"
#include "eval/batch.hpp"
#include "eval/registry.hpp"

namespace gprsim::eval {
namespace {

Evaluator& backend(const char* name) {
    auto found = BackendRegistry::global().find(name);
    EXPECT_TRUE(found.ok()) << name;
    return *found.value();
}

/// Tiny cell shared by the batch tests: a few thousand states.
ScenarioQuery tiny_query() {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.parameters.total_channels = 6;
    query.parameters.buffer_capacity = 10;
    query.parameters.max_gprs_sessions = 6;
    query.parameters.gprs_fraction = 0.1;
    query.call_arrival_rate = 0.5;
    query.solver.tolerance = 1e-10;
    query.simulation.replications = 2;
    query.simulation.warmup_time = 50.0;
    query.simulation.batch_count = 3;
    query.simulation.batch_duration = 100.0;
    return query;
}

/// Three distinguishable variants of the tiny cell.
std::vector<ScenarioQuery> tiny_variants() {
    std::vector<ScenarioQuery> queries(3, tiny_query());
    queries[1].parameters.reserved_pdch = 2;
    queries[2].parameters.gprs_fraction = 0.2;
    return queries;
}

/// A plan's dependency depth, as the executor reads it: 1 + the largest
/// wave tag of its tasks (0 without tasks).
std::size_t waves_of(const GridPlan& plan) {
    std::size_t waves = 0;
    for (const BatchTask& task : plan.tasks) {
        waves = std::max(waves, task.wave + 1);
    }
    return waves;
}

void expect_bitwise_equal(const PointEvaluation& a, const PointEvaluation& b) {
    EXPECT_EQ(std::memcmp(&a.measures, &b.measures, sizeof(core::Measures)), 0);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.warm_parent, b.warm_parent);
    EXPECT_EQ(a.warm_started, b.warm_started);
    if (a.has_confidence || b.has_confidence) {
        EXPECT_EQ(a.has_confidence, b.has_confidence);
        EXPECT_EQ(std::memcmp(&a.sim.carried_data_traffic.mean,
                              &b.sim.carried_data_traffic.mean, sizeof(double)), 0);
        EXPECT_EQ(a.sim.events_executed, b.sim.events_executed);
    }
}

TEST(EvaluateGrids, EmptyBatchAndEmptyGrid) {
    const std::vector<double> rates{0.3, 0.5};
    for (const char* name : {"erlang", "ctmc", "des", "mm1k-approx"}) {
        // No queries: no outcomes.
        EXPECT_TRUE(backend(name)
                        .evaluate_grids(std::span<const ScenarioQuery>{}, rates)
                        .empty())
            << name;
        // Queries but no rates: one OK empty grid per query.
        const std::vector<ScenarioQuery> queries(2, tiny_query());
        auto outcomes = backend(name).evaluate_grids(queries, std::vector<double>{});
        ASSERT_EQ(outcomes.size(), 2u) << name;
        for (const GridOutcome& outcome : outcomes) {
            ASSERT_TRUE(outcome.ok()) << name;
            EXPECT_TRUE(outcome.value().empty()) << name;
        }
    }
}

TEST(EvaluateGrids, SingleQueryBatchMatchesEvaluateGridBitwise) {
    const std::vector<double> rates{0.3, 0.5, 0.7, 0.9};
    for (const char* name : {"erlang", "ctmc", "des", "mm1k-approx"}) {
        const ScenarioQuery query = tiny_query();
        auto grid = backend(name).evaluate_grid(query, rates);
        auto batch = backend(name).evaluate_grids(
            std::span<const ScenarioQuery>(&query, 1), rates);
        ASSERT_TRUE(grid.ok()) << name;
        ASSERT_EQ(batch.size(), 1u) << name;
        ASSERT_TRUE(batch.front().ok()) << name;
        ASSERT_EQ(batch.front().value().size(), rates.size()) << name;
        for (std::size_t i = 0; i < rates.size(); ++i) {
            expect_bitwise_equal(batch.front().value()[i], grid.value()[i]);
        }
    }
}

TEST(EvaluateGrids, BatchMatchesLoopedGridsBitwiseAtEveryWidth) {
    // The batched path must reproduce the sequential per-variant loop
    // exactly: same warm-start schedules per variant, same substream
    // blocks (variant q starts at grid_offset q * rates.size()).
    const std::vector<double> rates{0.3, 0.5, 0.7};
    const std::vector<ScenarioQuery> queries = tiny_variants();
    common::ThreadPool pool(4);
    for (const char* name : {"ctmc", "des"}) {
        std::vector<GridOutcome> looped;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            GridOptions options;
            options.grid_offset = q * rates.size();
            looped.push_back(backend(name).evaluate_grid(queries[q], rates, options));
            ASSERT_TRUE(looped.back().ok()) << name;
        }
        for (const int threads : {1, 4}) {
            GridOptions options;
            options.num_threads = threads;
            options.pool = threads > 1 ? &pool : nullptr;
            auto batch = backend(name).evaluate_grids(queries, rates, options);
            ASSERT_EQ(batch.size(), queries.size()) << name;
            for (std::size_t q = 0; q < queries.size(); ++q) {
                ASSERT_TRUE(batch[q].ok()) << name << " q=" << q;
                for (std::size_t i = 0; i < rates.size(); ++i) {
                    expect_bitwise_equal(batch[q].value()[i], looped[q].value()[i]);
                }
            }
        }
    }
}

TEST(EvaluateGrids, InvalidVariantDoesNotPoisonTheOthers) {
    const std::vector<double> rates{0.3, 0.5};
    std::vector<ScenarioQuery> queries = tiny_variants();
    queries[1].parameters.reserved_pdch = 99;  // > total_channels
    for (const char* name : {"ctmc", "des"}) {
        auto outcomes = backend(name).evaluate_grids(queries, rates);
        ASSERT_EQ(outcomes.size(), 3u) << name;
        ASSERT_FALSE(outcomes[1].ok()) << name;
        EXPECT_EQ(outcomes[1].error().code, common::EvalErrorCode::invalid_query)
            << name;
        EXPECT_NE(outcomes[1].error().message.find("reserved"), std::string::npos)
            << name;
        for (const std::size_t q : {0u, 2u}) {
            ASSERT_TRUE(outcomes[q].ok()) << name << " q=" << q;
            ASSERT_EQ(outcomes[q].value().size(), rates.size()) << name;
            // The healthy variants' grids are exactly what a standalone
            // batch of just them would have produced.
            GridOptions options;
            options.grid_offset = q * rates.size();
            auto alone = backend(name).evaluate_grid(queries[q], rates, options);
            ASSERT_TRUE(alone.ok());
            for (std::size_t i = 0; i < rates.size(); ++i) {
                expect_bitwise_equal(outcomes[q].value()[i], alone.value()[i]);
            }
        }
    }
}

TEST(EvaluateGrids, NonConvergingVariantFailsAloneWithTypedError) {
    const std::vector<double> rates{0.3, 0.5};
    std::vector<ScenarioQuery> queries = tiny_variants();
    queries[2].solver.tolerance = 1e-14;
    queries[2].solver.max_iterations = 3;  // cannot converge in 3 sweeps
    auto outcomes = backend("ctmc").evaluate_grids(queries, rates);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[1].ok());
    ASSERT_FALSE(outcomes[2].ok());
    EXPECT_EQ(outcomes[2].error().code, common::EvalErrorCode::non_convergence);
    EXPECT_NE(outcomes[2].error().message.find("did not converge"), std::string::npos);
}

TEST(EvaluateGrids, BatchRejectsUnsortedRatesInEverySlot) {
    const std::vector<double> unsorted{0.5, 0.3};
    const std::vector<ScenarioQuery> queries = tiny_variants();
    for (const char* name : {"ctmc", "des"}) {
        auto outcomes = backend(name).evaluate_grids(queries, unsorted);
        ASSERT_EQ(outcomes.size(), 3u) << name;
        for (const GridOutcome& outcome : outcomes) {
            ASSERT_FALSE(outcome.ok()) << name;
            EXPECT_EQ(outcome.error().code, common::EvalErrorCode::invalid_query)
                << name;
        }
    }
}

TEST(PlanGrids, CtmcSharesWavesAcrossVariantsAndDesIsFlat) {
    // Both plans are one wave: ctmc holds one task per (variant, point), in
    // grid order with the variants interleaved, des one per replication.
    const std::vector<double> rates{0.3, 0.4, 0.5, 0.6, 0.7};
    const std::vector<ScenarioQuery> queries = tiny_variants();
    GridOptions options;
    GridPlan ctmc_plan = backend("ctmc").plan_grids(queries, rates, options);
    EXPECT_EQ(waves_of(ctmc_plan), 1u);
    EXPECT_EQ(ctmc_plan.tasks.size(), rates.size() * queries.size());

    GridPlan des_plan = backend("des").plan_grids(queries, rates, options);
    EXPECT_EQ(waves_of(des_plan), 1u);
    EXPECT_EQ(des_plan.tasks.size(),
              rates.size() * queries.size() *
                  static_cast<std::size_t>(queries[0].simulation.replications));
    // Executing our own plans: every task, then collect, yields the grids.
    for (GridPlan* plan : {&ctmc_plan, &des_plan}) {
        for (BatchTask& task : plan->tasks) {
            task.run();
        }
        auto outcomes = plan->collect();
        ASSERT_EQ(outcomes.size(), queries.size());
        for (const GridOutcome& outcome : outcomes) {
            ASSERT_TRUE(outcome.ok());
            EXPECT_EQ(outcome.value().size(), rates.size());
        }
    }
}

TEST(PlanGrids, CtmcPlansOneWaveZeroTaskPerPoint) {
    // At every width, with or without a pool, the ctmc plan holds exactly
    // one wave-0 task per (variant, point). Run serially in plan order,
    // each task settles its own point at once (its parent, lower in the
    // grid, has settled), so the reports count up one per task; executed
    // on four seats, the grids are the serial ones, reported once a point.
    const std::vector<double> rates{0.3, 0.4, 0.5, 0.6, 0.7};
    common::ThreadPool pool(4);
    for (const std::size_t variants : {2u, 3u}) {
        const std::vector<ScenarioQuery> all = tiny_variants();
        const std::vector<ScenarioQuery> queries(all.begin(), all.begin() + variants);
        const std::size_t points = rates.size() * variants;
        GridOptions serial;
        GridOptions no_pool;
        no_pool.num_threads = 4;
        GridOptions wide;
        wide.num_threads = 4;
        wide.pool = &pool;
        for (const GridOptions* options : {&serial, &no_pool, &wide}) {
            const GridPlan plan = backend("ctmc").plan_grids(queries, rates, *options);
            EXPECT_EQ(plan.tasks.size(), points);
            EXPECT_EQ(waves_of(plan), 1u);
        }
        const std::vector<GridOutcome> expected =
            backend("ctmc").evaluate_grids(queries, rates, serial);

        std::vector<int> reported(points, 0);
        const auto count = [&](std::size_t flat, const PointEvaluation&) {
            ASSERT_LT(flat, reported.size());
            ++reported[flat];
        };
        GridOptions counted = serial;
        counted.progress = count;
        GridPlan plan = backend("ctmc").plan_grids(queries, rates, counted);
        for (std::size_t task = 0; task < plan.tasks.size(); ++task) {
            plan.tasks[task].run();
            const int reports = std::accumulate(reported.begin(), reported.end(), 0);
            EXPECT_EQ(static_cast<std::size_t>(reports), task + 1)
                << variants << " variants, task " << task;
        }
        EXPECT_TRUE(std::all_of(reported.begin(), reported.end(), [](int n) { return n == 1; }));

        std::fill(reported.begin(), reported.end(), 0);
        wide.progress = count;
        GridPlan executed = backend("ctmc").plan_grids(queries, rates, wide);
        const BatchStats stats = execute_plans(std::span(&executed, 1), wide);
        EXPECT_EQ(stats.tasks, points) << variants;
        EXPECT_EQ(stats.waves, 1u) << variants;
        EXPECT_EQ(stats.max_wave_width, points) << variants;
        EXPECT_TRUE(std::all_of(reported.begin(), reported.end(), [](int n) { return n == 1; }));
        const std::vector<GridOutcome> merged = executed.collect();
        for (std::size_t q = 0; q < variants; ++q) {
            ASSERT_TRUE(merged[q].ok());
            ASSERT_TRUE(expected[q].ok());
            for (std::size_t i = 0; i < rates.size(); ++i) {
                expect_bitwise_equal(merged[q].value()[i], expected[q].value()[i]);
            }
        }
    }
}

/// The plan's tasks run one at a time in the given order (task t is query
/// t % queries, point t / queries) and collected.
std::vector<GridOutcome> run_in_order(std::span<const ScenarioQuery> queries,
                                      std::span<const double> rates,
                                      const std::vector<std::size_t>& order,
                                      const GridOptions& options = {}) {
    GridPlan plan = backend("ctmc").plan_grids(queries, rates, options);
    EXPECT_EQ(plan.tasks.size(), order.size());
    for (const std::size_t task : order) {
        plan.tasks[task].run();
    }
    return plan.collect();
}

TEST(PlanGrids, TasksInAnyOrderKeepTheSerialGrid) {
    // A grid whose transfers win at two points and lose at two (parents 0,
    // 0, 2 and 0 of points 1-4; points 1 and 3 win). Run in grid order,
    // every dependent finds its parent settled; run in reverse, or leaves
    // first, every dependent solves from its product form first and leaves
    // that outcome for its parent's task, which decides it and solves
    // again from the transfer where the transfer wins; on two or four
    // seats either may happen, or a dependent decides at a residual
    // checkpoint. Every point, its warm-start provenance and its one
    // report are the serial grid's. The cell (5,824 states) gives the
    // verdicts of the 10-session cell of TransferRule.* at a third of the
    // sweeps, which matters under ThreadSanitizer.
    const std::vector<double> rates{0.3, 0.475, 0.65, 0.825, 1.0};
    ScenarioQuery query = tiny_query();
    query.parameters.gprs_fraction = 0.02;
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 6;
    const std::span<const ScenarioQuery> one(&query, 1);
    EXPECT_EQ(bisection_schedule(rates.size()), (std::vector<int>{-1, 0, 0, 2, 0}));

    std::vector<int> reported(rates.size(), 0);
    GridOptions counted;
    counted.progress = [&](std::size_t flat, const PointEvaluation&) {
        ASSERT_LT(flat, reported.size());
        ++reported[flat];
    };
    const auto reported_once = [&] {
        const bool once =
            std::all_of(reported.begin(), reported.end(), [](int n) { return n == 1; });
        std::fill(reported.begin(), reported.end(), 0);
        return once;
    };
    // The tasks in grid order are what a one-thread executor runs.
    const std::vector<GridOutcome> expected = run_in_order(one, rates, {0, 1, 2, 3, 4}, counted);
    ASSERT_TRUE(expected.front().ok());
    EXPECT_TRUE(reported_once());
    const std::vector<PointEvaluation>& serial = expected.front().value();
    EXPECT_EQ(std::count_if(serial.begin(), serial.end(),
                            [](const PointEvaluation& p) { return p.warm_started; }),
              2);

    const auto expect_serial = [&](const std::vector<GridOutcome>& outcomes,
                                   const std::string& label) {
        SCOPED_TRACE(label);
        ASSERT_TRUE(outcomes.front().ok());
        for (std::size_t i = 0; i < rates.size(); ++i) {
            expect_bitwise_equal(outcomes.front().value()[i], serial[i]);
        }
        EXPECT_TRUE(reported_once());
    };
    expect_serial(run_in_order(one, rates, {4, 3, 2, 1, 0}, counted), "reverse order");
    expect_serial(run_in_order(one, rates, {1, 3, 2, 4, 0}, counted), "leaves first");

    common::ThreadPool pool(4);
    for (const int width : {2, 4}) {
        GridOptions wide = counted;
        wide.num_threads = width;
        wide.pool = &pool;
        expect_serial(backend("ctmc").evaluate_grids(one, rates, wide),
                      std::to_string(width) + " seats");
    }
}

TEST(EvaluateGrids, FailuresLeaveTheSerialOutcomesInAnyTaskOrder) {
    // Two-point grids at sweep limits that fail some solves. (a) At a limit
    // equal to the root's own sweep count, the dependent's product-form
    // solve fails to converge, while its warm-started solve converges (on
    // this 12,012-state cell: root 310 sweeps, dependent 320 cold and 300
    // from its transfer). Run before its root, the dependent leaves that
    // failure to the root's task, which solves it again from the transfer.
    // (b) A limit of 3 fails every solve. (c) On a 2 % cell with 6
    // sessions the root at 0.3 calls/s needs 420 sweeps and its dependent
    // at 1.0, whose transfer loses, 340: at a limit of 380 the root fails,
    // and the dependent, which would converge, is skipped wherever it ran
    // (it never settles, so it never reports). None of it may
    // show: at widths 2 and 4 and in reverse order every grid reports the
    // serial error, or the serial points bit for bit, and the serial
    // number of progress calls.
    ScenarioQuery query = tiny_query();
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 10;
    ScenarioQuery low_share = query;
    low_share.parameters.gprs_fraction = 0.02;
    low_share.parameters.max_gprs_sessions = 6;
    const auto solve_alone = [](ScenarioQuery point, double rate, long long limit) {
        point.call_arrival_rate = rate;
        point.solver.max_iterations = limit;
        return backend("ctmc").evaluate(point);
    };
    const auto root = solve_alone(query, 0.7, query.solver.max_iterations);
    ASSERT_TRUE(root.ok());
    const long long limit = root.value().iterations;
    ASSERT_FALSE(solve_alone(query, 0.9, limit).ok()) << "the product-form solve would converge";
    ASSERT_FALSE(solve_alone(low_share, 0.3, 380).ok()) << "the root would converge";
    ASSERT_TRUE(solve_alone(low_share, 1.0, 380).ok()) << "the dependent would fail";

    struct Case {
        ScenarioQuery query;
        std::vector<double> rates;
        long long sweeps;
    };
    const std::vector<Case> cases{
        {query, {0.7, 0.9}, limit}, {query, {0.7, 0.9}, 3}, {low_share, {0.3, 1.0}, 380}};
    common::ThreadPool pool(4);
    for (const Case& c : cases) {
        SCOPED_TRACE("limit " + std::to_string(c.sweeps));
        ScenarioQuery limited = c.query;
        limited.solver.max_iterations = c.sweeps;
        const std::span<const ScenarioQuery> one(&limited, 1);
        int reports = 0;
        GridOptions counted;
        counted.progress = [&reports](std::size_t, const PointEvaluation&) { ++reports; };
        const std::vector<GridOutcome> serial =
            backend("ctmc").evaluate_grids(one, c.rates, counted);
        ASSERT_EQ(serial.front().ok(), c.sweeps == limit);
        EXPECT_EQ(reports, serial.front().ok() ? 2 : 0);
        const int serial_reports = reports;

        const auto expect_serial = [&](const std::vector<GridOutcome>& other,
                                       const char* label) {
            SCOPED_TRACE(label);
            EXPECT_EQ(reports, serial_reports);
            reports = 0;
            ASSERT_EQ(other.front().ok(), serial.front().ok());
            if (!serial.front().ok()) {
                EXPECT_EQ(other.front().error().code, serial.front().error().code);
                EXPECT_EQ(other.front().error().message, serial.front().error().message);
                return;
            }
            for (std::size_t i = 0; i < c.rates.size(); ++i) {
                expect_bitwise_equal(other.front().value()[i], serial.front().value()[i]);
            }
        };
        reports = 0;
        expect_serial(run_in_order(one, c.rates, {1, 0}, counted), "reverse order");
        for (const int width : {2, 4}) {
            GridOptions wide = counted;
            wide.num_threads = width;
            wide.pool = &pool;
            expect_serial(backend("ctmc").evaluate_grids(one, c.rates, wide),
                          width == 2 ? "2 seats" : "4 seats");
        }
    }
}

TEST(EvaluateCampaign, MergesBackendsIntoFewerWavesThanSequential) {
    CampaignRequest request;
    request.backends = {"ctmc", "des", "erlang"};
    request.queries = tiny_variants();
    request.rates = {0.3, 0.4, 0.5, 0.6, 0.7};
    common::ThreadPool pool(4);
    GridOptions options;
    options.num_threads = 4;
    options.pool = &pool;
    auto evaluated = evaluate_campaign(BackendRegistry::global(), request, options);
    ASSERT_TRUE(evaluated.ok());
    const CampaignEvaluation& evaluation = evaluated.value();
    ASSERT_EQ(evaluation.outcomes.size(), 3u);
    for (std::size_t b = 0; b < 3; ++b) {
        ASSERT_EQ(evaluation.outcomes[b].size(), request.queries.size());
        for (const GridOutcome& outcome : evaluation.outcomes[b]) {
            ASSERT_TRUE(outcome.ok());
            ASSERT_EQ(outcome.value().size(), request.rates.size());
        }
    }
    // The merged depth is the deepest plan, and every plan here is one
    // wave; running one (backend, variant) grid at a time queues 3 ctmc
    // grids + 3 des grids + 3 erlang grids one after another.
    EXPECT_EQ(evaluation.stats.waves, 1u);
    std::size_t sequential_waves = 0;
    for (const std::string& name : request.backends) {
        for (const ScenarioQuery& query : request.queries) {
            sequential_waves += waves_of(backend(name.c_str())
                                             .plan_grids(std::span<const ScenarioQuery>(&query, 1),
                                                         request.rates));
        }
    }
    EXPECT_GT(sequential_waves, evaluation.stats.waves);
    EXPECT_EQ(sequential_waves, 3u + 3u + 3u);  // ctmc + des + erlang
    EXPECT_GE(evaluation.stats.max_wave_width,
              request.queries.size());  // cross-variant interleaving
    // Slots agree bitwise with standalone grids.
    GridOptions serial;
    auto ctmc_alone = backend("ctmc").evaluate_grids(request.queries, request.rates,
                                                     serial);
    for (std::size_t q = 0; q < request.queries.size(); ++q) {
        for (std::size_t i = 0; i < request.rates.size(); ++i) {
            expect_bitwise_equal(evaluation.outcomes[0][q].value()[i],
                                 ctmc_alone[q].value()[i]);
        }
    }
}

TEST(EvaluateCampaign, UnknownBackendFailsWholesale) {
    CampaignRequest request;
    request.backends = {"ctmc", "no-such-backend"};
    request.queries = {tiny_query()};
    request.rates = {0.5};
    auto evaluated = evaluate_campaign(BackendRegistry::global(), request);
    ASSERT_FALSE(evaluated.ok());
    EXPECT_EQ(evaluated.error().code, common::EvalErrorCode::unknown_backend);
}

TEST(EvaluateCampaign, ProgressReportsFlatBatchIndices) {
    CampaignRequest request;
    request.backends = {"ctmc"};
    request.queries = tiny_variants();
    request.rates = {0.3, 0.5};
    std::vector<int> seen(request.queries.size() * request.rates.size(), 0);
    GridOptions options;
    options.progress = [&](std::size_t flat, const PointEvaluation& point) {
        ASSERT_LT(flat, seen.size());
        ++seen[flat];
        EXPECT_GT(point.iterations, 0);
    };
    auto evaluated = evaluate_campaign(BackendRegistry::global(), request, options);
    ASSERT_TRUE(evaluated.ok());
    for (const int count : seen) {
        EXPECT_EQ(count, 1);
    }
}

}  // namespace
}  // namespace gprsim::eval
