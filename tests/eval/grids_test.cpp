// Multi-grid batches through the unified API: evaluate_grids slot
// isolation (one variant's typed error never poisons another's grid),
// bitwise agreement between batched, looped, and single-grid evaluation at
// every thread count, the des substream discipline across batched
// variants, and the registry-level evaluate_campaign merge (fewer waves
// than running each grid alone). Cells are tiny so every chain solves in
// milliseconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
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
    const std::vector<double> rates{0.3, 0.4, 0.5, 0.6, 0.7};
    const std::vector<ScenarioQuery> queries = tiny_variants();
    GridOptions options;
    GridPlan ctmc_plan = backend("ctmc").plan_grids(queries, rates, options);
    const SolveSchedule schedule = bisection_schedule(rates.size());
    EXPECT_EQ(waves_of(ctmc_plan), schedule.levels.size());
    EXPECT_EQ(ctmc_plan.tasks.size(), rates.size() * queries.size());

    GridPlan des_plan = backend("des").plan_grids(queries, rates, options);
    EXPECT_EQ(waves_of(des_plan), 1u);
    EXPECT_EQ(des_plan.tasks.size(),
              rates.size() * queries.size() *
                  static_cast<std::size_t>(queries[0].simulation.replications));
    // Executing our own plans: every task, then collect, yields the grids.
    for (GridPlan* plan : {&ctmc_plan, &des_plan}) {
        for (std::size_t wave = 0; wave < waves_of(*plan); ++wave) {
            for (BatchTask& task : plan->tasks) {
                if (task.wave == wave) {
                    task.run();
                }
            }
        }
        auto outcomes = plan->collect();
        ASSERT_EQ(outcomes.size(), queries.size());
        for (const GridOutcome& outcome : outcomes) {
            ASSERT_TRUE(outcome.ok());
            EXPECT_EQ(outcome.value().size(), rates.size());
        }
    }
}

TEST(PlanGrids, CtmcFillsEmptySeatsWithSpeculativeStarts) {
    // Above one thread every ctmc wave below the last holds its solves and,
    // as optional tasks, speculative starts of the next level's points; the
    // executor runs a start only on a seat the wave's solves leave empty. A
    // start reports no progress; the point reports once, in its own wave,
    // and the grids are the width-1 plan's. Width 1 plans one task per point.
    const std::vector<double> rates{0.3, 0.4, 0.5, 0.6, 0.7};  // levels 1, 1, 1, 2
    common::ThreadPool pool(4);
    for (const std::size_t variants : {2u, 3u}) {
        const std::vector<ScenarioQuery> all = tiny_variants();
        const std::vector<ScenarioQuery> queries(all.begin(), all.begin() + variants);
        const std::size_t points = rates.size() * variants;
        GridOptions serial;
        EXPECT_EQ(backend("ctmc").plan_grids(queries, rates, serial).tasks.size(), points);
        GridOptions no_pool;
        no_pool.num_threads = 4;
        EXPECT_EQ(backend("ctmc").plan_grids(queries, rates, no_pool).tasks.size(), points);
        const std::vector<GridOutcome> expected =
            backend("ctmc").evaluate_grids(queries, rates, serial);

        std::vector<int> reported(points, 0);
        GridOptions wide;
        wide.num_threads = 4;
        wide.pool = &pool;
        wide.progress = [&](std::size_t flat, const PointEvaluation&) {
            ASSERT_LT(flat, reported.size());
            ++reported[flat];
        };
        GridPlan plan = backend("ctmc").plan_grids(queries, rates, wide);
        ASSERT_EQ(waves_of(plan), 4u);
        std::vector<std::size_t> solves(4, 0);
        std::vector<std::size_t> starts(4, 0);
        for (const BatchTask& task : plan.tasks) {
            ++(task.optional ? starts : solves)[task.wave];
        }
        EXPECT_EQ(solves, (std::vector<std::size_t>{variants, variants, variants, 2 * variants}));
        EXPECT_EQ(starts, (std::vector<std::size_t>{variants, variants, 2 * variants, 0}));
        // Every task in plan order, starts included: in wave 0 the roots
        // report and the starts after them do not.
        std::size_t task = 0;
        for (; task < plan.tasks.size() && plan.tasks[task].wave == 0; ++task) {
            plan.tasks[task].run();
            const int reports = std::accumulate(reported.begin(), reported.end(), 0);
            EXPECT_EQ(static_cast<std::size_t>(reports), std::min(task + 1, variants))
                << variants << " variants, task " << task;
        }
        for (std::size_t wave = 1; wave < 4; ++wave) {
            for (BatchTask& later : plan.tasks) {
                if (later.wave == wave) {
                    later.run();
                }
            }
        }
        EXPECT_TRUE(std::all_of(reported.begin(), reported.end(), [](int n) { return n == 1; }));
        const std::vector<GridOutcome> outcomes = plan.collect();
        ASSERT_EQ(outcomes.size(), variants);
        for (std::size_t q = 0; q < variants; ++q) {
            ASSERT_TRUE(outcomes[q].ok());
            ASSERT_TRUE(expected[q].ok());
            for (std::size_t i = 0; i < rates.size(); ++i) {
                expect_bitwise_equal(outcomes[q].value()[i], expected[q].value()[i]);
            }
        }

        // The executor fills the first three waves' empty seats with
        // 4 - variants starts each; the last wave holds 2 * variants solves.
        GridPlan executed = backend("ctmc").plan_grids(queries, rates, wide);
        const BatchStats stats = execute_plans(std::span(&executed, 1), wide);
        EXPECT_EQ(stats.tasks, points + 3 * (4 - variants)) << variants;
        EXPECT_EQ(stats.max_wave_width, std::max<std::size_t>(4, 2 * variants)) << variants;
        const std::vector<GridOutcome> merged = executed.collect();
        for (std::size_t q = 0; q < variants; ++q) {
            ASSERT_TRUE(merged[q].ok());
            for (std::size_t i = 0; i < rates.size(); ++i) {
                expect_bitwise_equal(merged[q].value()[i], expected[q].value()[i]);
            }
        }
    }
}

TEST(PlanGrids, SpeculativeStartsBeforeOrAfterTheirParentKeepTheSerialGrid) {
    // A grid whose transfers win at two points and lose at two. A start run
    // after its parent applies the candidate rule before solving, and stops
    // or solves; a start run before its parent in the same wave solves to
    // the end, and the point's own task applies the rule. Either way each
    // point is the width-1 point, bit for bit.
    const std::vector<double> rates{0.3, 0.475, 0.65, 0.825, 1.0};
    ScenarioQuery query = tiny_query();
    query.parameters.gprs_fraction = 0.02;
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 10;
    const std::span<const ScenarioQuery> one(&query, 1);
    const std::vector<GridOutcome> expected = backend("ctmc").evaluate_grids(one, rates);
    ASSERT_TRUE(expected.front().ok());
    const std::vector<PointEvaluation>& serial = expected.front().value();
    EXPECT_EQ(std::count_if(serial.begin(), serial.end(),
                            [](const PointEvaluation& p) { return p.warm_started; }),
              2);

    common::ThreadPool pool(4);
    GridOptions wide;
    wide.num_threads = 4;
    wide.pool = &pool;
    for (const bool starts_first : {false, true}) {
        GridPlan plan = backend("ctmc").plan_grids(one, rates, wide);
        for (std::size_t wave = 0; wave < waves_of(plan); ++wave) {
            for (const bool optional : {starts_first, !starts_first}) {
                for (BatchTask& task : plan.tasks) {
                    if (task.wave == wave && task.optional == optional) {
                        task.run();
                    }
                }
            }
        }
        const std::vector<GridOutcome> outcomes = plan.collect();
        ASSERT_TRUE(outcomes.front().ok()) << starts_first;
        for (std::size_t i = 0; i < rates.size(); ++i) {
            expect_bitwise_equal(outcomes.front().value()[i], serial[i]);
        }
    }
}

TEST(ExecutePlans, OptionalTasksTakeOnlyTheSeatsTheMergedWaveLeavesEmpty) {
    // Plan a: wave 0 holds 1 task and 5 optional ones, wave 1 holds 2 and
    // 3. Plan b: wave 0 holds 3 tasks. Optional tasks run in plan order on
    // the empty seats of the merged wave, and never at one thread.
    std::vector<std::atomic<int>> runs(14);
    const auto plans = [&] {
        std::vector<GridPlan> made(2);
        int id = 0;
        const auto add = [&](GridPlan& plan, std::size_t wave, bool optional) {
            plan.tasks.push_back({wave, [&runs, i = id++] { ++runs[i]; }, optional});
        };
        add(made[0], 0, false);
        for (int i = 0; i < 5; ++i) {
            add(made[0], 0, true);  // ids 1-5
        }
        add(made[0], 1, false);
        add(made[0], 1, false);
        for (int i = 0; i < 3; ++i) {
            add(made[0], 1, true);  // ids 8-10
        }
        for (int i = 0; i < 3; ++i) {
            add(made[1], 0, false);  // ids 11-13
        }
        return made;
    };
    const auto ran = [&] {
        std::vector<int> ids;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (runs[i].exchange(0) == 1) {
                ids.push_back(static_cast<int>(i));
            }
        }
        return ids;
    };
    common::ThreadPool pool(4);
    GridOptions wide;
    wide.num_threads = 4;
    wide.pool = &pool;

    std::vector<GridPlan> alone = plans();
    alone.pop_back();
    BatchStats stats = execute_plans(alone, wide);
    EXPECT_EQ(ran(), (std::vector<int>{0, 1, 2, 3, 6, 7, 8, 9}));
    EXPECT_EQ(stats.tasks, 8u);
    EXPECT_EQ(stats.max_wave_width, 4u);

    std::vector<GridPlan> merged = plans();
    stats = execute_plans(merged, wide);
    EXPECT_EQ(ran(), (std::vector<int>{0, 6, 7, 8, 9, 11, 12, 13}));
    EXPECT_EQ(stats.tasks, 8u);

    std::vector<GridPlan> serial = plans();
    stats = execute_plans(serial, GridOptions{});
    EXPECT_EQ(ran(), (std::vector<int>{0, 6, 7, 11, 12, 13}));
    EXPECT_EQ(stats.tasks, 6u);
}

TEST(EvaluateGrids, FailingSpeculativeStartsLeaveTheSerialOutcomes) {
    // At a sweep limit equal to the root's own sweep count, the dependent's
    // product-form solve, which its speculative start runs, fails to
    // converge, while its own warm-started solve converges (on this
    // 12,012-state cell: root 310 sweeps, dependent 320 cold and 300 from
    // its transfer). A limit of 3 fails every solve. Neither may show: at
    // width 4 every grid reports the width-1 errors, or the width-1 points
    // bit for bit.
    const std::vector<double> rates{0.7, 0.9};
    ScenarioQuery query = tiny_query();
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 10;
    const auto solve_alone = [&](double rate, long long limit) {
        ScenarioQuery point = query;
        point.call_arrival_rate = rate;
        point.solver.max_iterations = limit;
        return backend("ctmc").evaluate(point);
    };
    const auto root = solve_alone(rates[0], query.solver.max_iterations);
    ASSERT_TRUE(root.ok());
    const long long limit = root.value().iterations;
    ASSERT_FALSE(solve_alone(rates[1], limit).ok()) << "the speculative start would converge";

    common::ThreadPool pool(4);
    GridOptions wide;
    wide.num_threads = 4;
    wide.pool = &pool;
    for (const long long sweeps : {limit, 3LL}) {
        query.solver.max_iterations = sweeps;
        const std::span<const ScenarioQuery> one(&query, 1);
        const std::vector<GridOutcome> serial = backend("ctmc").evaluate_grids(one, rates);
        const std::vector<GridOutcome> speculated =
            backend("ctmc").evaluate_grids(one, rates, wide);
        ASSERT_EQ(serial.front().ok(), sweeps == limit) << sweeps;
        ASSERT_EQ(speculated.front().ok(), serial.front().ok()) << sweeps;
        if (!serial.front().ok()) {
            EXPECT_EQ(speculated.front().error().code, serial.front().error().code);
            EXPECT_EQ(speculated.front().error().message, serial.front().error().message);
            continue;
        }
        for (std::size_t i = 0; i < rates.size(); ++i) {
            expect_bitwise_equal(speculated.front().value()[i], serial.front().value()[i]);
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
    // The merged depth is the deepest plan (ctmc's bisection schedule);
    // running one (backend, variant) grid at a time queues 3 ctmc grids +
    // 3 des grids + 3 erlang grids one after another.
    const std::size_t ctmc_depth = bisection_schedule(request.rates.size()).levels.size();
    EXPECT_EQ(evaluation.stats.waves, ctmc_depth);
    std::size_t sequential_waves = 0;
    for (const std::string& name : request.backends) {
        for (const ScenarioQuery& query : request.queries) {
            sequential_waves += waves_of(backend(name.c_str())
                                             .plan_grids(std::span<const ScenarioQuery>(&query, 1),
                                                         request.rates));
        }
    }
    EXPECT_GT(sequential_waves, evaluation.stats.waves);
    EXPECT_EQ(sequential_waves, 3 * ctmc_depth + 3 + 3);  // ctmc + des + erlang
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
