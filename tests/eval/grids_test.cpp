// Multi-grid batches through the unified API: evaluate_grids slot
// isolation (one variant's typed error never poisons another's grid),
// bitwise agreement between batched, looped, and single-grid evaluation at
// every thread count, the des substream discipline across batched
// variants, and the registry-level evaluate_campaign merge (fewer waves
// than running each grid alone). Cells are tiny so every chain solves in
// milliseconds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
    EXPECT_EQ(ctmc_plan.waves, schedule.levels.size());
    EXPECT_EQ(ctmc_plan.tasks.size(), rates.size() * queries.size());

    GridPlan des_plan = backend("des").plan_grids(queries, rates, options);
    EXPECT_EQ(des_plan.waves, 1u);
    EXPECT_EQ(des_plan.tasks.size(),
              rates.size() * queries.size() *
                  static_cast<std::size_t>(queries[0].simulation.replications));
    // Executing our own plans: every task, then collect, yields the grids.
    for (GridPlan* plan : {&ctmc_plan, &des_plan}) {
        for (std::size_t wave = 0; wave < plan->waves; ++wave) {
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
            sequential_waves += backend(name.c_str())
                                    .plan_grids(std::span<const ScenarioQuery>(&query, 1),
                                                request.rates)
                                    .waves;
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
