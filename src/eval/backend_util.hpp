// Shared scaffolding of the built-in backend implementations: the guarded
// evaluate fence, grid validation, the per-query probe/error-slot protocol
// of the batch planners, and the replication point/plan of the simulating
// backends (des, network-des). Internal to src/eval/ and src/network/ —
// the public surface is evaluator.hpp/backends.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval/evaluator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace gprsim::eval::detail {

/// Scope timer filling PointEvaluation::wall_seconds.
class WallClock {
public:
    WallClock() : start_(std::chrono::steady_clock::now()) {}
    double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Positive-and-ascending check shared by every grid entry point; grids
/// come from campaign specs (already validated) and from raw API callers
/// (not validated at all).
inline common::Status check_grid(std::span<const double> rates) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (!(rates[i] > 0.0)) {
            return common::EvalError{common::EvalErrorCode::invalid_query,
                                     "grid rates must be positive"};
        }
        if (i > 0 && rates[i] <= rates[i - 1]) {
            return common::EvalError{common::EvalErrorCode::invalid_query,
                                     "grid rates must be strictly ascending"};
        }
    }
    return common::ok_status();
}

/// A plan whose every query slot reports the same batch-level error (bad
/// rate grid): no tasks, constant collect.
inline GridPlan failed_plan(std::size_t num_queries, common::EvalError error) {
    GridPlan plan;
    plan.collect = [num_queries, error = std::move(error)] {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(num_queries);
        for (std::size_t q = 0; q < num_queries; ++q) {
            outcomes.push_back(error);
        }
        return outcomes;
    };
    return plan;
}

/// Shared per-query scaffolding of the batch planners: sizes each query's
/// error-slot vector to the grid and probe-validates the query against the
/// grid's first rate. planned[q] says whether query q gets tasks; a
/// failing probe's typed error lands in errors[q][0] and touches nothing
/// else.
inline std::vector<bool> probe_queries(
    std::span<const ScenarioQuery> queries, std::span<const double> rates,
    std::vector<std::vector<std::unique_ptr<common::EvalError>>>& errors) {
    std::vector<bool> planned(queries.size(), false);
    for (std::size_t q = 0; q < queries.size(); ++q) {
        errors[q].resize(rates.size());
        if (rates.empty()) {
            continue;
        }
        ScenarioQuery probe = queries[q];
        probe.call_arrival_rate = rates.front();
        if (common::Status v = probe.validated(); !v.ok()) {
            errors[q][0] = std::make_unique<common::EvalError>(v.error());
            continue;
        }
        planned[q] = true;
    }
    return planned;
}

/// First recorded error of one query's grid, in grid order — the error its
/// GridOutcome reports (nullptr = the grid succeeded). Keeping the
/// selection in one place keeps the ordering contract identical across
/// backends.
inline const common::EvalError* first_error(
    const std::vector<std::unique_ptr<common::EvalError>>& errors) {
    for (const auto& error : errors) {
        if (error) {
            return error.get();
        }
    }
    return nullptr;
}

/// Uncaught-exception fence: every backend body runs inside this so the
/// "no exception crosses the eval boundary" contract survives bugs in the
/// layers below (and bad_alloc on huge chains).
template <typename F>
common::Result<PointEvaluation> guarded(const ScenarioQuery& query, F&& body) {
    if (common::Status v = query.validated(); !v.ok()) {
        return v.error();
    }
    try {
        return body();
    } catch (const std::exception& e) {
        return common::EvalError{
            common::EvalErrorCode::internal,
            std::string(e.what()) + " [" +
                scenario_context(query.parameters, query.call_arrival_rate) + "]"};
    }
}

/// One point of a simulating backend: the query's replications run
/// serially on substream blocks 0..R-1 and are pooled. `experiment_of`
/// builds the point's sim::ExperimentConfig; `pool(query, experiment, runs,
/// threads_used)` turns the replication-ordered runs into the evaluation.
template <typename MakeExperiment, typename Pool>
common::Result<PointEvaluation> replicated_point(const ScenarioQuery& query,
                                                 MakeExperiment experiment_of, Pool pool) {
    return guarded(query, [&]() -> common::Result<PointEvaluation> {
        const WallClock clock;
        const sim::ExperimentConfig experiment = experiment_of(query);
        std::vector<sim::SimulationResults> runs(
            static_cast<std::size_t>(experiment.replications));
        for (std::size_t rep = 0; rep < runs.size(); ++rep) {
            runs[rep] = sim::NetworkSimulator(sim::replication_config(experiment, rep)).run();
        }
        PointEvaluation point = pool(query, experiment, std::move(runs), /*threads_used=*/1);
        point.sim.wall_seconds = clock.seconds();
        point.wall_seconds = clock.seconds();
        return point;
    });
}

/// Grid plan of a simulating backend, with the experiment engine's
/// substream discipline: replication r of query q's grid point i draws from
/// substream block (grid_offset + q * rates.size() + i) * stride + r of
/// that query's experiment seed, where stride is the LARGEST replication
/// count in the batch — so streams stay disjoint even when queries sharing
/// one seed ask for different replication budgets (with a uniform budget
/// the stride equals R and blocks match the single-grid formula exactly).
/// Every (query, point, replication) is its own wave-0 task — replications
/// have no dependencies, so under a merged campaign they backfill whatever
/// solver threads the iterative backends' narrow waves leave idle. Pooling
/// runs serially in (query, point, replication) order inside collect, so
/// output is bitwise invariant to num_threads and to merging.
template <typename MakeExperiment, typename Pool>
GridPlan replication_plan(std::span<const ScenarioQuery> queries,
                          std::span<const double> rates, const GridOptions& options,
                          MakeExperiment experiment_of, Pool pool) {
    if (common::Status g = check_grid(rates); !g.ok()) {
        return failed_plan(queries.size(), g.error());
    }

    struct State {
        std::vector<ScenarioQuery> base;  ///< per query
        /// runs[q][i][rep], written by disjoint tasks.
        std::vector<std::vector<std::vector<sim::SimulationResults>>> runs;
        /// First error of each (q, i); several replications of one point
        /// can fail concurrently, so the slot is mutex-guarded.
        std::vector<std::vector<std::unique_ptr<common::EvalError>>> errors;
        std::mutex error_mutex;
        std::vector<double> rates;
    };
    const std::size_t nq = queries.size();
    const std::size_t n = rates.size();
    auto state = std::make_shared<State>();
    state->base.assign(queries.begin(), queries.end());
    state->runs.resize(nq);
    state->errors.resize(nq);
    state->rates.assign(rates.begin(), rates.end());

    const auto internal_error = [state](std::size_t q, std::size_t index,
                                        const std::exception& e) {
        return common::EvalError{
            common::EvalErrorCode::internal,
            std::string(e.what()) + " [" +
                scenario_context(state->base[q].parameters, state->rates[index]) + "]"};
    };
    // One plan task: replication `rep` of query q's point `index` on
    // substream block `block`. Never throws.
    const auto run_replication = [state, experiment_of, internal_error](
                                     std::size_t q, std::size_t index, std::size_t rep,
                                     std::uint64_t block) {
        try {
            ScenarioQuery query = state->base[q];
            query.call_arrival_rate = state->rates[index];
            const sim::SimulationConfig config =
                sim::replication_config(experiment_of(query), block);
            state->runs[q][index][rep] = sim::NetworkSimulator(config).run();
        } catch (const std::exception& e) {
            std::lock_guard<std::mutex> lock(state->error_mutex);
            if (!state->errors[q][index]) {
                state->errors[q][index] =
                    std::make_unique<common::EvalError>(internal_error(q, index, e));
            }
        }
    };

    GridPlan plan;
    const std::vector<bool> planned = probe_queries(queries, rates, state->errors);
    // Computed over EVERY query — valid or not, clamped at 1 for nonsense
    // budgets — so a query's random draws never depend on whether an
    // unrelated sibling passed validation.
    std::uint64_t stride = 1;
    for (const ScenarioQuery& query : queries) {
        stride = std::max(stride, static_cast<std::uint64_t>(
                                      std::max(1, query.simulation.replications)));
    }
    for (std::size_t q = 0; q < nq; ++q) {
        if (!planned[q]) {
            continue;
        }
        const auto replications = static_cast<std::size_t>(queries[q].simulation.replications);
        state->runs[q].assign(n, std::vector<sim::SimulationResults>(replications));
        for (std::size_t index = 0; index < n; ++index) {
            for (std::size_t rep = 0; rep < replications; ++rep) {
                const std::uint64_t block =
                    (options.grid_offset + static_cast<std::uint64_t>(q * n + index)) *
                        stride +
                    static_cast<std::uint64_t>(rep);
                plan.tasks.push_back({0, [run_replication, q, index, rep, block] {
                                          run_replication(q, index, rep, block);
                                      }});
            }
        }
    }

    // threads_used provenance is capped at the query's own task count, so a
    // merged run reports the same points as a per-grid one.
    const int resolved = common::ThreadPool::resolve_thread_count(options.num_threads);
    plan.collect = [state, nq, n, resolved, experiment_of, pool, internal_error,
                    progress = options.progress] {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(nq);
        for (std::size_t q = 0; q < nq; ++q) {
            if (const common::EvalError* failed = first_error(state->errors[q])) {
                outcomes.push_back(*failed);
                continue;
            }
            const int width = std::min<int>(
                resolved, static_cast<int>(n) * state->base[q].simulation.replications);
            // This query's own simulation cost (a merged batch has no
            // meaningful per-backend wall clock), spread evenly over its
            // points.
            double query_wall = 0.0;
            for (const auto& point_runs : state->runs[q]) {
                for (const sim::SimulationResults& run : point_runs) {
                    query_wall += run.wall_seconds;
                }
            }
            std::vector<PointEvaluation> points;
            points.reserve(n);
            std::optional<common::EvalError> failed_late;
            for (std::size_t index = 0; index < n; ++index) {
                ScenarioQuery query = state->base[q];
                query.call_arrival_rate = state->rates[index];
                try {
                    points.push_back(pool(query, experiment_of(query),
                                          std::move(state->runs[q][index]), width));
                } catch (const std::exception& e) {
                    failed_late = internal_error(q, index, e);
                    break;
                }
                points.back().wall_seconds =
                    query_wall / static_cast<double>(std::max<std::size_t>(1, n));
            }
            if (failed_late) {
                outcomes.push_back(*failed_late);
                continue;
            }
            if (progress) {
                for (std::size_t index = 0; index < n; ++index) {
                    progress(q * n + index, points[index]);
                }
            }
            outcomes.push_back(std::move(points));
        }
        return outcomes;
    };
    return plan;
}

}  // namespace gprsim::eval::detail
