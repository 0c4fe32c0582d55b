#include "eval/evaluator.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "ctmc/solver_options.hpp"
#include "eval/backend_util.hpp"
#include "eval/batch.hpp"

namespace gprsim::eval {

std::string scenario_context(const core::Parameters& p, double rate) {
    core::Parameters resolved = p;
    resolved.call_arrival_rate = rate;
    return resolved.describe();
}

std::string SolverKnobs::invalid_reason() const {
    if (!(tolerance > 0.0)) {
        return "solver.tolerance must be positive";
    }
    if (max_iterations < 1) {
        return "solver.max_iterations must be at least 1";
    }
    if (!ctmc::method_from_name(method)) {
        return "solver.method \"" + method +
               "\" is not a known iteration scheme: use \"gauss_seidel\" (or \"auto\")";
    }
    return {};
}

std::string SimulationKnobs::invalid_reason() const {
    if (replications < 1) {
        return "simulation.replications must be at least 1";
    }
    if (batch_count < 2) {
        return "simulation.batch_count must be at least 2";
    }
    if (warmup_time < 0.0 || !(batch_duration > 0.0)) {
        return "simulation warmup/batch_duration out of range";
    }
    return {};
}

std::string ApproxKnobs::invalid_reason() const {
    if (!(fp_tolerance > 0.0)) {
        return "approx.fp_tolerance must be positive";
    }
    if (!(fp_damping > 0.0) || fp_damping > 1.0) {
        return "approx.fp_damping must be in (0, 1]";
    }
    if (fp_max_iterations < 1) {
        return "approx.fp_max_iterations must be at least 1";
    }
    if (!(ode_rel_tol > 0.0) || !(ode_abs_tol > 0.0)) {
        return "approx.ode_rel_tol/ode_abs_tol must be positive";
    }
    if (ode_max_steps < 1) {
        return "approx.ode_max_steps must be at least 1";
    }
    if (!(ode_stationary_rate > 0.0)) {
        return "approx.ode_stationary_rate must be positive";
    }
    return {};
}

std::string NetworkKnobs::invalid_reason() const {
    if (cells_x < 1 || cells_y < 1) {
        return "network.cells_x/cells_y must be at least 1";
    }
    // Inline name list: the eval layer must not include network/ headers
    // (src/network/ sits above it and includes this file).
    if (topology != "grid4" && topology != "grid8" && topology != "hex" &&
        topology != "clique") {
        return "network.topology \"" + topology + "\" is not a known lattice topology";
    }
    if (reuse_factor < 1) {
        return "network.reuse_factor must be at least 1";
    }
    if (ra_block < 0) {
        return "network.ra_block must be non-negative";
    }
    if (!(speed_kmh > 0.0) || !(reference_speed_kmh > 0.0)) {
        return "network speeds must be positive";
    }
    if (!(drift >= 0.0) || drift >= 1.0) {
        return "network.drift must lie in [0, 1)";
    }
    if (inner_backend.empty() || inner_backend.rfind("network", 0) == 0) {
        return "network.inner_backend must name a single-cell backend";
    }
    if (!(outer_tolerance > 0.0)) {
        return "network.outer_tolerance must be positive";
    }
    if (!(outer_damping > 0.0) || outer_damping > 1.0) {
        return "network.outer_damping must be in (0, 1]";
    }
    if (outer_max_iterations < 1) {
        return "network.outer_max_iterations must be at least 1";
    }
    return {};
}

common::Status ScenarioQuery::validated() const {
    const auto fail = [&](const std::string& what) {
        return common::Status(common::EvalError{
            common::EvalErrorCode::invalid_query,
            what + " [" + scenario_context(parameters, call_arrival_rate) + "]"});
    };
    if (!(call_arrival_rate > 0.0)) {
        return fail("call_arrival_rate must be positive");
    }
    for (const std::string& reason :
         {solver.invalid_reason(), simulation.invalid_reason(), approx.invalid_reason(),
          network.invalid_reason()}) {
        if (!reason.empty()) {
            return fail(reason);
        }
    }
    try {
        resolved_parameters().validate();
    } catch (const std::exception& e) {
        return fail(e.what());
    }
    return common::ok_status();
}

GridPlan Evaluator::plan_grids(std::span<const ScenarioQuery> queries,
                               std::span<const double> rates,
                               const GridOptions& options) {
    if (common::Status g = detail::check_grid(rates); !g.ok()) {
        return detail::failed_plan(queries.size(), g.error());
    }

    // Shared by the tasks and the collect closure; the executor guarantees
    // collect runs after every task, so slot writes never race with reads.
    struct State {
        std::vector<ScenarioQuery> base;
        std::vector<std::vector<PointEvaluation>> points;  ///< [q][i]
        std::vector<std::vector<std::unique_ptr<common::EvalError>>> errors;
        std::vector<double> rates;
        std::mutex progress_mutex;
    };
    const std::size_t nq = queries.size();
    const std::size_t n = rates.size();
    auto state = std::make_shared<State>();
    state->base.assign(queries.begin(), queries.end());
    state->points.assign(nq, std::vector<PointEvaluation>(n));
    state->errors.resize(nq);
    state->rates.assign(rates.begin(), rates.end());
    const std::vector<bool> planned = detail::probe_queries(queries, rates, state->errors);

    GridPlan plan;
    for (std::size_t q = 0; q < nq; ++q) {
        if (!planned[q]) {
            continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
            plan.tasks.push_back(
                {0, [this, state, q, i, progress = options.progress] {
                     ScenarioQuery query = state->base[q];
                     query.call_arrival_rate = state->rates[i];
                     common::Result<PointEvaluation> point = evaluate(query);
                     if (!point.ok()) {
                         state->errors[q][i] =
                             std::make_unique<common::EvalError>(point.error());
                         return;
                     }
                     state->points[q][i] = point.take();
                     if (progress) {
                         std::lock_guard<std::mutex> lock(state->progress_mutex);
                         progress(q * state->rates.size() + i, state->points[q][i]);
                     }
                 }});
        }
    }
    plan.collect = [state, nq] {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(nq);
        for (std::size_t q = 0; q < nq; ++q) {
            if (const common::EvalError* failed = detail::first_error(state->errors[q])) {
                outcomes.push_back(*failed);
            } else {
                outcomes.push_back(std::move(state->points[q]));
            }
        }
        return outcomes;
    };
    return plan;
}

std::vector<GridOutcome> Evaluator::evaluate_grids(std::span<const ScenarioQuery> queries,
                                                   std::span<const double> rates,
                                                   const GridOptions& options) {
    GridPlan plan = plan_grids(queries, rates, options);
    execute_plans(std::span<GridPlan>(&plan, 1), options);
    return plan.collect();
}

common::Result<std::vector<PointEvaluation>> Evaluator::evaluate_grid(
    const ScenarioQuery& base, std::span<const double> rates, const GridOptions& options) {
    std::vector<GridOutcome> outcomes =
        evaluate_grids(std::span<const ScenarioQuery>(&base, 1), rates, options);
    return std::move(outcomes.front());
}

}  // namespace gprsim::eval
