// The one executor every grid evaluation runs on: plan_grids ->
// execute_plans -> collect.
//
// A campaign is backends x variants x rates (x replications for stochastic
// backends). execute_plans() merges the wave-tagged task sets of several
// GridPlans (one per backend, each covering every variant —
// Evaluator::plan_grids) into ONE flat task set per wave on ONE pool:
// global wave w runs every backend's wave-w tasks together, so the narrow
// early waves of one variant's warm-start schedule overlap with the other
// variants' wide waves and DES replications backfill idle solver threads;
// the merged depth is the MAXIMUM plan depth. evaluate_campaign() is the
// registry-level wrapper: resolve backend names, plan, execute merged,
// collect per (backend, query). Evaluator::evaluate_grid(s) run a single
// plan through the same executor.
//
// Determinism: tasks of one wave write disjoint plan-private state and
// every order-sensitive reduction happens in the plans' serial collect
// step, so merged results are bitwise identical to executing each
// (backend, variant) plan on its own and invariant to the thread count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "eval/evaluator.hpp"
#include "eval/registry.hpp"

namespace gprsim::eval {

/// Execution accounting of a merged batch — the numbers the campaign
/// summary prints.
struct BatchStats {
    /// Total tasks executed across every merged plan.
    std::size_t tasks = 0;
    /// Pool dispatches actually executed: the DEEPEST merged plan's wave
    /// count, because global wave w runs every plan's wave-w tasks at once.
    std::size_t waves = 0;
    /// Largest single-wave task count — the peak concurrency the merged
    /// set offers the pool.
    std::size_t max_wave_width = 0;
};

/// Executes the plans' tasks as one flat wave-ordered task set on
/// options.pool (serially when the pool is absent or num_threads <= 1) and
/// returns the accounting. Wave w of every plan runs in one dispatch,
/// ordered (plan, insertion order) so the serial path is deterministic;
/// a wave-w task observes every earlier wave of every plan completed.
/// Tasks are consumed (moved out of the plans); the plans' collect
/// closures are NOT invoked — callers do that per plan afterwards.
BatchStats execute_plans(std::span<GridPlan> plans, const GridOptions& options);

/// One batched campaign: every named backend evaluates every query over
/// the shared ascending rate grid. Queries carry their own knob blocks
/// (the campaign runner builds them from one spec, but independent
/// scenarios batch just as well).
struct CampaignRequest {
    /// Registered backend names, evaluation order (empty = empty result).
    std::vector<std::string> backends;
    /// Scenario variants; query q's grid occupies flat batch indices
    /// [q * rates.size(), (q + 1) * rates.size()) for substream blocks and
    /// progress reporting.
    std::vector<ScenarioQuery> queries;
    /// Shared arrival-rate grid, strictly ascending and positive.
    std::vector<double> rates;
};

/// Result of evaluate_campaign: per-(backend, query) outcomes plus the
/// merged-execution accounting.
struct CampaignEvaluation {
    /// outcomes[b][q] is backend b's GridOutcome for query q — the full
    /// grid or that (backend, query)'s typed error; one failing slot never
    /// poisons another.
    std::vector<std::vector<GridOutcome>> outcomes;
    BatchStats stats;
};

/// Registry-level batch entry point: resolves request.backends in
/// `registry`, plans every backend's grids, executes the merged task set
/// (execute_plans), and collects per-plan. Fails wholesale only when a
/// backend name is unknown (unknown_backend); every evaluation failure
/// stays inside its (backend, query) slot. GridOptions::grid_offset /
/// progress follow the flat-batch-index convention of plan_grids.
common::Result<CampaignEvaluation> evaluate_campaign(
    BackendRegistry& registry, const CampaignRequest& request,
    const GridOptions& options = {});

}  // namespace gprsim::eval
