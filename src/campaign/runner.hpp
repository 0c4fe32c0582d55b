// CampaignRunner: executes a ScenarioSpec by batching every (backend,
// variant, rate-grid) slice through the eval::BackendRegistry as ONE
// merged task set: plan_grids -> execute_plans -> collect (eval/batch.hpp)
// -> PointEvaluation -> pairwise deltas and per-backend totals -> sinks
// (sink.hpp). Backends keep their batch internals (the ctmc bisection
// warm-start schedule, des (point, replication) tasks); adding an analysis
// route never touches this file — register a backend and name it in the
// spec's "methods" list. Consumers: bench/fig*, gprsim_cli campaign, the
// evaluation service, out-of-tree code via find_package(gprsim).
//
// Determinism. Per-point chain solves run single-threaded (the points are
// the parallelism), DES replication r of flat point p always draws from
// substream block p * R + r of the experiment seed (GridOptions::
// grid_offset keeps variants on disjoint blocks), and every reduction
// (replication pooling, deltas, totals) runs serially in point order after
// the parallel phase — so campaign output is bitwise invariant to
// CampaignOptions::num_threads, and a per-(backend, variant) evaluate_grid
// with the workload's grid offset (the service's slice path) yields the
// same evaluations.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "ctmc/engine.hpp"
#include "eval/evaluator.hpp"

namespace gprsim::campaign {

/// Measures of the campaign's first backend (the delta reference) minus
/// one other backend; all zero for the first backend itself.
struct MeasureDeltas {
    double cdt = 0.0;
    double plp = 0.0;
    double qd = 0.0;
    double atu = 0.0;
};

/// One (variant, arrival rate) cell of the campaign.
struct CampaignPoint {
    std::size_t variant = 0;  ///< index into CampaignResult::variants
    std::size_t rate_index = 0;
    double call_arrival_rate = 0.0;

    /// One evaluation per backend, parallel to CampaignResult::methods.
    std::vector<eval::PointEvaluation> evaluations;
    std::vector<MeasureDeltas> deltas;  ///< vs methods.front(), pairwise
};

struct CampaignOptions {
    /// Execution width for sharding tasks across the engine's pool:
    /// 0 = all hardware threads, <= 1 = serial. Never changes any output.
    int num_threads = 1;
    /// Non-empty: overrides ScenarioSpec::solver.method for every chain
    /// solve of the run (canonical ctmc::method_name spelling, or "auto").
    /// The A/B knob behind the CLI's --solver-method flag; an unknown
    /// spelling surfaces as each point's invalid_query error.
    std::string solver_method_override;
    /// Called as backends finish points (under a lock, NOT in point order):
    /// flat point index v * rates.size() + r and the finished evaluation.
    std::function<void(std::size_t, const eval::PointEvaluation&)> solve_progress;
};

/// Totals of one backend over a finished campaign.
struct BackendTotals {
    std::string backend;
    std::size_t points = 0;
    /// Summed PointEvaluation::iterations: chain sweeps (ctmc),
    /// decomposition iterations (fixed-point), ODE steps (fluid), outer
    /// iterations (network-fp).
    long long iterations = 0;
    long long replications = 0;  ///< simulator replications (des, network-des)
    std::uint64_t events = 0;    ///< simulator events executed
    /// Grid points offered a transferred warm start (ctmc's bisection
    /// schedule), and the subset where the transfer won the engine's
    /// residual comparison.
    std::size_t warm_offered = 0;
    std::size_t warm_won = 0;
};

struct CampaignSummary {
    std::size_t variants = 0;
    std::size_t points = 0;
    /// One entry per backend, parallel to CampaignResult::methods.
    std::vector<BackendTotals> backends;
    /// Merged task set: tasks executed and the waves they ran in.
    std::size_t batch_tasks = 0;
    std::size_t batch_waves = 0;
    double wall_seconds = 0.0;
    int threads = 1;
};

struct CampaignResult {
    std::string name;
    /// Backend names in evaluation (and delta-reference) order.
    std::vector<std::string> methods;
    std::vector<double> rates;
    std::vector<Variant> variants;
    /// Variant-major, rate-minor: points[v * rates.size() + r].
    std::vector<CampaignPoint> points;
    CampaignSummary summary;

    const CampaignPoint& at(std::size_t variant, std::size_t rate_index) const {
        return points[variant * rates.size() + rate_index];
    }
};

/// The expanded, execution-ready form of a spec: the effective spec (with
/// the CampaignOptions overrides folded in), its materialized variants, and
/// one ScenarioQuery per variant. This is the shared front half of every
/// campaign execution path — CampaignRunner::run and the evaluation
/// service (src/service/) both build the same workload, so a service
/// request and a one-shot CLI run evaluate literally identical queries.
struct CampaignWorkload {
    ScenarioSpec effective;
    std::vector<Variant> variants;
    std::vector<eval::ScenarioQuery> queries;  ///< parallel to `variants`

    std::size_t num_rates() const { return effective.rates.size(); }
    /// Substream/grid offset of variant v — the flat point index of its
    /// first grid point. EVERY dispatch path must pass this as
    /// GridOptions::grid_offset so DES replications of variant v draw from
    /// the same substream blocks regardless of who evaluates the slice.
    std::uint64_t grid_offset(std::size_t v) const {
        return static_cast<std::uint64_t>(v * num_rates());
    }
};

/// Applies solver_method_override and expands the spec.
/// Throws SpecError on an invalid spec (same contract as expand()).
CampaignWorkload build_campaign_workload(const ScenarioSpec& spec,
                                         const CampaignOptions& options = {});

/// Assembles per-(backend, variant) grid outcomes — outcomes[b][v] in
/// workload.effective.methods x workload.variants order — into a finished
/// CampaignResult: per-point evaluations, pairwise deltas, and the
/// per-backend summary totals. The first failed outcome
/// (scanned backend-major, variant-minor) is returned as its typed error
/// with the message prefixed "campaign backend \"<name>\": ".
/// Execution-shape summary fields (threads, wall_seconds, batch_waves,
/// batch_tasks) are left zero for the caller.
common::Result<CampaignResult> assemble_campaign(
    const CampaignWorkload& workload,
    std::vector<std::vector<eval::GridOutcome>> outcomes);

/// Runs campaigns on a SolverEngine's pool; backends shard their grid tasks
/// (chain solves, simulator replications) on the same workers. Like the
/// engines, one runner should live as long as the workload.
class CampaignRunner {
public:
    explicit CampaignRunner(ctmc::SolverEngine& engine) : engine_(engine) {}

    CampaignRunner(const CampaignRunner&) = delete;
    CampaignRunner& operator=(const CampaignRunner&) = delete;

    /// Expands and executes the spec. Throws SpecError on an invalid spec
    /// and std::runtime_error when a backend reports a typed evaluation
    /// error (non-convergence, invalid query); the message carries the
    /// backend name, error code, and scenario context.
    CampaignResult run(const ScenarioSpec& spec, const CampaignOptions& options = {});

private:
    ctmc::SolverEngine& engine_;
};

/// Convenience wrapper on the process-wide default engine.
CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options = {});

}  // namespace gprsim::campaign
