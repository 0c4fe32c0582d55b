// The unified evaluation API: one vocabulary for "evaluate this GPRS
// scenario" regardless of how the answer is computed.
//
//   eval layer      (this file + registry.hpp + backends.hpp + batch.hpp)
//        ^ ScenarioQuery -> Evaluator::evaluate -> Result<PointEvaluation>
//          grids: Evaluator::plan_grids -> execute_plans (batch.hpp) ->
//          GridPlan::collect, merged across backends by
//          eval::evaluate_campaign; evaluate_grid(s) wrap one plan;
//          string-keyed BackendRegistry; built-ins erlang / ctmc / des /
//          mm1k-approx / fixed-point / fluid / network-fp / network-des,
//          out-of-tree backends register alongside them
//   model/sim layer core::GprsModel, sim::ExperimentEngine, queueing::*
//   consumers       campaign::CampaignRunner, gprsim_cli, benches, tests,
//                   out-of-tree code via find_package(gprsim)
//
// The paper's contribution is comparing the SAME scenario across analysis
// methods (closed-form Erlang bounds, the CTMC model, the validating
// simulator); this layer makes "a way to evaluate a scenario" a first-class
// object so new routes (queueing approximations, fluid or transient
// backends) plug in without touching the campaign runner, spec parser, or
// CLI. Contract: no exception crosses evaluate() or the tasks of a
// plan_grids() plan — every failure surfaces as a typed common::EvalError
// inside a common::Result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

/// Knobs consumed by iterative (chain-solving) backends.
struct SolverKnobs {
    double tolerance = 1e-9;
    long long max_iterations = 200000;
    /// Iteration scheme, by canonical ctmc::method_name spelling
    /// ("gauss_seidel", "red_black_gauss_seidel"). "auto"
    /// (the default) lets the engine's cost model pick per point; the
    /// decision and its reasoning land in PointEvaluation::solver_method /
    /// solver_reason. Unknown spellings fail validated() with
    /// invalid_query. Campaign points solve at width 1 (the points are the
    /// parallelism), where auto deterministically picks serial
    /// Gauss-Seidel — so the default produces bitwise the same measures as
    /// explicit "gauss_seidel".
    std::string method = "auto";

    /// What is out of range, or empty when every knob is valid.
    std::string invalid_reason() const;
};

/// Knobs consumed by stochastic (simulating) backends.
struct SimulationKnobs {
    int replications = 4;
    std::uint64_t seed = 1;
    double warmup_time = 1500.0;
    int batch_count = 10;
    double batch_duration = 1500.0;  ///< [s]
    bool tcp = true;                 ///< TCP Reno vs open-loop sources

    /// What is out of range, or empty when every knob is valid.
    std::string invalid_reason() const;
};

/// Knobs consumed by the large-population approximation backends
/// (fixed-point, fluid). Tolerances trade accuracy against per-point cost;
/// both backends report how hard they worked in PointEvaluation
/// iterations/residual.
struct ApproxKnobs {
    // fixed-point decomposition
    double fp_tolerance = 1e-10;  ///< max relative change of the iterate
    double fp_damping = 1.0;      ///< step fraction in (0, 1]
    int fp_max_iterations = 5000;
    // fluid ODE integrator
    double ode_rel_tol = 1e-8;
    double ode_abs_tol = 1e-10;
    long long ode_max_steps = 200000;
    /// Stationarity threshold on the scaled drift norm [1/s].
    double ode_stationary_rate = 1e-9;

    /// What is out of range, or empty when every knob is valid.
    std::string invalid_reason() const;
};

/// Knobs consumed by the multi-cell network backends (network-fp,
/// network-des): the lattice shape, the mobility model, and the outer
/// fixed-point controls. The single-cell backends ignore the block.
struct NetworkKnobs {
    // Lattice (src/network/lattice.hpp).
    int cells_x = 2;
    int cells_y = 2;
    /// "grid4", "grid8", "hex", or "clique".
    std::string topology = "grid4";
    bool wrap = true;              ///< periodic boundary (torus)
    int reuse_factor = 1;          ///< frequency-reuse channel split
    int ra_block = 0;              ///< routing-area tile edge; 0 = one area
    // Mobility (src/network/mobility.hpp).
    double speed_kmh = 3.0;
    double reference_speed_kmh = 3.0;
    double drift = 0.0;            ///< eastward bias in [0, 1)
    // network-fp outer iteration.
    /// Single-cell backend delegated to for the per-cell solves
    /// ("ctmc", "fixed-point", "fluid", ...; never a network backend).
    std::string inner_backend = "ctmc";
    double outer_tolerance = 1e-12;
    double outer_damping = 1.0;    ///< inflow step fraction in (0, 1]
    int outer_max_iterations = 50;

    /// What is out of range, or empty when every knob is valid (the lattice
    /// topology by name; the inner backend's registry membership is the
    /// caller's check).
    std::string invalid_reason() const;
};

/// One evaluable scenario point: a complete cell configuration, the load to
/// apply, and the per-backend knobs. Backends read the knob block they
/// understand and ignore the rest, so the same query can be handed to every
/// registered backend.
struct ScenarioQuery {
    /// Complete cell configuration; `parameters.call_arrival_rate` is
    /// overwritten with `call_arrival_rate` before evaluation.
    core::Parameters parameters;
    /// Combined GSM+GPRS arrival rate [calls/s]; must be positive.
    double call_arrival_rate = 0.5;

    SolverKnobs solver;
    SimulationKnobs simulation;
    ApproxKnobs approx;
    NetworkKnobs network;

    /// Checks the query without throwing: rate positive, knobs in range,
    /// and Parameters::validate() clean. The error message names the
    /// offending field and the scenario's key parameters.
    common::Status validated() const;

    /// The parameters with the query's arrival rate applied.
    core::Parameters resolved_parameters() const {
        core::Parameters p = parameters;
        p.call_arrival_rate = call_arrival_rate;
        return p;
    }
};

/// One evaluated point with its provenance: which backend produced it and
/// how hard it had to work. Iterative backends fill iterations/residual
/// (and, under a grid's warm-start schedule, warm_parent/warm_started);
/// stochastic backends set has_confidence and attach the full
/// replication-pooled detail in `sim`.
struct PointEvaluation {
    std::string backend;
    double call_arrival_rate = 0.0;
    core::Measures measures;

    // --- iterative provenance -------------------------------------------
    long long iterations = 0;
    double residual = 0.0;
    /// Method the solve actually executed (ctmc::method_name spelling) and
    /// why — the cost-model explanation when SolverKnobs::method was
    /// "auto", the upgrade note when a serial method was promoted for a
    /// parallel run, empty when the explicit choice ran as-is.
    std::string solver_method;
    std::string solver_reason;
    /// Grid index whose warm-start information this point was offered;
    /// -1 = cold (also for all non-grid evaluations).
    int warm_parent = -1;
    /// Whether the transferred candidate beat the cold start.
    bool warm_started = false;

    // --- stochastic provenance ------------------------------------------
    /// True when `measures` are replication-pooled means and `sim` carries
    /// the 95% CI detail.
    bool has_confidence = false;
    sim::ExperimentResults sim;

    // --- network provenance (network-fp / network-des only) --------------
    /// Per-cell measures in lattice cell order; `measures` is then the
    /// network aggregate. Empty for single-cell backends.
    std::vector<core::Measures> cell_measures;
    /// network-fp: per-cell inflow residual at the final outer iteration
    /// (`iterations` counts the outer loop, `residual` its max norm).
    std::vector<double> cell_residuals;
    /// Routing-area updates per second, network-wide (0 without routing
    /// areas).
    double rau_rate = 0.0;

    double wall_seconds = 0.0;
};

/// Grid-evaluation settings for Evaluator::plan_grids and the
/// evaluate_grid(s) wrappers. Sharding never changes any output (the eval
/// layer inherits the engines' bitwise thread-count invariance).
struct GridOptions {
    /// Execution width: 0 = all hardware threads, <= 1 = serial.
    int num_threads = 1;
    /// Pool to shard on; nullptr (or width <= 1) evaluates serially.
    /// Not owned; must be at least num_threads wide.
    common::ThreadPool* pool = nullptr;
    /// Offset added to each point's grid index when stochastic backends
    /// derive per-task random substream blocks: the des backend uses block
    /// (grid_offset + i) * stride + r, where the stride is the batch's
    /// largest replication budget (equal to the query's own R whenever the
    /// batch shares one budget — every single-grid call and every campaign
    /// does). Callers evaluating several grids under one experiment seed
    /// (the campaign runner's variants) pass disjoint offsets so no two
    /// tasks share a substream. Multi-grid entry points (evaluate_grids /
    /// plan_grids) advance the offset by rates.size() per query
    /// themselves, so query q's point i sits on block
    /// (grid_offset + q * rates.size() + i) * stride + r.
    std::uint64_t grid_offset = 0;
    /// Invoked after each finished point (under the plan's lock, NOT in
    /// grid order) with the flat batch index q * rates.size() + i of point
    /// i of query q and the finished evaluation.
    std::function<void(std::size_t, const PointEvaluation&)> progress;
};

/// Per-query outcome of a multi-grid batch: the query's full rate grid (one
/// PointEvaluation per rate, grid order) or the typed error that stopped
/// that query. One query's failure never poisons the others' slots.
using GridOutcome = common::Result<std::vector<PointEvaluation>>;

/// One unit of a backend's batched work, contributed to a merged task set.
/// Tasks carrying the same wave may run concurrently (with any same-wave
/// task of any backend); a task may assume every task of every earlier
/// wave has finished. `run` must not throw — failures are recorded in the
/// plan's shared state and surface from GridPlan::collect.
struct BatchTask {
    std::size_t wave = 0;
    std::function<void()> run;
};

/// A backend's contribution to a (possibly multi-backend) batch, produced
/// by Evaluator::plan_grids: wave-tagged tasks plus a serial collect step.
/// The executor (eval/batch.hpp) runs the merged task set wave by wave on
/// one pool, so the narrow early waves of one grid's dependency schedule
/// interleave with other grids' wide waves, then invokes each plan's
/// collect serially. Tasks only write plan-private state captured in their
/// closures; all cross-plan coordination is the executor's wave barrier.
struct GridPlan {
    std::vector<BatchTask> tasks;
    /// Assembles the per-query outcomes. Called exactly once, serially,
    /// after every task of every merged plan has finished; performs the
    /// order-sensitive reductions (replication pooling, first-error-in-
    /// grid-order selection) so results stay thread-count-invariant.
    std::function<std::vector<GridOutcome>()> collect;
    /// Dependency depth of this plan: 1 + the largest task wave (0 when
    /// the plan has no tasks).
    std::size_t waves = 0;
};

/// "rate=0.5 calls/s, N=20 channels (1 PDCH reserved), M=50, K=100, ..." —
/// the scenario context every EvalError message embeds so a failure names
/// the point that produced it.
std::string scenario_context(const core::Parameters& parameters, double call_arrival_rate);

/// A way to evaluate a GPRS scenario. Implementations must be safe to call
/// concurrently from several threads (the built-ins are stateless between
/// calls) and must not let any exception escape the virtual entry points —
/// failures are returned as typed EvalErrors.
class Evaluator {
public:
    virtual ~Evaluator() = default;

    /// Registry key, e.g. "ctmc".
    virtual const std::string& name() const = 0;
    /// One-line human description for --list-backends.
    virtual const std::string& description() const = 0;

    /// Evaluates a single scenario point.
    virtual common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) = 0;

    /// Plans every query's ascending rate grid as wave-tagged tasks without
    /// executing them; execute_plans (batch.hpp) runs the tasks, possibly
    /// merged with other backends' plans, and GridPlan::collect returns one
    /// GridOutcome per query (query order). The default is the pointwise
    /// plan: one dependency-free wave-0 task per (query, point) calling
    /// evaluate(), the first failing point in grid order reported per
    /// query. Backends with internal dependency structure (ctmc's
    /// warm-start schedule, network-fp's outer waves) or finer task grain
    /// (des replications) override it. Implementations copy queries and
    /// rates into the plan's shared state, so the caller's buffers only
    /// need to outlive this call. GridOptions::pool is ignored at planning
    /// time: tasks run wherever the executor schedules them and must never
    /// touch a pool themselves.
    virtual GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                                std::span<const double> rates,
                                const GridOptions& options = {});

    /// Runs this backend's plan for several scenario variants over one
    /// shared rate grid on options.pool and collects it: one GridOutcome
    /// per query, one query's failure never poisoning another's slot.
    /// Results are invariant to the thread count.
    std::vector<GridOutcome> evaluate_grids(std::span<const ScenarioQuery> queries,
                                            std::span<const double> rates,
                                            const GridOptions& options = {});

    /// The one-query evaluate_grids: one PointEvaluation per rate, in grid
    /// order, or the first failing point's typed error.
    common::Result<std::vector<PointEvaluation>> evaluate_grid(
        const ScenarioQuery& base, std::span<const double> rates,
        const GridOptions& options = {});
};

}  // namespace gprsim::eval
