// The multi-cell evaluation backends (declared in eval/backends.hpp):
//
//   network-fp   outer fixed point over the lattice's handover inflows
//                (network/coupling.hpp); each cell solved by the delegated
//                single-cell backend under a pinned inflow. plan_grids lays
//                every outer iteration out as one wave of per-cell tasks,
//                with the serial damped inflow update folded exactly once
//                per (point, wave) — so a merged campaign solves all cells
//                of all points of one iteration concurrently, and output
//                stays bitwise invariant to thread count and to merging.
//   network-des  replications of the detailed simulator in network mode
//                (per-cell parameters, weighted handover targets, routing
//                areas, per-cell measurement), pooled like the des backend
//                with the same substream-block discipline.
//
// Both aggregate per-cell measures with network::aggregate_measures and
// attach the full per-cell detail to PointEvaluation::cell_measures.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "eval/backend_util.hpp"
#include "eval/backends.hpp"
#include "network/coupling.hpp"
#include "network/lattice.hpp"
#include "network/mobility.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

namespace {

using common::EvalError;
using common::EvalErrorCode;
using detail::WallClock;
using detail::check_grid;
using detail::failed_plan;
using detail::first_error;
using detail::guarded;
using detail::probe_queries;

/// Lattice of the query: the resolved cell parameters replicated over the
/// knobs' shape, reuse split applied by CellLattice::build. Throws on
/// inconsistent specs (callers run under guarded / a task's try fence).
network::CellLattice lattice_from(const ScenarioQuery& query) {
    network::LatticeSpec spec;
    spec.width = query.network.cells_x;
    spec.height = query.network.cells_y;
    spec.topology = network::topology_from_string(query.network.topology);
    spec.wrap = query.network.wrap;
    spec.reuse_factor = query.network.reuse_factor;
    spec.ra_block = query.network.ra_block;
    spec.cell = query.resolved_parameters();
    return network::CellLattice::build(spec);
}

network::MobilityModel mobility_from(const ScenarioQuery& query) {
    network::MobilityModel mobility;
    mobility.speed_kmh = query.network.speed_kmh;
    mobility.reference_speed_kmh = query.network.reference_speed_kmh;
    mobility.drift = query.network.drift;
    return mobility;
}

/// A point whose lattice or fixed point cannot be built (a reuse split that
/// leaves a cell too few channels, say) fails as the query's fault, on the
/// single-point path as in the grid plan.
EvalError construction_error(const std::exception& e, const ScenarioQuery& query) {
    return {EvalErrorCode::invalid_query,
            std::string(e.what()) + " [" +
                scenario_context(query.parameters, query.call_arrival_rate) + "]"};
}

network::NetworkOptions outer_options(const ScenarioQuery& query) {
    network::NetworkOptions options;
    options.tolerance = query.network.outer_tolerance;
    options.damping = query.network.outer_damping;
    options.max_outer_iterations = query.network.outer_max_iterations;
    return options;
}

// --- network-fp -----------------------------------------------------------

class NetworkFpEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "network-fp";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "multi-cell lattice fixed point over handover inflows; per-cell solves "
            "delegate to the single-cell backend named by network.inner_backend";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            common::Result<Evaluator*> inner =
                BackendRegistry::global().find(query.network.inner_backend);
            if (!inner.ok()) {
                return inner.error();
            }
            std::optional<network::NetworkFixedPoint> fp;
            try {
                fp.emplace(lattice_from(query), mobility_from(query), query, *inner.value(),
                           outer_options(query));
            } catch (const std::exception& e) {
                return construction_error(e, query);
            }
            common::Result<network::NetworkSolution> solution = fp->solve();
            if (!solution.ok()) {
                return solution.error();
            }
            PointEvaluation point = from_solution(query, solution.take());
            point.wall_seconds = clock.seconds();
            return point;
        });
    }

    /// Grid planning as a flat wave-ordered task set: outer iteration w of
    /// every point carries wave w, one task per (query, point, cell). The
    /// first task of a point to reach wave w folds the previous iteration's
    /// inflow update exactly once (std::call_once), exploiting the
    /// executor's wave barrier — all of wave w-1's cell solves have
    /// finished. Converged points no-op their remaining waves; finish()
    /// folds the last executed wave inside the serial collect. The call
    /// sequence is identical to the serial solve() loop, so results are
    /// bitwise invariant to thread count and to merging.
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        if (common::Status g = check_grid(rates); !g.ok()) {
            return failed_plan(queries.size(), g.error());
        }

        /// One point's network solve and the per-wave fold gates
        /// (advanced[w-1] fires the fold that opens wave w).
        struct PointRun {
            network::NetworkFixedPoint fp;
            std::vector<std::once_flag> advanced;
            PointRun(network::CellLattice lattice,
                     const network::MobilityModel& mobility, const ScenarioQuery& query,
                     Evaluator& inner, const network::NetworkOptions& outer,
                     std::size_t waves)
                : fp(std::move(lattice), mobility, query, inner, outer),
                  advanced(waves > 0 ? waves - 1 : 0) {}
        };
        struct State {
            std::vector<ScenarioQuery> base;
            std::vector<double> rates;
            std::vector<std::vector<std::unique_ptr<PointRun>>> runs;  ///< [q][i]
            std::vector<std::vector<std::unique_ptr<EvalError>>> errors;
            std::mutex progress_mutex;
        };
        const std::size_t nq = queries.size();
        const std::size_t n = rates.size();
        auto state = std::make_shared<State>();
        state->base.assign(queries.begin(), queries.end());
        state->rates.assign(rates.begin(), rates.end());
        state->runs.resize(nq);
        state->errors.resize(nq);

        const std::vector<bool> planned = probe_queries(queries, rates, state->errors);
        std::size_t max_waves = 0;
        for (std::size_t q = 0; q < nq; ++q) {
            state->runs[q].resize(n);
            if (!planned[q]) {
                continue;
            }
            const ScenarioQuery& base = state->base[q];
            common::Result<Evaluator*> inner =
                BackendRegistry::global().find(base.network.inner_backend);
            if (!inner.ok()) {
                state->errors[q][0] = std::make_unique<EvalError>(inner.error());
                continue;
            }
            const std::size_t waves =
                static_cast<std::size_t>(base.network.outer_max_iterations);
            for (std::size_t i = 0; i < n; ++i) {
                ScenarioQuery query = base;
                query.call_arrival_rate = state->rates[i];
                try {
                    state->runs[q][i] = std::make_unique<PointRun>(
                        lattice_from(query), mobility_from(query), query,
                        *inner.value(), outer_options(query), waves);
                } catch (const std::exception& e) {
                    if (!state->errors[q][i]) {
                        state->errors[q][i] =
                            std::make_unique<EvalError>(construction_error(e, query));
                    }
                    continue;
                }
                max_waves = std::max(max_waves, waves);
            }
        }

        // solve_cell never throws and no-ops once the point is done, so
        // the task body needs no fence beyond the call_once gate.
        const auto run_cell = [state](std::size_t q, std::size_t i, std::size_t wave,
                                      int cell) {
            PointRun* run = state->runs[q][i].get();
            if (wave > 0) {
                std::call_once(run->advanced[wave - 1], [run] { run->fp.advance(); });
            }
            run->fp.solve_cell(cell);
        };

        GridPlan plan;
        for (std::size_t wave = 0; wave < max_waves; ++wave) {
            for (std::size_t q = 0; q < nq; ++q) {
                for (std::size_t i = 0; i < n; ++i) {
                    PointRun* run = state->runs[q][i].get();
                    if (run == nullptr ||
                        wave >= run->advanced.size() + 1) {
                        continue;
                    }
                    for (int cell = 0; cell < run->fp.cell_count(); ++cell) {
                        plan.tasks.push_back({wave, [run_cell, q, i, wave, cell] {
                                                  run_cell(q, i, wave, cell);
                                              }});
                    }
                }
            }
        }

        plan.collect = [this, state, nq, n, progress = options.progress,
                        batch_clock = WallClock()] {
            // Serial: finish() folds each point's last executed wave and
            // assembles the solution in fixed (query, point) order.
            std::size_t finished = 0;
            std::vector<std::vector<PointEvaluation>> points(nq);
            for (std::size_t q = 0; q < nq; ++q) {
                points[q].resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                    PointRun* run = state->runs[q][i].get();
                    if (run == nullptr) {
                        continue;
                    }
                    ScenarioQuery query = state->base[q];
                    query.call_arrival_rate = state->rates[i];
                    common::Result<network::NetworkSolution> solution =
                        run->fp.finish();
                    if (!solution.ok()) {
                        if (!state->errors[q][i]) {
                            state->errors[q][i] =
                                std::make_unique<EvalError>(solution.error());
                        }
                        continue;
                    }
                    points[q][i] = from_solution(query, solution.take());
                    ++finished;
                }
            }
            const double wall_each =
                batch_clock.seconds() / static_cast<double>(std::max<std::size_t>(
                                            1, finished));
            std::vector<GridOutcome> outcomes;
            outcomes.reserve(nq);
            for (std::size_t q = 0; q < nq; ++q) {
                if (const EvalError* failed = first_error(state->errors[q])) {
                    outcomes.push_back(*failed);
                    continue;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    points[q][i].wall_seconds = wall_each;
                    if (progress) {
                        std::lock_guard<std::mutex> lock(state->progress_mutex);
                        progress(q * n + i, points[q][i]);
                    }
                }
                outcomes.push_back(std::move(points[q]));
            }
            return outcomes;
        };
        return plan;
    }

private:
    PointEvaluation from_solution(const ScenarioQuery& query,
                                  network::NetworkSolution solution) {
        PointEvaluation point;
        point.backend = name();
        point.call_arrival_rate = query.call_arrival_rate;
        point.measures = solution.aggregate;
        point.cell_measures = std::move(solution.cells);
        point.cell_residuals = std::move(solution.cell_residuals);
        point.iterations = solution.outer_iterations;
        point.residual = solution.residual;
        point.rau_rate = solution.rau_rate;
        point.solver_method = query.network.inner_backend;
        char reason[128];
        std::snprintf(reason, sizeof(reason),
                      "%dx%d %s lattice: %d outer iterations, %lld inner",
                      query.network.cells_x, query.network.cells_y,
                      query.network.topology.c_str(), solution.outer_iterations,
                      solution.inner_iterations);
        point.solver_reason = reason;
        return point;
    }
};

// --- network-des ----------------------------------------------------------

class NetworkDesEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "network-des";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "multi-cell replications of the network simulator (weighted handover "
            "targets, routing areas, per-cell measurement), pooled into 95% CIs";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return detail::replicated_point(
            query, experiment_config, std::bind_front(&NetworkDesEvaluator::pooled_point, this));
    }

    /// The des backend's plan shape and substream-block discipline
    /// (detail::replication_plan), over the lattice's simulator
    /// configuration.
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        return detail::replication_plan(
            queries, rates, options, experiment_config,
            std::bind_front(&NetworkDesEvaluator::pooled_point, this));
    }

private:
    /// Simulator configuration of the query's lattice: per-cell parameters
    /// with the reuse split applied, edge weights 1 + drift*east matching
    /// the analytic mobility shares, dwell scale = speed scale, routing
    /// areas when ra_block tiles the lattice, per-cell measurement on.
    static sim::ExperimentConfig experiment_config(const ScenarioQuery& query) {
        const network::CellLattice lattice = lattice_from(query);
        const network::MobilityModel mobility = mobility_from(query);
        mobility.validate();

        sim::ExperimentConfig experiment;
        experiment.base.cell = query.resolved_parameters();
        experiment.base.warmup_time = query.simulation.warmup_time;
        experiment.base.batch_count = query.simulation.batch_count;
        experiment.base.batch_duration = query.simulation.batch_duration;
        experiment.base.tcp_enabled = query.simulation.tcp;
        experiment.replications = query.simulation.replications;
        experiment.seed = query.simulation.seed;

        const int cells = lattice.size();
        experiment.base.num_cells = cells;
        experiment.base.network_cells.reserve(static_cast<std::size_t>(cells));
        experiment.base.network_targets.resize(static_cast<std::size_t>(cells));
        experiment.base.network_weights.resize(static_cast<std::size_t>(cells));
        for (int c = 0; c < cells; ++c) {
            experiment.base.network_cells.push_back(lattice.cell_parameters(c));
            for (const network::DirectedEdge& edge : lattice.edges(c)) {
                experiment.base.network_targets[static_cast<std::size_t>(c)].push_back(
                    edge.to);
                experiment.base.network_weights[static_cast<std::size_t>(c)].push_back(
                    1.0 + mobility.drift * edge.east);
            }
        }
        experiment.base.network_dwell_scale = mobility.speed_scale();
        if (query.network.ra_block > 0) {
            experiment.base.network_routing_areas.reserve(
                static_cast<std::size_t>(cells));
            for (int c = 0; c < cells; ++c) {
                experiment.base.network_routing_areas.push_back(
                    lattice.routing_area(c));
            }
        }
        experiment.base.measure_all_cells = true;
        return experiment;
    }

    /// Pools per-replication results (replication order): per-cell means of
    /// the replication batch-means estimates, aggregated network-wide; the
    /// mid-cell CI detail lands in point.sim as usual.
    PointEvaluation pooled_point(const ScenarioQuery& query,
                                 const sim::ExperimentConfig& experiment,
                                 std::vector<sim::SimulationResults> runs,
                                 int threads_used) const {
        const sim::SimulationConfig& config = experiment.base;
        PointEvaluation point;
        point.backend = name();
        point.call_arrival_rate = query.call_arrival_rate;

        const std::size_t cells = config.network_cells.size();
        const double reps = static_cast<double>(runs.size());
        point.cell_measures.resize(cells);
        for (std::size_t c = 0; c < cells; ++c) {
            core::Measures& m = point.cell_measures[c];
            for (const sim::SimulationResults& run : runs) {
                const sim::CellEstimates& e = run.cells[c];
                m.carried_data_traffic += e.carried_data_traffic.mean;
                m.packet_loss_probability += e.packet_loss_probability.mean;
                m.queueing_delay += e.queueing_delay.mean;
                m.throughput_per_user_kbps += e.throughput_per_user_kbps.mean;
                m.mean_queue_length += e.mean_queue_length.mean;
                m.carried_voice_traffic += e.carried_voice_traffic.mean;
                m.average_gprs_sessions += e.average_gprs_sessions.mean;
                m.gsm_blocking += e.gsm_blocking.mean;
                m.gprs_blocking += e.gprs_blocking.mean;
            }
            m.carried_data_traffic /= reps;
            m.packet_loss_probability /= reps;
            m.queueing_delay /= reps;
            m.throughput_per_user_kbps /= reps;
            m.mean_queue_length /= reps;
            m.carried_voice_traffic /= reps;
            m.average_gprs_sessions /= reps;
            m.gsm_blocking /= reps;
            m.gprs_blocking /= reps;
            const core::Parameters& p = config.network_cells[c];
            m.data_throughput_kbps = m.carried_data_traffic * p.pdch_rate_kbps *
                                     (1.0 - p.block_error_rate);
        }
        double rau = 0.0;
        for (const sim::SimulationResults& run : runs) {
            rau += run.routing_area_update_rate;
        }
        point.rau_rate = rau / reps;
        point.measures = network::aggregate_measures(point.cell_measures);

        point.sim = sim::pool_replications(std::move(runs));
        point.sim.threads_used = threads_used;
        point.has_confidence = true;
        return point;
    }
};

}  // namespace

namespace detail {

void register_network_backends(BackendRegistry& registry) {
    const auto add = [&](BackendRegistry::Factory make) {
        const std::unique_ptr<Evaluator> instance = make();
        // Built-in registration cannot collide (it runs once, first).
        (void)registry.add(instance->name(), instance->description(), std::move(make));
    };
    add([] { return std::make_unique<NetworkFpEvaluator>(); });
    add([] { return std::make_unique<NetworkDesEvaluator>(); });
}

}  // namespace detail

}  // namespace gprsim::eval
