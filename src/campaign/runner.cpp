#include "campaign/runner.hpp"

#include <chrono>
#include <utility>

#include "eval/batch.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {

CampaignWorkload build_campaign_workload(const ScenarioSpec& spec,
                                         const CampaignOptions& options) {
    CampaignWorkload workload;
    workload.effective = spec;
    if (!options.solver_method_override.empty()) {
        workload.effective.solver.method = options.solver_method_override;
    }
    workload.variants = workload.effective.expand();  // validates the spec

    // One ScenarioQuery per variant; every backend reads the knob block it
    // understands from the same query list.
    const ScenarioSpec& effective = workload.effective;
    workload.queries.resize(workload.variants.size());
    for (std::size_t v = 0; v < workload.variants.size(); ++v) {
        const Variant& variant = workload.variants[v];
        eval::ScenarioQuery& query = workload.queries[v];
        query.parameters = variant.parameters;
        query.solver = effective.solver;
        query.simulation = effective.simulation;
        query.approx = effective.approx;
        if (effective.network.enabled) {
            query.network = effective.network.knobs;
            query.network.cells_x = variant.cells_x;
            query.network.cells_y = variant.cells_y;
            query.network.speed_kmh = variant.speed_kmh;
            query.network.reuse_factor = variant.reuse_factor;
        }
    }
    return workload;
}

common::Result<CampaignResult> assemble_campaign(
    const CampaignWorkload& workload, std::vector<std::vector<eval::GridOutcome>> outcomes) {
    const ScenarioSpec& effective = workload.effective;
    const std::vector<double>& rates = effective.rates;
    const std::size_t num_rates = rates.size();
    const std::size_t num_variants = workload.variants.size();
    const std::size_t num_points = num_variants * num_rates;
    const std::size_t num_methods = effective.methods.size();

    CampaignResult result;
    result.name = effective.name;
    result.methods = effective.methods;
    result.rates = rates;
    result.points.resize(num_points);
    for (std::size_t v = 0; v < num_variants; ++v) {
        for (std::size_t r = 0; r < num_rates; ++r) {
            CampaignPoint& point = result.points[v * num_rates + r];
            point.variant = v;
            point.rate_index = r;
            point.call_arrival_rate = rates[r];
            point.evaluations.resize(num_methods);
            point.deltas.resize(num_methods);
        }
    }

    // Store every slice, surfacing the first failure (backend-major,
    // variant-minor scan order) as its typed error.
    for (std::size_t b = 0; b < num_methods; ++b) {
        for (std::size_t v = 0; v < num_variants; ++v) {
            eval::GridOutcome& outcome = outcomes[b][v];
            if (!outcome.ok()) {
                return common::EvalError{
                    outcome.error().code,
                    "campaign backend \"" + effective.methods[b] +
                        "\": " + outcome.error().to_string()};
            }
            std::vector<eval::PointEvaluation> evaluations = outcome.take();
            for (std::size_t r = 0; r < num_rates; ++r) {
                result.points[v * num_rates + r].evaluations[b] =
                    std::move(evaluations[r]);
            }
        }
    }

    // Serial, point-ordered post-processing: pairwise deltas against the
    // first backend and the per-backend totals are independent of
    // execution order.
    CampaignSummary& summary = result.summary;
    summary.variants = num_variants;
    summary.points = num_points;
    summary.backends.resize(num_methods);
    for (std::size_t b = 0; b < num_methods; ++b) {
        summary.backends[b].backend = effective.methods[b];
    }
    for (CampaignPoint& point : result.points) {
        const core::Measures& reference = point.evaluations.front().measures;
        for (std::size_t b = 0; b < num_methods; ++b) {
            const eval::PointEvaluation& evaluation = point.evaluations[b];
            const core::Measures& other = evaluation.measures;
            if (b > 0) {
                point.deltas[b] = {
                    reference.carried_data_traffic - other.carried_data_traffic,
                    reference.packet_loss_probability - other.packet_loss_probability,
                    reference.queueing_delay - other.queueing_delay,
                    reference.throughput_per_user_kbps - other.throughput_per_user_kbps,
                };
            }
            BackendTotals& totals = summary.backends[b];
            ++totals.points;
            totals.iterations += evaluation.iterations;
            totals.replications += static_cast<long long>(evaluation.sim.replications.size());
            totals.events += evaluation.sim.events_executed;
            totals.warm_offered += evaluation.warm_parent >= 0 ? 1 : 0;
            totals.warm_won += evaluation.warm_started ? 1 : 0;
        }
    }
    result.variants = workload.variants;
    return result;
}

CampaignResult CampaignRunner::run(const ScenarioSpec& spec, const CampaignOptions& options) {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignWorkload workload = build_campaign_workload(spec, options);

    const int width = common::ThreadPool::resolve_thread_count(options.num_threads);
    eval::GridOptions grid;
    grid.num_threads = width;
    grid.pool = width > 1 ? &engine_.pool(width) : nullptr;
    grid.progress = options.solve_progress;

    // Every backend plans its (variant, rate[, replication]) work and
    // eval::evaluate_campaign runs the union as one flat wave-ordered task
    // set on the engine's pool. Each plan writes a disjoint slice of the
    // point table, so output stays a pure function of the spec at every
    // width.
    eval::CampaignRequest request;
    request.backends = workload.effective.methods;
    request.queries = workload.queries;
    request.rates = workload.effective.rates;
    auto evaluated = eval::evaluate_campaign(eval::BackendRegistry::global(), request, grid);
    if (!evaluated.ok()) {
        throw SpecError(evaluated.error().message, 0);
    }
    eval::CampaignEvaluation evaluation = evaluated.take();

    auto assembled = assemble_campaign(workload, std::move(evaluation.outcomes));
    if (!assembled.ok()) {
        throw std::runtime_error(assembled.error().message);
    }
    CampaignResult result = assembled.take();
    result.summary.batch_waves = evaluation.stats.waves;
    result.summary.batch_tasks = evaluation.stats.tasks;
    result.summary.threads = width;
    result.summary.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return result;
}

CampaignResult run_campaign(const ScenarioSpec& spec, const CampaignOptions& options) {
    return CampaignRunner(ctmc::default_engine()).run(spec, options);
}

}  // namespace gprsim::campaign
