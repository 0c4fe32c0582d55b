// Solver microbench backing the paper's methodological claim (Section 1):
// "sensitive performance measures can be computed on a modern PC within few
// minutes of CPU solution time" — and how far idle threads push that claim.
//
// For each case the harness solves the chain once with Gauss-Seidel on the
// CSR matrix (to_qt_matrix(), the reference operator, one thread) as the
// baseline, then with Gauss-Seidel on the generator's stencil, the
// operator campaigns run, across thread counts: at one thread the solve
// runs alone, wider it runs its sweep groups as a team on the engine's
// pool. Every stencil run must reproduce the baseline bitwise (maxdiff 0 —
// the record doubles as a stencil and team check), so its speedup is the
// stencil's and the team's over the CSR.
// Records land in BENCH_solver.json (--json=PATH to override) so later PRs
// can diff the perf trajectory.
//
//   micro_solver [--full] [--m=N] [--threads=N] [--json=PATH] [--no-campaign]
//
// --threads caps the widest configuration measured: the ladder is
// {1, 2, 4, ..., cap}, so --threads=1 runs just the serial solves and
// --threads=0 ladders up to every hardware thread; with no flag the cap is
// min(8, 2 x hardware threads). The quick default solves M = 10 (~130k
// states, finishes in seconds); --full solves the Fig. 10 mid-size
// configuration M = 100 (~10 million states); --m=N picks any session cap
// in between. The campaign timing section (a multi-variant ctmc + des
// campaign and the network-scaling study, a few seconds) runs by default;
// --no-campaign skips it when iterating on the solver kernels alone.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/thread_pool.hpp"
#include "eval/evaluator.hpp"
#include "eval/registry.hpp"
#include "core/handover.hpp"
#include "core/initial_guess.hpp"
#include "core/model.hpp"
#include "ctmc/engine.hpp"
#include "traffic/threegpp.hpp"

namespace {

using namespace gprsim;

core::Parameters fig10_parameters(int max_sessions) {
    // Fig. 10 operating point: traffic model 1, 2 reserved PDCHs, 5% GPRS.
    core::Parameters p = core::Parameters::with_traffic_model(traffic::traffic_model_1());
    p.reserved_pdch = 2;
    p.gprs_fraction = 0.05;
    p.max_gprs_sessions = max_sessions;
    p.call_arrival_rate = 0.5;
    return p;
}

double max_norm_distance(const std::vector<double>& a, const std::vector<double>& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    }
    return worst;
}

}  // namespace

int main(int argc, char** argv) try {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int hw = common::ThreadPool::hardware_threads();
    // Repo-wide --threads semantics: 0 = all hardware threads, 1 = serial
    // only, N = ladder up to N. With no flag the ladder tops out at
    // min(8, 2*hw) so the table is informative on any machine.
    int m_sessions = args.full ? 100 : 10;
    bool run_campaign = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--m=", 4) == 0) {
            m_sessions = std::atoi(argv[i] + 4);
        } else if (std::strcmp(argv[i], "--no-campaign") == 0) {
            run_campaign = false;
        }
    }
    const int max_threads = args.threads_given
                                ? ctmc::SolverEngine::resolve_thread_count(args.threads)
                                : std::min(8, 2 * hw);

    bench::print_header("micro_solver -- steady-state engine: threads vs wall time");
    std::printf("hardware threads: %d, widest measured: %d\n", hw, max_threads);

    const core::Parameters p = fig10_parameters(m_sessions);
    const core::BalancedTraffic balanced = core::balance_handover(p);
    const core::GprsGenerator generator(p, balanced.rates);
    const std::vector<double> initial =
        core::product_form_initial(p, balanced, generator.space());

    bench::WallTimer build_timer;
    const ctmc::QtMatrix qt = generator.to_qt_matrix();
    std::printf("case: Fig. 10 %s (M = %d): %lld states, %lld transitions, "
                "CSR build %.2f s\n",
                args.full ? "mid-size" : "quick", m_sessions,
                static_cast<long long>(qt.size()),
                static_cast<long long>(qt.off_diagonal().nonzeros()),
                build_timer.seconds());

    // The engine spawns its pool on the first wide solve, so the serial
    // solves are never timed against spinning pool workers — on a 1-core
    // CI box that contention inflates the serial wall time by ~25%.
    ctmc::SolverEngine engine;
    bench::BenchJsonWriter json;
    const std::string case_name =
        "fig10_M" + std::to_string(m_sessions);

    ctmc::SolveOptions base;
    // 1e-14 on the scaled residual: the tolerance every record of the
    // trajectory has used.
    base.tolerance = 1e-14;
    base.initial = initial;
    const auto record = [&](const char* method, int threads, const ctmc::SolveResult& r) {
        json.add({.name = case_name,
                  .states = static_cast<long long>(qt.size()),
                  .method = method,
                  .threads = threads,
                  .seconds = r.seconds,
                  .iterations = static_cast<long long>(r.iterations),
                  .residual = r.residual,
                  .residual_evaluations = static_cast<long long>(r.residual_evaluations)});
    };

    // Gauss-Seidel on the CSR reference: the baseline every other run is
    // compared against.
    const ctmc::SolveResult baseline = engine.solve(qt, base);
    std::printf("\n%-26s %7s %9s %10s %12s %12s\n", "method", "threads", "sweeps",
                "seconds", "speedup", "maxdiff");
    std::printf("%-26s %7d %9lld %10.3f %12s %12s\n", "gauss_seidel (CSR)", 1,
                static_cast<long long>(baseline.iterations), baseline.seconds, "1.00x", "-");
    record("gauss_seidel", 1, baseline);

    std::vector<int> ladder;
    for (int t = 1; t <= max_threads; t *= 2) {
        ladder.push_back(t);
    }
    if (ladder.back() != max_threads) {
        ladder.push_back(max_threads);
    }

    for (int threads : ladder) {
        ctmc::SolveOptions options = base;
        options.num_threads = threads;
        const ctmc::SolveResult r = engine.solve(generator, options);
        const double diff = max_norm_distance(r.distribution, baseline.distribution);
        std::printf("%-26s %7d %9lld %10.3f %11.2fx %12.2e\n", "gauss_seidel_stencil",
                    threads, static_cast<long long>(r.iterations), r.seconds,
                    baseline.seconds / r.seconds, diff);
        record("gauss_seidel_stencil", threads, r);
        if (diff != 0.0) {
            std::fprintf(stderr,
                         "WARNING: the stencil at %d threads must be bitwise identical to "
                         "the CSR baseline (maxdiff %.2e)\n",
                         threads, diff);
        }
    }

    // Large-population approximations: one point of the
    // campaigns/large_population.json cell (4096 channels, 1000 reserved
    // PDCHs, K = 1000, M = 10^6 sessions) per approximate backend, where
    // the exact chain is out of reach by orders of magnitude. `states`
    // records the nominal exact-chain size as the (K+1) x (N+1) x (M+1)
    // product bound over the queue/voice/session dimensions — the number
    // the milliseconds-per-point wall times should be read against.
    {
        eval::ScenarioQuery query;
        query.parameters =
            core::Parameters::with_traffic_model(traffic::traffic_model_1());
        query.parameters.total_channels = 4096;
        query.parameters.reserved_pdch = 1000;
        query.parameters.buffer_capacity = 1000;
        query.parameters.max_gprs_sessions = 1000000;
        query.parameters.gprs_fraction = 0.999;
        query.parameters.flow_control_threshold = 0.7;
        query.call_arrival_rate = 400.0;
        const long long nominal_states =
            static_cast<long long>(query.parameters.buffer_capacity + 1) *
            static_cast<long long>(query.parameters.total_channels + 1) *
            static_cast<long long>(query.parameters.max_gprs_sessions + 1);
        std::printf("\nlarge-population cell: N = %d, PDCH = %d, K = %d, M = %d "
                    "(~%.1e nominal exact states)\n",
                    query.parameters.total_channels, query.parameters.reserved_pdch,
                    query.parameters.buffer_capacity,
                    query.parameters.max_gprs_sessions,
                    static_cast<double>(nominal_states));
        for (const char* backend_name : {"fixed-point", "fluid"}) {
            auto found = eval::BackendRegistry::global().find(backend_name);
            if (!found.ok()) {
                std::fprintf(stderr, "WARNING: backend %s not registered\n",
                             backend_name);
                continue;
            }
            bench::WallTimer approx_timer;
            auto point = found.value()->evaluate(query);
            const double seconds = approx_timer.seconds();
            if (!point.ok()) {
                std::fprintf(stderr, "WARNING: %s failed on the large cell: %s\n",
                             backend_name, point.error().to_string().c_str());
                continue;
            }
            std::printf("%-26s %7d %9lld %10.3f %12s %12s\n", backend_name, 1,
                        point.value().iterations, seconds, "-", "-");
            json.add({.name = "large_population_M1e6",
                      .states = nominal_states,
                      .method = backend_name,
                      .threads = 1,
                      .seconds = seconds,
                      .iterations = point.value().iterations,
                      .residual = point.value().residual});
        }
    }

    // Campaign records: the merged cross-variant task set (every variant's
    // chain solves and DES replications in one wave) of a multi-variant
    // ctmc + des campaign, and the network-scaling study; each tracks wall
    // time and the wave count.
    if (!run_campaign) {
        json.write(args.json.empty() ? "BENCH_solver.json" : args.json);
        return 0;
    }
    campaign::ScenarioSpec spec;
    spec.named("micro_campaign")
        .with_methods({"ctmc", "des"})
        .over_reserved_pdch({1, 2, 3})
        .over_gprs_fractions({0.3})
        .with_rate_grid(0.6, 1.0, 9)
        .with_tolerance(1e-10);
    spec.total_channels = 8;
    spec.buffer_capacity = 25;
    spec.max_gprs_sessions = {10};
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;

    // Network scaling: the campaigns/network_scaling.json study rebuilt
    // programmatically (1 -> 16 cells x 3 mobility speeds through the
    // analytic network fixed point, ctmc inner solves). Every lattice's
    // inner solves land on the shared pool as one flat wave-ordered task
    // set, so this record tracks how the cross-cell merge scales as
    // lattices grow.
    campaign::ScenarioSpec net_spec;
    net_spec.named("network_scaling")
        .with_methods({"network-fp"})
        .over_reserved_pdch({1})
        .over_gprs_fractions({0.1})
        .with_rate_grid(0.3, 0.9, 4)
        .with_tolerance(1e-10);
    net_spec.total_channels = 8;
    net_spec.buffer_capacity = 15;
    net_spec.max_gprs_sessions = {10};
    campaign::NetworkSpec net;
    net.cell_counts = {1, 2, 4, 8, 16};
    net.speeds_kmh = {3.0, 30.0, 120.0};
    net.knobs.ra_block = 1;
    net.knobs.outer_tolerance = 1e-12;
    net.knobs.outer_max_iterations = 100;
    net_spec.with_network(net);

    campaign::CampaignRunner campaign_runner(engine);
    campaign::CampaignOptions options;
    options.num_threads = max_threads;
    for (const auto& [record, run_spec] : {std::pair{"campaign_3var_ctmc_des", &spec},
                                           std::pair{"network_scaling_fp", &net_spec}}) {
        bench::WallTimer campaign_timer;
        const campaign::CampaignResult result = campaign_runner.run(*run_spec, options);
        const double seconds = campaign_timer.seconds();
        long long iterations = 0;
        for (const campaign::BackendTotals& totals : result.summary.backends) {
            iterations += totals.iterations;
        }
        std::printf("\n%s: %zu points, %d threads: %.3f s (%zu waves, %zu tasks)\n", record,
                    result.summary.points, result.summary.threads, seconds,
                    result.summary.batch_waves, result.summary.batch_tasks);
        json.add({.name = record,
                  .states = static_cast<long long>(result.summary.points),
                  .dispatch = "batched",
                  .threads = result.summary.threads,
                  .seconds = seconds,
                  .iterations = iterations});
    }

    json.write(args.json.empty() ? "BENCH_solver.json" : args.json);
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "micro_solver: %s\n", e.what());
    return 1;
}
