// gprsim command-line front end: analyze, simulate, or dimension a cell
// without writing C++.
//
//   gprsim_cli analyze   [options]   — solve the Markov model, print measures
//   gprsim_cli simulate  [options]   — run the network simulator (95% CIs)
//   gprsim_cli eval      [options]   — one-shot ScenarioQuery through any
//                                      registered backend (--backend=<name>)
//   gprsim_cli dimension [options]   — recommend a PDCH reservation
//   gprsim_cli campaign <spec.json> [options]
//                                    — run a declarative scenario campaign
//   gprsim_cli campaign --list-backends / eval --list-backends
//                                    — print every registered eval backend
//   gprsim_cli fit-trace <arrivals.trace>
//                                    — fit an IPP/3GPP traffic model to an
//                                      arrival-timestamp trace (JSON out);
//                                      the model a campaign's
//                                      "traffic_model": "trace:<file>" uses
//
// Common options:
//   --rate=<calls/s>      combined GSM+GPRS arrival rate   (default 0.5)
//   --gprs=<percent>      share of GPRS users              (default 5)
//   --pdch=<n>            reserved PDCHs                   (default 1)
//   --traffic=<1|2|3>     Table 3 traffic model            (default 1)
//   --channels=<n>        physical channels N              (default 20)
//   --buffer=<k>          BSC buffer K                     (default 100)
//   --m=<n>               GPRS session cap M               (traffic-model default)
//   --eta=<0..1>          flow-control threshold           (default 0.7)
//   --bler=<0..1>         RLC block error rate             (default 0)
//   --threads=<n>         solver threads; 0 = all cores    (default 1)
// simulate:
//   --seed=<n> --batches=<n> --batch-seconds=<s> --no-tcp
// eval:
//   --backend=<name>      registered backend (default ctmc)
//   --replications=<n> --seed=<n> --tolerance=<t>
//   --fp-tolerance=<t> --fp-damping=<0..1] --fp-max-iterations=<n>
//                         fixed-point backend knobs
//   --ode-rtol=<t> --ode-atol=<t> --ode-max-steps=<n>
//                         fluid backend knobs
//   --net-cells=<WxH>     lattice shape for network-fp / network-des
//                         (e.g. 2x2; default 2x2)
//   --net-topology=<t>    grid4 | grid8 | hex | clique    (default grid4)
//   --net-no-wrap         hard lattice edge instead of a torus
//   --net-reuse=<k>       frequency-reuse factor           (default 1)
//   --net-ra-block=<b>    routing-area tile edge, 0 = one RA
//   --net-speed=<km/h>    user speed                       (default 3)
//   --net-drift=<0..1)    eastward mobility bias           (default 0)
//   --net-inner=<name>    network-fp per-cell backend      (default ctmc)
//   --net-tolerance=<t> --net-damping=<0..1] --net-max-outer=<n>
//                         network-fp outer fixed-point knobs
// dimension:
//   --max-plp=<p> --max-delay=<s> --max-voice-blocking=<p>
// campaign:
//   --threads=<n>         task-sharding width (output is identical at any)
//   --replications=<n>    override the spec's replication count
//   --csv=<path>          write one row per (point, backend) as CSV
//   --out=<path>          write the rows + summary as JSON
//   --quiet               suppress per-point progress on stderr
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "core/adaptive.hpp"
#include "core/model.hpp"
#include "eval/registry.hpp"
#include "service/trace.hpp"
#include "sim/simulator.hpp"
#include "traffic/threegpp.hpp"

namespace {

using namespace gprsim;

double flag(int argc, char** argv, const char* name, double fallback) {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return std::atof(argv[i] + prefix.size());
        }
    }
    return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
    const std::string full = std::string("--") + name;
    for (int i = 2; i < argc; ++i) {
        if (full == argv[i]) {
            return true;
        }
    }
    return false;
}

std::string string_flag(int argc, char** argv, const char* name,
                        const std::string& fallback = "") {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
            return argv[i] + prefix.size();
        }
    }
    return fallback;
}

core::Parameters parameters_from_flags(int argc, char** argv) {
    const int model_id = static_cast<int>(flag(argc, argv, "traffic", 1));
    traffic::TrafficModelPreset preset = traffic::traffic_model_1();
    if (model_id == 2) {
        preset = traffic::traffic_model_2();
    } else if (model_id == 3) {
        preset = traffic::traffic_model_3();
    }
    core::Parameters p = core::Parameters::with_traffic_model(preset);
    p.call_arrival_rate = flag(argc, argv, "rate", 0.5);
    p.gprs_fraction = flag(argc, argv, "gprs", 5.0) / 100.0;
    p.reserved_pdch = static_cast<int>(flag(argc, argv, "pdch", 1));
    p.total_channels = static_cast<int>(flag(argc, argv, "channels", 20));
    p.buffer_capacity = static_cast<int>(flag(argc, argv, "buffer", 100));
    p.max_gprs_sessions = static_cast<int>(
        flag(argc, argv, "m", static_cast<double>(p.max_gprs_sessions)));
    p.flow_control_threshold = flag(argc, argv, "eta", 0.7);
    p.block_error_rate = flag(argc, argv, "bler", 0.0);
    p.validate();
    return p;
}

int cmd_analyze(int argc, char** argv) {
    core::GprsModel model(parameters_from_flags(argc, argv));
    ctmc::SolveOptions options;
    options.tolerance = 1e-9;
    // --threads=N lets up to N threads run the solve's sweep groups as a
    // team (0 = every hardware thread); the measures are bitwise those of
    // --threads=1.
    options.num_threads = static_cast<int>(flag(argc, argv, "threads", 1));
    const auto& solve = model.solve(options);
    const core::Measures m = model.measures();
    std::printf("states %lld, %lld sweeps, %.1f s (%d threads)\n",
                static_cast<long long>(model.space().size()),
                static_cast<long long>(solve.iterations), solve.seconds,
                solve.threads_used);
    std::printf("CDT %.4f PDCH | PLP %.3e | QD %.3f s | ATU %.3f kbit/s\n",
                m.carried_data_traffic, m.packet_loss_probability, m.queueing_delay,
                m.throughput_per_user_kbps);
    std::printf("CVT %.4f | AGS %.4f | GSM blocking %.3e | GPRS blocking %.3e\n",
                m.carried_voice_traffic, m.average_gprs_sessions, m.gsm_blocking,
                m.gprs_blocking);
    return 0;
}

int cmd_simulate(int argc, char** argv) {
    sim::SimulationConfig config;
    config.cell = parameters_from_flags(argc, argv);
    config.seed = static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
    config.batch_count = static_cast<int>(flag(argc, argv, "batches", 15));
    config.batch_duration = flag(argc, argv, "batch-seconds", 2000.0);
    config.warmup_time = config.batch_duration;
    config.tcp_enabled = !has_flag(argc, argv, "no-tcp");
    const sim::SimulationResults r = sim::NetworkSimulator(config).run();
    const auto row = [](const char* name, const sim::MetricEstimate& e) {
        std::printf("%-28s %10.4f +- %.4f\n", name, e.mean, e.half_width);
    };
    row("CDT [PDCH]", r.carried_data_traffic);
    row("PLP", r.packet_loss_probability);
    row("QD [s]", r.queueing_delay);
    row("ATU [kbit/s]", r.throughput_per_user_kbps);
    row("CVT [TCH]", r.carried_voice_traffic);
    row("AGS", r.average_gprs_sessions);
    row("GSM blocking", r.gsm_blocking);
    row("GPRS blocking", r.gprs_blocking);
    std::printf("%.2e events in %.1f s wall\n", static_cast<double>(r.events_executed),
                r.wall_seconds);
    return 0;
}

int list_backends() {
    std::printf("registered eval backends:\n");
    for (const eval::BackendInfo& info : eval::BackendRegistry::global().list()) {
        std::printf("  %-12s %s\n", info.name.c_str(), info.description.c_str());
    }
    return 0;
}

int cmd_eval(int argc, char** argv) {
    if (has_flag(argc, argv, "list-backends")) {
        return list_backends();
    }
    const std::string backend_name = string_flag(argc, argv, "backend", "ctmc");
    auto backend = eval::BackendRegistry::global().find(backend_name);
    if (!backend.ok()) {
        std::fprintf(stderr, "error: %s\n", backend.error().to_string().c_str());
        return 1;
    }

    eval::ScenarioQuery query;
    query.parameters = parameters_from_flags(argc, argv);
    query.call_arrival_rate = query.parameters.call_arrival_rate;
    query.solver.tolerance = flag(argc, argv, "tolerance", 1e-9);
    query.simulation.replications =
        static_cast<int>(flag(argc, argv, "replications", 4));
    query.simulation.seed = static_cast<std::uint64_t>(flag(argc, argv, "seed", 1));
    query.approx.fp_tolerance =
        flag(argc, argv, "fp-tolerance", query.approx.fp_tolerance);
    query.approx.fp_damping = flag(argc, argv, "fp-damping", query.approx.fp_damping);
    query.approx.fp_max_iterations = static_cast<int>(flag(
        argc, argv, "fp-max-iterations",
        static_cast<double>(query.approx.fp_max_iterations)));
    query.approx.ode_rel_tol = flag(argc, argv, "ode-rtol", query.approx.ode_rel_tol);
    query.approx.ode_abs_tol = flag(argc, argv, "ode-atol", query.approx.ode_abs_tol);
    query.approx.ode_max_steps = static_cast<long long>(flag(
        argc, argv, "ode-max-steps", static_cast<double>(query.approx.ode_max_steps)));
    if (const std::string shape = string_flag(argc, argv, "net-cells");
        !shape.empty()) {
        const std::size_t x = shape.find('x');
        if (x == std::string::npos) {
            std::fprintf(stderr, "error: --net-cells expects WxH, e.g. 2x2\n");
            return 1;
        }
        query.network.cells_x = std::atoi(shape.c_str());
        query.network.cells_y = std::atoi(shape.c_str() + x + 1);
    }
    query.network.topology =
        string_flag(argc, argv, "net-topology", query.network.topology);
    query.network.wrap = !has_flag(argc, argv, "net-no-wrap");
    query.network.reuse_factor = static_cast<int>(
        flag(argc, argv, "net-reuse", query.network.reuse_factor));
    query.network.ra_block =
        static_cast<int>(flag(argc, argv, "net-ra-block", query.network.ra_block));
    query.network.speed_kmh = flag(argc, argv, "net-speed", query.network.speed_kmh);
    query.network.drift = flag(argc, argv, "net-drift", query.network.drift);
    query.network.inner_backend =
        string_flag(argc, argv, "net-inner", query.network.inner_backend);
    query.network.outer_tolerance =
        flag(argc, argv, "net-tolerance", query.network.outer_tolerance);
    query.network.outer_damping =
        flag(argc, argv, "net-damping", query.network.outer_damping);
    query.network.outer_max_iterations = static_cast<int>(
        flag(argc, argv, "net-max-outer", query.network.outer_max_iterations));

    const common::Result<eval::PointEvaluation> evaluated =
        backend.value()->evaluate(query);
    if (!evaluated.ok()) {
        std::fprintf(stderr, "error: %s\n", evaluated.error().to_string().c_str());
        return 1;
    }
    const eval::PointEvaluation& point = evaluated.value();
    const core::Measures& m = point.measures;
    std::printf("backend %s @ rate %.3f calls/s\n", point.backend.c_str(),
                point.call_arrival_rate);
    std::printf("CDT %.4f PDCH | PLP %.3e | QD %.3f s | ATU %.3f kbit/s\n",
                m.carried_data_traffic, m.packet_loss_probability, m.queueing_delay,
                m.throughput_per_user_kbps);
    std::printf("CVT %.4f | AGS %.4f | GSM blocking %.3e | GPRS blocking %.3e\n",
                m.carried_voice_traffic, m.average_gprs_sessions, m.gsm_blocking,
                m.gprs_blocking);
    if (point.iterations > 0) {
        std::printf("provenance: %lld sweeps, residual %.2e, %.2f s\n", point.iterations,
                    point.residual, point.wall_seconds);
        if (!point.solver_method.empty()) {
            std::printf("  method %s: %s\n", point.solver_method.c_str(),
                        point.solver_reason.c_str());
        }
    } else if (point.has_confidence) {
        std::printf("provenance: %zu replications, CDT +- %.4f, %.2f s\n",
                    point.sim.replications.size(), point.sim.carried_data_traffic.half_width,
                    point.wall_seconds);
    } else {
        std::printf("provenance: closed form, %.4f s\n", point.wall_seconds);
    }
    if (!point.cell_measures.empty()) {
        std::printf("network: %zu cells (aggregate above), RAU rate %.4f /s\n",
                    point.cell_measures.size(), point.rau_rate);
    }
    return 0;
}

int cmd_dimension(int argc, char** argv) {
    core::QosTargets targets;
    targets.max_packet_loss = flag(argc, argv, "max-plp", 1e-2);
    targets.max_queueing_delay = flag(argc, argv, "max-delay", 2.0);
    targets.max_gsm_blocking = flag(argc, argv, "max-voice-blocking", 1.0);
    const core::Parameters p = parameters_from_flags(argc, argv);
    const int max_pdch = std::min(static_cast<int>(flag(argc, argv, "max-pdch", 8)),
                                  p.total_channels - 1);
    const core::AdaptationResult r = core::recommend_reservation(p, targets, max_pdch);
    std::printf("%s reservation: %d PDCH (PLP %.3e, QD %.3f s, voice blocking %.3e)\n",
                r.feasible ? "recommended" : "best-effort (targets unreachable)",
                r.reserved_pdch, r.measures.packet_loss_probability,
                r.measures.queueing_delay, r.measures.gsm_blocking);
    return r.feasible ? 0 : 2;
}

int cmd_campaign(int argc, char** argv) {
    if (has_flag(argc, argv, "list-backends")) {
        return list_backends();
    }
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr,
                     "usage: gprsim_cli campaign <spec.json> [options]\n"
                     "       gprsim_cli campaign --list-backends\n");
        return 1;
    }
    const std::string path = argv[2];
    campaign::ScenarioSpec spec;
    try {
        spec = campaign::parse_spec_file(path);
    } catch (const campaign::SpecError& e) {
        std::fprintf(stderr, "error in %s: %s\n", path.c_str(), e.what());
        return 1;
    }
    if (const int replications = static_cast<int>(flag(argc, argv, "replications", 0));
        replications > 0) {
        spec.simulation.replications = replications;
    }

    campaign::CampaignOptions options;
    options.num_threads = static_cast<int>(flag(argc, argv, "threads", 1));
    if (!has_flag(argc, argv, "quiet")) {
        options.solve_progress = [](std::size_t flat, const eval::PointEvaluation& e) {
            if (e.has_confidence) {
                std::fprintf(stderr, "  point %zu [%s]: rate %.3f, %zu replications\n", flat,
                             e.backend.c_str(), e.call_arrival_rate,
                             e.sim.replications.size());
                return;
            }
            std::fprintf(stderr, "  point %zu [%s]: rate %.3f, %lld iterations%s\n", flat,
                         e.backend.c_str(), e.call_arrival_rate, e.iterations,
                         e.warm_started ? " (warm)" : "");
        };
    }

    const campaign::CampaignResult result = campaign::run_campaign(spec, options);

    // Compact per-point table: CDT/PLP/QD/ATU of every backend (with the
    // 95% half-width of CDT for simulating backends), then each later
    // backend's CDT delta against the first.
    for (std::size_t v = 0; v < result.variants.size(); ++v) {
        std::printf("\n--- %s ---\n", result.variants[v].label.c_str());
        for (std::size_t r = 0; r < result.rates.size(); ++r) {
            const campaign::CampaignPoint& point = result.at(v, r);
            for (std::size_t b = 0; b < point.evaluations.size(); ++b) {
                const eval::PointEvaluation& e = point.evaluations[b];
                const core::Measures& m = e.measures;
                std::printf("%8.3f %-12s | CDT %9.4f", point.call_arrival_rate,
                            e.backend.c_str(), m.carried_data_traffic);
                if (e.has_confidence) {
                    std::printf(" +- %7.4f", e.sim.carried_data_traffic.half_width);
                }
                std::printf(" | PLP %10.3e | QD %8.3f | ATU %9.4f",
                            m.packet_loss_probability, m.queueing_delay,
                            m.throughput_per_user_kbps);
                if (b > 0) {
                    std::printf(" | dCDT %+9.4f", point.deltas[b].cdt);
                }
                std::printf("\n");
            }
        }
    }
    campaign::print_campaign_summary(result, stdout);

    bool sinks_ok = true;
    if (const std::string csv = string_flag(argc, argv, "csv"); !csv.empty()) {
        if (campaign::write_campaign_csv(result, csv)) {
            std::printf("wrote %zu points x %zu backends to %s\n", result.points.size(),
                        result.methods.size(), csv.c_str());
        } else {
            sinks_ok = false;
        }
    }
    if (const std::string json = string_flag(argc, argv, "out"); !json.empty()) {
        if (campaign::write_campaign_json(result, json)) {
            std::printf("wrote campaign JSON to %s\n", json.c_str());
        } else {
            sinks_ok = false;
        }
    }
    return sinks_ok ? 0 : 1;
}

int cmd_fit_trace(int argc, char** argv) {
    if (argc < 3 || argv[2][0] == '-') {
        std::fprintf(stderr, "usage: gprsim_cli fit-trace <arrivals.trace>\n");
        return 1;
    }
    service::TraceIngest ingest;
    const auto fitted = ingest.fit(argv[2]);
    if (!fitted.ok()) {
        std::fprintf(stderr, "error: %s\n", fitted.error().to_string().c_str());
        return 1;
    }
    std::printf("%s\n", service::fitted_traffic_json(fitted.value()).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: gprsim_cli <analyze|simulate|eval|dimension|campaign"
                     "|fit-trace> [options]\n");
        return 1;
    }
    const std::string command = argv[1];
    try {
        if (command == "analyze") {
            return cmd_analyze(argc, argv);
        }
        if (command == "simulate") {
            return cmd_simulate(argc, argv);
        }
        if (command == "eval") {
            return cmd_eval(argc, argv);
        }
        if (command == "dimension") {
            return cmd_dimension(argc, argv);
        }
        if (command == "campaign") {
            return cmd_campaign(argc, argv);
        }
        if (command == "fit-trace") {
            return cmd_fit_trace(argc, argv);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 1;
}
