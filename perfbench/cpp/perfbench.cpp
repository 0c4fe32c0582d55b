// perfbench: the native half of the repository benchmark (run.py is the
// front end). Every timing here is taken around a call into the gprsim
// library's public API, from outside the library.
//
//   perfbench info                               compiler and build type
//   perfbench triad <array_mib> <threads>        STREAM-style triad bandwidth
//   perfbench setup <spec>                       parse + expand, then exit
//   perfbench run <spec> <threads> <out_prefix>
//       untraced: one campaign, CampaignRunner::run + write_campaign_csv;
//       writes <out_prefix>.csv and every evaluation's measures to
//       <out_prefix>.measures.csv
//   perfbench traced <spec> <threads> <out_dir>
//       one traced campaign along CampaignRunner::run's merged path, then a
//       standalone re-solve of its slowest and fastest chain point;
//       writes <out_dir>/traced.csv and <out_dir>/trace_native.json
//   perfbench replay <manifest> <workers> [<trace.json>]
//       runs each "<spec>\t<csv>\t<request id>" line of the manifest at one
//       thread per campaign, <workers> campaigns at a time, and writes the
//       CSVs; with a trace path, along the traced path (plus the probe)
//
// Each command prints one JSON object on stdout and exits 0, or prints a
// message on stderr and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "core/initial_guess.hpp"
#include "core/measures.hpp"
#include "core/model.hpp"
#include "ctmc/engine.hpp"
#include "eval/batch.hpp"
#include "eval/registry.hpp"
#include "spans.hpp"

namespace {

using namespace gprsim;
using perfbench::Recorder;
using perfbench::ScopedSpan;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

/// Peak RSS of this process so far, in MB (10^6 bytes).
double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string csv_bytes(const campaign::CampaignResult& result) {
    std::ostringstream out;
    campaign::write_campaign_csv(result, out);
    return out.str();
}

/// Every evaluation's measures, one row per (point, backend), read from
/// PointEvaluation::measures under the benchmark's own column names, so the
/// output check does not depend on the campaign CSV's layout.
std::string measures_csv(const campaign::CampaignResult& result) {
    std::string out =
        "backend,gprs_fraction,rate,cdt,plp,qd,atu,mql,cvt,ags,gsm_blocking,gprs_blocking\n";
    for (const campaign::CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& e : point.evaluations) {
            const core::Measures& m = e.measures;
            char line[512];
            std::snprintf(line, sizeof(line),
                          "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n",
                          e.backend.c_str(), result.variants[point.variant].gprs_fraction,
                          e.call_arrival_rate, m.carried_data_traffic, m.packet_loss_probability,
                          m.queueing_delay, m.throughput_per_user_kbps, m.mean_queue_length,
                          m.carried_voice_traffic, m.average_gprs_sessions, m.gsm_blocking,
                          m.gprs_blocking);
            out += line;
        }
    }
    return out;
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

/// Layer a backend's grid tasks belong to (the src/ module doing the work).
const char* layer_of(const std::string& backend) {
    if (backend == "ctmc") {
        return "ctmc";
    }
    if (backend == "des") {
        return "sim";
    }
    if (backend.rfind("network-", 0) == 0) {
        return "network";
    }
    return "queueing";
}

// --- traced campaign ------------------------------------------------------

struct Traced {
    campaign::CampaignWorkload workload;
    campaign::CampaignResult result;
    std::string csv;
};

/// CampaignRunner::run's merged path, one public call at a time, each in a
/// span: parse_spec_file -> build_campaign_workload -> plan_grids per
/// backend -> execute_plans (every BatchTask::run wrapped) -> collect per
/// plan -> assemble_campaign -> write_campaign_csv.
Traced run_traced(Recorder& rec, const std::string& spec_path, int threads,
                  ctmc::SolverEngine& engine, std::int64_t request) {
    ScopedSpan root(rec, "campaign", "campaign", request, 0);
    Traced out;
    campaign::ScenarioSpec spec;
    {
        ScopedSpan s(rec, "parse_spec_file", "campaign", request);
        spec = campaign::parse_spec_file(spec_path);
    }
    {
        ScopedSpan s(rec, "build_campaign_workload", "campaign", request);
        out.workload = campaign::build_campaign_workload(spec);
        s.arg("variants", static_cast<double>(out.workload.variants.size()));
        s.arg("rates", static_cast<double>(out.workload.num_rates()));
    }
    const std::vector<std::string>& methods = out.workload.effective.methods;
    const std::vector<double>& rates = out.workload.effective.rates;

    const int width = common::ThreadPool::resolve_thread_count(threads);
    eval::GridOptions grid;
    grid.num_threads = width;
    grid.pool = width > 1 ? &engine.pool(width) : nullptr;

    std::vector<eval::GridPlan> plans;
    for (std::size_t b = 0; b < methods.size(); ++b) {
        auto backend = eval::BackendRegistry::global().find(methods[b]);
        if (!backend.ok()) {
            throw std::runtime_error(backend.error().to_string());
        }
        ScopedSpan s(rec, "plan_grids", "eval", request);
        s.arg("plan", static_cast<double>(b));
        plans.push_back(backend.value()->plan_grids(out.workload.queries, rates, grid));
        s.arg("tasks", static_cast<double>(plans.back().tasks.size()));
    }

    std::vector<std::vector<eval::GridOutcome>> outcomes;
    {
        ScopedSpan execute(rec, "execute_plans", "eval", request);
        for (std::size_t b = 0; b < plans.size(); ++b) {
            const std::string task_name = "task:" + methods[b];
            const char* layer = layer_of(methods[b]);
            for (eval::BatchTask& task : plans[b].tasks) {
                task.run = [&rec, inner = std::move(task.run), task_name, layer, request,
                            parent = execute.id(), wave = task.wave, b] {
                    ScopedSpan s(rec, task_name, layer, request, parent);
                    s.arg("wave", static_cast<double>(wave));
                    s.arg("plan", static_cast<double>(b));
                    inner();
                };
            }
        }
        const eval::BatchStats stats = eval::execute_plans(plans, grid);
        execute.arg("tasks", static_cast<double>(stats.tasks));
        execute.arg("waves", static_cast<double>(stats.waves));
        execute.arg("max_wave_width", static_cast<double>(stats.max_wave_width));
        execute.arg("threads", static_cast<double>(width));
    }
    for (std::size_t b = 0; b < plans.size(); ++b) {
        ScopedSpan s(rec, "collect", "eval", request);
        s.arg("plan", static_cast<double>(b));
        outcomes.push_back(plans[b].collect());
    }
    {
        ScopedSpan s(rec, "assemble_campaign", "campaign", request);
        auto assembled = campaign::assemble_campaign(out.workload, std::move(outcomes));
        if (!assembled.ok()) {
            throw std::runtime_error(assembled.error().to_string());
        }
        out.result = assembled.take();
    }
    {
        ScopedSpan s(rec, "write_campaign_csv", "campaign", request);
        out.csv = csv_bytes(out.result);
        s.arg("csv_bytes", static_cast<double>(out.csv.size()));
    }
    return out;
}

/// Per-evaluation provenance of a finished campaign as JSON objects.
void append_points(const Traced& traced, std::int64_t request, std::string& json) {
    const std::size_t num_rates = traced.workload.num_rates();
    for (std::size_t i = 0; i < traced.result.points.size(); ++i) {
        const campaign::CampaignPoint& point = traced.result.points[i];
        for (const eval::PointEvaluation& e : point.evaluations) {
            char line[512];
            std::snprintf(line, sizeof(line),
                          "%s{\"request\": %lld, \"backend\": \"%s\", \"variant\": %zu, "
                          "\"rate\": %.17g, \"iterations\": %lld, \"replications\": %zu, "
                          "\"events\": %llu, \"simulated_time\": %.17g, \"cdt\": %.17g, "
                          "\"cdt_hw\": %.17g}",
                          json.empty() ? "" : ",\n", static_cast<long long>(request),
                          Recorder::escaped(e.backend).c_str(), i / num_rates,
                          e.call_arrival_rate, e.iterations, e.sim.replications.size(),
                          static_cast<unsigned long long>(e.sim.events_executed),
                          e.sim.simulated_time, e.measures.carried_data_traffic,
                          e.sim.carried_data_traffic.half_width);
            json += line;
        }
    }
}

// --- standalone chain probe -------------------------------------------------

struct ChainPoint {
    eval::ScenarioQuery query;  ///< call_arrival_rate set
    long long iterations = -1;
};

/// Re-solves one chain point one public call at a time: the GprsModel
/// constructor (handover balance + state space), the CSR build, the
/// product-form initial guess, the solve (residual checkpoints recorded via
/// SolveOptions::progress), and the measures.
void probe_chain_point(Recorder& rec, const ChainPoint& point, const char* which,
                       std::int64_t request) {
    core::Parameters p = point.query.resolved_parameters();
    ScopedSpan probe(rec, std::string("probe:") + which, "core", request, 0);
    probe.arg("rate", p.call_arrival_rate);
    probe.arg("campaign_sweeps", static_cast<double>(point.iterations));

    // The constructor is the span; the calls below are its siblings.
    const std::uint64_t model_span = rec.begin("GprsModel", "core", request);
    const core::GprsModel model(p);
    rec.end(model_span, {{"states", static_cast<double>(model.space().size())}});

    ctmc::QtMatrix qt;
    {
        ScopedSpan s(rec, "to_qt_matrix", "ctmc", request);
        qt = model.generator().to_qt_matrix();
        const auto n = static_cast<double>(qt.size());
        const auto nnz = static_cast<double>(qt.off_diagonal().nonzeros());
        const double csr_bytes = nnz * static_cast<double>(sizeof(double) + sizeof(ctmc::col_type)) +
                                 (n + 1) * static_cast<double>(sizeof(common::index_type)) +
                                 n * static_cast<double>(sizeof(double));
        s.arg("csr_bytes", csr_bytes);
        s.arg("nnz", nnz);
        // One Gauss-Seidel sweep streams the CSR arrays and diagonal once and
        // reads + writes the iterate once.
        s.arg("bytes_per_sweep", csr_bytes + 2.0 * n * static_cast<double>(sizeof(double)));
    }
    std::vector<double> initial;
    {
        ScopedSpan s(rec, "product_form_initial", "core", request);
        initial = core::product_form_initial(p, model.balanced(), model.space());
    }
    ctmc::SolveResult result;
    {
        ScopedSpan s(rec, "SolverEngine::solve", "ctmc", request);
        ctmc::SolveOptions options;
        options.method = ctmc::method_from_name(point.query.solver.method).value();
        options.tolerance = point.query.solver.tolerance;
        options.max_iterations = point.query.solver.max_iterations;
        options.num_threads = 1;
        options.initial = std::move(initial);
        long long passes = 0;
        const std::uint64_t solve_span = s.id();
        options.progress = [&rec, &passes, solve_span](common::index_type sweeps,
                                                        double residual) {
            ++passes;
            rec.counter("residual", solve_span,
                        {{"sweeps", static_cast<double>(sweeps)}, {"residual", residual}});
        };
        ctmc::SolverEngine engine;
        result = engine.solve(qt, options);
        s.arg("sweeps", static_cast<double>(result.iterations));
        s.arg("residual_passes", static_cast<double>(passes));
        s.arg("converged", result.converged ? 1.0 : 0.0);
    }
    {
        ScopedSpan s(rec, "compute_measures", "core", request);
        const core::Measures m =
            core::compute_measures(p, model.balanced(), model.space(), result.distribution);
        s.arg("cdt", m.carried_data_traffic);
    }
}

/// Tracks the slowest and fastest ctmc point (by campaign sweeps) seen.
struct ChainExtremes {
    ChainPoint slowest;
    ChainPoint fastest;

    void scan(const Traced& traced) {
        const std::size_t num_rates = traced.workload.num_rates();
        for (std::size_t i = 0; i < traced.result.points.size(); ++i) {
            for (const eval::PointEvaluation& e : traced.result.points[i].evaluations) {
                if (e.backend != "ctmc") {
                    continue;
                }
                ChainPoint candidate{traced.workload.queries[i / num_rates], e.iterations};
                candidate.query.call_arrival_rate = e.call_arrival_rate;
                if (slowest.iterations < 0 || e.iterations > slowest.iterations) {
                    slowest = candidate;
                }
                if (fastest.iterations < 0 || e.iterations < fastest.iterations) {
                    fastest = candidate;
                }
            }
        }
    }

    void probe(Recorder& rec, std::int64_t request) const {
        if (slowest.iterations >= 0) {
            probe_chain_point(rec, slowest, "slowest", request);
            probe_chain_point(rec, fastest, "fastest", request);
        }
    }
};

// --- commands -----------------------------------------------------------

int cmd_info() {
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n", PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE);
    return 0;
}

/// a[i] = b[i] + s * c[i] over three arrays of `array_mib` MiB each, split
/// across `threads`; best of five passes, counting 24 bytes per element
/// (the STREAM convention).
int cmd_triad(std::size_t array_mib, int threads) {
    const std::size_t n = array_mib * (std::size_t{1} << 20) / sizeof(double);
    std::vector<double> a(n, 0.0);
    std::vector<double> b(n, 1.0);
    std::vector<double> c(n, 2.0);
    const double scalar = 3.0;
    const auto pass = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = b[i] + scalar * c[i];
        }
    };
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back(pass, n * t / threads, n * (t + 1) / threads);
        }
        for (std::thread& th : pool) {
            th.join();
        }
        best = std::min(best, seconds_since(t0));
    }
    double checksum = 0.0;
    for (std::size_t i = 0; i < n; i += 4096) {
        checksum += a[i];
    }
    std::printf("{\"gbps\": %.6f, \"array_mib\": %zu, \"threads\": %d, \"checksum\": %.1f}\n",
                24.0 * static_cast<double>(n) / best / 1e9, array_mib, threads, checksum);
    return 0;
}

/// The caller times this process from launch to its output line.
int cmd_setup(const std::string& spec_path) {
    const campaign::ScenarioSpec spec = campaign::parse_spec_file(spec_path);
    const campaign::CampaignWorkload workload = campaign::build_campaign_workload(spec);
    std::printf("{\"queries\": %zu}\n", workload.queries.size());
    std::fflush(stdout);
    return 0;
}

/// One campaign per process, as a one-shot user runs it; the process's peak
/// RSS is then the campaign's.
int cmd_run(const std::string& spec_path, int threads, const std::string& out_prefix) {
    const campaign::ScenarioSpec spec = campaign::parse_spec_file(spec_path);
    campaign::CampaignOptions options;
    options.num_threads = threads;
    ctmc::SolverEngine engine;
    campaign::CampaignRunner runner(engine);

    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const campaign::CampaignResult result = runner.run(spec, options);
    const std::string csv = csv_bytes(result);
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - cpu0;
    write_file(out_prefix + ".csv", csv);
    write_file(out_prefix + ".measures.csv", measures_csv(result));
    std::printf("{\"wall_s\": %.9f, \"cpu_s\": %.9f, \"peak_rss_mb\": %.6f}\n", wall, cpu,
                peak_rss_mb());
    return 0;
}

int cmd_traced(const std::string& spec_path, int threads, const std::string& out_dir) {
    Recorder rec;
    ctmc::SolverEngine engine;
    const auto t0 = Clock::now();
    const Traced traced = run_traced(rec, spec_path, threads, engine, 0);
    const double wall = seconds_since(t0);
    write_file(out_dir + "/traced.csv", traced.csv);

    ChainExtremes extremes;
    extremes.scan(traced);
    extremes.probe(rec, 0);

    std::string points;
    append_points(traced, 0, points);
    if (!rec.write_chrome(out_dir + "/trace_native.json", "{\"points\": [\n" + points + "]}")) {
        throw std::runtime_error("cannot write the trace file");
    }
    std::printf("{\"wall_s\": %.9f}\n", wall);
    return 0;
}

struct ManifestEntry {
    std::string spec;
    std::string csv;
    std::int64_t request = 0;
};

std::vector<ManifestEntry> read_manifest(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read manifest " + path);
    }
    std::vector<ManifestEntry> entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        std::istringstream fields(line);
        ManifestEntry entry;
        std::string request;
        if (!std::getline(fields, entry.spec, '\t') || !std::getline(fields, entry.csv, '\t') ||
            !std::getline(fields, request)) {
            throw std::runtime_error("malformed manifest line: " + line);
        }
        entry.request = std::stoll(request);
        entries.push_back(std::move(entry));
    }
    return entries;
}

int cmd_replay(const std::string& manifest, int workers, const std::string& trace_path) {
    const std::vector<ManifestEntry> entries = read_manifest(manifest);
    const bool traced = !trace_path.empty();
    Recorder rec;
    std::vector<double> walls(entries.size(), 0.0);
    std::vector<Traced> results(traced ? entries.size() : 0);
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::string first_error;  // guarded by error_mutex

    const auto worker = [&] {
        ctmc::SolverEngine engine;
        campaign::CampaignRunner runner(engine);
        campaign::CampaignOptions options;  // one thread per campaign
        for (std::size_t i = next++; i < entries.size(); i = next++) {
            try {
                const auto t0 = Clock::now();
                if (traced) {
                    results[i] = run_traced(rec, entries[i].spec, 1, engine, entries[i].request);
                    walls[i] = seconds_since(t0);
                    write_file(entries[i].csv, results[i].csv);
                } else {
                    const campaign::CampaignResult result =
                        runner.run(campaign::parse_spec_file(entries[i].spec), options);
                    const std::string csv = csv_bytes(result);
                    walls[i] = seconds_since(t0);
                    write_file(entries[i].csv, csv);
                }
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (first_error.empty()) {
                    first_error = entries[i].spec + ": " + e.what();
                }
            }
        }
    };
    const auto t0 = Clock::now();
    std::vector<std::thread> pool;
    for (int w = 0; w < std::max(1, workers); ++w) {
        pool.emplace_back(worker);
    }
    for (std::thread& th : pool) {
        th.join();
    }
    const double wall = seconds_since(t0);
    if (!first_error.empty()) {
        throw std::runtime_error(first_error);
    }

    if (traced) {
        ChainExtremes extremes;
        std::string points;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            extremes.scan(results[i]);
            append_points(results[i], entries[i].request, points);
        }
        extremes.probe(rec, -1);
        if (!rec.write_chrome(trace_path, "{\"points\": [\n" + points + "]}")) {
            throw std::runtime_error("cannot write the trace file");
        }
    }
    std::string per_entry;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        char item[96];
        std::snprintf(item, sizeof(item), "%s[%lld, %.9f]", i == 0 ? "" : ", ",
                      static_cast<long long>(entries[i].request), walls[i]);
        per_entry += item;
    }
    std::printf("{\"wall_s\": %.9f, \"entries\": [%s]}\n", wall, per_entry.c_str());
    return 0;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench info | triad <array_mib> <threads> | setup <spec> |\n"
                 "       run <spec> <threads> <out_prefix> |\n"
                 "       traced <spec> <threads> <out_dir> |\n"
                 "       replay <manifest> <workers> [<trace.json>]\n");
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        return usage();
    }
    try {
        const std::string& cmd = args[0];
        if (cmd == "info" && args.size() == 1) {
            return cmd_info();
        }
        if (cmd == "triad" && args.size() == 3) {
            return cmd_triad(std::stoul(args[1]), std::stoi(args[2]));
        }
        if (cmd == "setup" && args.size() == 2) {
            return cmd_setup(args[1]);
        }
        if (cmd == "run" && args.size() == 4) {
            return cmd_run(args[1], std::stoi(args[2]), args[3]);
        }
        if (cmd == "traced" && args.size() == 4) {
            return cmd_traced(args[1], std::stoi(args[2]), args[3]);
        }
        if (cmd == "replay" && (args.size() == 3 || args.size() == 4)) {
            return cmd_replay(args[1], std::stoi(args[2]), args.size() == 4 ? args[3] : "");
        }
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
