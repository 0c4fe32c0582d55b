// Shared helpers for the reproduction benches: consistent table printing, a
// tiny command-line convention (--full for paper-resolution sweeps,
// --points=N to override the arrival-rate grid size, --threads=N to size
// the solver/experiment engines, --replications=N for simulator
// experiments), wall-clock timing with speedup reporting, and
// machine-readable perf records (BENCH_solver.json / BENCH_simulator.json)
// so successive PRs have a perf trajectory to compare against.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"

namespace gprsim::bench {

struct BenchArgs {
    bool full = false;     ///< paper-resolution grids (slower)
    int points = 0;        ///< 0 = per-bench default
    int threads = 1;       ///< engine width; 0 = all hardware threads
    bool threads_given = false;  ///< --threads was on the command line
    int replications = 0;  ///< simulator replications; 0 = per-bench default
    std::string json;      ///< path for machine-readable records ("" = none)

    static BenchArgs parse(int argc, char** argv) {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--full") == 0) {
                args.full = true;
            } else if (std::strncmp(argv[i], "--points=", 9) == 0) {
                args.points = std::atoi(argv[i] + 9);
            } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
                args.threads = std::atoi(argv[i] + 10);
                args.threads_given = true;
            } else if (std::strncmp(argv[i], "--replications=", 15) == 0) {
                args.replications = std::atoi(argv[i] + 15);
            } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
                args.json = argv[i] + 7;
            }
        }
        return args;
    }

    int grid(int quick_default, int full_default) const {
        if (points > 0) {
            return points;
        }
        return full ? full_default : quick_default;
    }

    int replication_count(int quick_default, int full_default) const {
        if (replications > 0) {
            return replications;
        }
        return full ? full_default : quick_default;
    }
};

/// --threads sizes the campaign runner's task sharding (campaign output
/// never depends on it).
inline campaign::CampaignOptions campaign_options(const BenchArgs& args) {
    campaign::CampaignOptions options;
    options.num_threads = args.threads;
    return options;
}

/// Attaches the benches' stderr progress line to a campaign: every
/// finished point reports its flat index, backend, rate, iterations and
/// wall time.
inline void attach_solve_progress(campaign::CampaignOptions& options) {
    options.solve_progress = [](std::size_t flat, const eval::PointEvaluation& point) {
        std::fprintf(stderr, "  point %zu %s rate %.2f: %lld iterations, %.1fs%s\n", flat,
                     point.backend.c_str(), point.call_arrival_rate, point.iterations,
                     point.wall_seconds, point.warm_started ? " (warm)" : "");
    };
}

/// Measures of a single-backend campaign at (variant, rate index).
inline const core::Measures& measures_at(const campaign::CampaignResult& result,
                                         std::size_t variant, std::size_t rate_index) {
    return result.at(variant, rate_index).evaluations.front().measures;
}

inline void print_header(const std::string& title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

inline void print_row_rule(int columns, int width = 12) {
    for (int c = 0; c < columns; ++c) {
        for (int i = 0; i < width + 2; ++i) {
            std::putchar('-');
        }
    }
    std::putchar('\n');
}

/// Simple wall-clock stopwatch for bench phases.
class WallTimer {
public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}
    void reset() { start_ = std::chrono::steady_clock::now(); }
    double seconds() const {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    }

private:
    std::chrono::steady_clock::time_point start_;
};

/// Prints "<label>: <seconds> s (speedup <x> vs <baseline_label>)".
inline void print_walltime(const std::string& label, double seconds,
                           double baseline_seconds = 0.0,
                           const std::string& baseline_label = "serial") {
    if (baseline_seconds > 0.0 && seconds > 0.0) {
        std::printf("%-32s %9.3f s   speedup %5.2fx vs %s\n", label.c_str(), seconds,
                    baseline_seconds / seconds, baseline_label.c_str());
    } else {
        std::printf("%-32s %9.3f s\n", label.c_str(), seconds);
    }
}

/// Shared scaffolding of the perf-record writers: wraps pre-formatted
/// record lines into a JSON array at `path` and reports the write.
inline bool write_json_records(const std::string& path,
                               const std::vector<std::string>& records) {
    if (path.empty()) {
        return false;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records.size(); ++i) {
        std::fprintf(f, "  %s%s\n", records[i].c_str(),
                     i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %zu records to %s\n", records.size(), path.c_str());
    return true;
}

/// One machine-readable solver perf record. Two kinds share the struct:
/// chain-solve records (dispatch empty; method is the iteration scheme the
/// engine ran, or "auto" for a cost-model-selected solve) and campaign
/// records (dispatch = "batched"; these time a whole campaign run, not a
/// solver method, and are keyed accordingly in the JSON so tooling never
/// mistakes a campaign for an iteration scheme).
struct SolverRecord {
    std::string name;      ///< bench/case identifier
    long long states = 0;  ///< chain states (solver) / campaign points (dispatch)
    std::string method;    ///< iteration scheme; solver records only
    std::string dispatch;  ///< non-empty marks a campaign dispatch record
    int threads = 1;
    double seconds = 0.0;
    long long iterations = 0;
    double residual = 0.0;               ///< solver records only
    long long residual_evaluations = 0;  ///< solver records only
};

/// Collects SolverRecords and writes them as a flat JSON array so
/// downstream tooling can diff perf across PRs. Records are kept
/// structured; speedups are derived at write() time by pairing each
/// chain-solve record with the threads == 1 "gauss_seidel" record of the
/// same case in the SAME batch. A record with no such baseline (every
/// campaign record) gets "speedup": null instead of a bogus caller-supplied
/// ratio.
class BenchJsonWriter {
public:
    void add(const SolverRecord& r) { records_.push_back(r); }

    bool write(const std::string& path) const {
        std::vector<std::string> lines;
        lines.reserve(records_.size());
        for (const SolverRecord& r : records_) {
            const SolverRecord* base = nullptr;
            for (const SolverRecord& c : records_) {
                const bool match = r.dispatch.empty() && c.dispatch.empty() &&
                                   c.name == r.name && c.threads == 1 &&
                                   c.method == "gauss_seidel";
                if (match) {
                    base = &c;
                    break;
                }
            }
            char speedup[32];
            if (base != nullptr && base->seconds > 0.0 && r.seconds > 0.0) {
                std::snprintf(speedup, sizeof(speedup), "%.3f",
                              base->seconds / r.seconds);
            } else {
                std::snprintf(speedup, sizeof(speedup), "null");
            }
            char line[512];
            if (r.dispatch.empty()) {
                std::snprintf(line, sizeof(line),
                              "{\"name\": \"%s\", \"states\": %lld, \"method\": \"%s\", "
                              "\"threads\": %d, \"seconds\": %.6f, "
                              "\"iterations\": %lld, \"residual\": %.3e, "
                              "\"residual_evaluations\": %lld, \"speedup\": %s}",
                              r.name.c_str(), r.states, r.method.c_str(), r.threads,
                              r.seconds, r.iterations, r.residual,
                              r.residual_evaluations, speedup);
            } else {
                std::snprintf(line, sizeof(line),
                              "{\"name\": \"%s\", \"points\": %lld, "
                              "\"dispatch\": \"%s\", \"threads\": %d, "
                              "\"seconds\": %.6f, \"iterations\": %lld, "
                              "\"speedup\": %s}",
                              r.name.c_str(), r.states, r.dispatch.c_str(), r.threads,
                              r.seconds, r.iterations, speedup);
            }
            lines.emplace_back(line);
        }
        return write_json_records(path, lines);
    }

private:
    std::vector<SolverRecord> records_;
};

/// One machine-readable simulator perf record (BENCH_simulator.json):
/// replication experiments instead of chain solves, with throughput in
/// executed events rather than solver sweeps.
struct SimulatorRecord {
    std::string name;       ///< bench/case identifier
    int threads = 1;
    int replications = 1;
    long long events = 0;   ///< events executed, summed over replications
    double sim_seconds = 0.0;  ///< simulated time, summed over replications
    double seconds = 0.0;      ///< wall clock for the whole experiment
};

/// SimulatorRecord counterpart of BenchJsonWriter. Records are kept
/// structured and speedups are derived at write() time by pairing each
/// record with the threads == 1 record of the *same name*: a case measured
/// only at one width (or never serially) gets "speedup": null instead of a
/// bogus cross-case ratio.
class SimJsonWriter {
public:
    void add(const SimulatorRecord& r) { records_.push_back(r); }

    bool write(const std::string& path) const {
        std::vector<std::string> lines;
        lines.reserve(records_.size());
        for (const SimulatorRecord& r : records_) {
            const SimulatorRecord* base = nullptr;
            for (const SimulatorRecord& candidate : records_) {
                if (candidate.threads == 1 && candidate.name == r.name) {
                    base = &candidate;
                    break;
                }
            }
            char speedup[32];
            if (base != nullptr && base->seconds > 0.0 && r.seconds > 0.0) {
                std::snprintf(speedup, sizeof(speedup), "%.3f",
                              base->seconds / r.seconds);
            } else {
                std::snprintf(speedup, sizeof(speedup), "null");
            }
            char line[512];
            std::snprintf(line, sizeof(line),
                          "{\"name\": \"%s\", \"threads\": %d, \"replications\": %d, "
                          "\"events\": %lld, \"sim_seconds\": %.1f, \"seconds\": %.6f, "
                          "\"events_per_second\": %.0f, \"speedup\": %s}",
                          r.name.c_str(), r.threads, r.replications, r.events,
                          r.sim_seconds, r.seconds,
                          r.seconds > 0.0 ? static_cast<double>(r.events) / r.seconds
                                          : 0.0,
                          speedup);
            lines.emplace_back(line);
        }
        return write_json_records(path, lines);
    }

private:
    std::vector<SimulatorRecord> records_;
};

}  // namespace gprsim::bench
