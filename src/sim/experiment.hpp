// ExperimentEngine: replication-sharded front end of the network simulator,
// the simulation-side sibling of ctmc::SolverEngine.
//
//   experiment layer  (this file)
//        ^ shards N independent replications across a common::ThreadPool
//   simulator layer   (sim/simulator.hpp) — one NetworkSimulator per
//        ^ replication, seeded from a dedicated substream block
//   consumers         (bench/micro_simulator, the des/network-des eval
//                      backends, examples)
//
// Replication r runs on RandomStream substreams
// [r * kStreamsPerRun + 1, (r + 1) * kStreamsPerRun] of the experiment
// seed, so the set of replication trajectories is a pure function of
// (config, seed, replications). Replications are claimed dynamically by
// the pool but pooled into ReplicationStats in replication order, which
// makes every pooled measure **bitwise invariant to the thread count** —
// the same guarantee the solver engine gives for its sharded kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/simulator.hpp"

namespace gprsim::sim {

struct ExperimentConfig {
    /// Template for every replication; its seed/stream_base fields are
    /// overwritten with the experiment seed and the per-replication
    /// substream block.
    SimulationConfig base;

    int replications = 4;
    /// Execution width for sharding replications: 0 = all hardware
    /// threads, <= 1 = serial. Never changes the pooled numbers.
    int num_threads = 1;
    /// Master seed of the experiment; replication r derives its streams
    /// from (seed, stream ids in block r).
    std::uint64_t seed = 1u;
    /// Called after each finished replication (replication index, result).
    /// Invoked under a lock but NOT in replication order.
    std::function<void(int, const SimulationResults&)> progress;

    void validate() const;
};

/// Replication-pooled outcome of one experiment. The per-measure estimates
/// carry replication-level 95% confidence intervals (ReplicationStats over
/// the per-replication batch-means point estimates); MetricEstimate::batches
/// holds the number of replications pooled.
struct ExperimentResults {
    MetricEstimate carried_data_traffic;
    MetricEstimate packet_loss_probability;
    MetricEstimate queueing_delay;
    MetricEstimate throughput_per_user_kbps;
    MetricEstimate mean_queue_length;
    MetricEstimate carried_voice_traffic;
    MetricEstimate average_gprs_sessions;
    MetricEstimate gsm_blocking;
    MetricEstimate gprs_blocking;

    /// Full per-replication detail, in replication order.
    std::vector<SimulationResults> replications;

    std::uint64_t events_executed = 0;  ///< summed over replications
    double simulated_time = 0.0;        ///< summed over replications
    double wall_seconds = 0.0;
    int threads_used = 1;
};

/// Runs replication experiments on a reusable pool. Like SolverEngine, one
/// engine should live as long as the workload; pass a shared pool (e.g.
/// solver_engine.pool(n)) to let chain solves and simulator replications
/// interleave on the same workers, or let the engine grow its own.
class ExperimentEngine {
public:
    /// `shared_pool` != nullptr makes the engine dispatch on that pool
    /// (not owned; must outlive the engine and be at least as wide as any
    /// requested num_threads). Otherwise a pool is grown lazily.
    explicit ExperimentEngine(common::ThreadPool* shared_pool = nullptr);

    ExperimentEngine(const ExperimentEngine&) = delete;
    ExperimentEngine& operator=(const ExperimentEngine&) = delete;

    /// The pool replications shard across, grown (recreated) if owned and
    /// narrower than `min_threads`; a shared pool is returned as-is.
    common::ThreadPool& pool(int min_threads);

    /// Runs config.replications independent replications and pools them.
    /// Pooled measures depend only on (base, seed, replications) — never on
    /// num_threads or on the order replications happen to finish in.
    ExperimentResults run(const ExperimentConfig& config);

private:
    common::ThreadPool* shared_ = nullptr;
    std::unique_ptr<common::ThreadPool> owned_;
    std::mutex pool_mutex_;
};

/// The SimulationConfig replication `block` of an experiment runs with:
/// the shared experiment seed and the disjoint substream block
/// [block * kStreamsPerRun, ...). Exposed so drivers that co-schedule
/// replications with other work on one pool (the des eval backend) derive
/// the exact same per-replication trajectories as ExperimentEngine::run.
SimulationConfig replication_config(const ExperimentConfig& config, std::uint64_t block);

/// Pools per-replication results — which must be in replication order —
/// into replication-level estimates. wall_seconds/threads_used are left for
/// the caller to fill.
ExperimentResults pool_replications(std::vector<SimulationResults> replications);

}  // namespace gprsim::sim
