// CampaignService: the transport-independent evaluation daemon core.
//
//   server layer    (server.hpp) unix socket / stdio framing, one reader
//                   thread per connection, one forwarder per request
//   service layer   (this file) admission control, the bounded request
//                   queue, the worker pool, the shared WarmStore, trace
//                   ingestion, rolling stats
//   campaign layer  build_campaign_workload / assemble_campaign /
//                   write_campaign_csv — the same front and back halves a
//                   one-shot `gprsim_cli campaign` run uses
//   eval layer      BackendRegistry::global(), Evaluator::evaluate_grid (the
//                   backend's plan_grids run through execute_plans, the
//                   executor the CLI's merged batch uses)
//
// Admission and backpressure: submit() rejects synchronously with a typed
// EvalError — invalid_query (oversized or malformed spec), unknown_backend
// (a method the registry does not know), or `saturated` once the bounded
// queue is full. A saturated service REJECTS; the queue never grows past
// its capacity. Admitted requests stream back through a bounded FrameRing
// (accepted -> csv* -> done, or a single error frame), so a slow or
// vanished client blocks/cancels only its own request.
//
// Determinism contract: a request's concatenated csv payloads are byte-for-
// byte what write_campaign_csv produces for the same spec in-process —
// regardless of service concurrency, queue order, or whether slices came
// out of the shared WarmStore. This holds because (a) every slice is one
// (backend, variant) plan with the workload's grid_offset, and plans
// produce the same evaluations whether executed alone or merged, and (b)
// the store memoizes finished GridOutcomes keyed by the exhaustive slice
// signature — it never transfers warm-start state ACROSS requests, which
// would change the iterations/warm_parent CSV columns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "service/ring.hpp"
#include "service/stats.hpp"
#include "service/trace.hpp"
#include "service/warm_store.hpp"

namespace gprsim::service {

struct ServiceOptions {
    /// Concurrent campaign workers; each processes one request at a time.
    int workers = 2;
    /// Admitted-but-unstarted requests held before submit() rejects with
    /// `saturated` (requests being worked on do not count).
    std::size_t queue_capacity = 8;
    /// Execution width per slice (GridOptions::num_threads); the service
    /// default is 1 — requests are the parallelism. Never changes output.
    int num_threads = 1;
    /// Idle entries the shared warm store retains.
    std::size_t store_capacity = 64;
    /// Largest accepted campaign spec payload.
    std::size_t max_request_bytes = 1u << 20;
    /// Result frames buffered per request before the worker blocks.
    std::size_t ring_frames = 16;
    /// CSV bytes per "csv" frame.
    std::size_t csv_chunk_bytes = 64u * 1024;
};

/// Consumer handle for one admitted request's result stream.
class RequestStream {
public:
    RequestStream(std::uint64_t id, std::size_t ring_frames)
        : id_(id), ring_(ring_frames) {}

    std::uint64_t id() const { return id_; }

    /// Next result frame; nullopt when the stream is complete.
    std::optional<Frame> pop() { return ring_.pop(); }

    /// Requests cancellation: a queued request is answered with a
    /// `cancelled` error frame instead of running; a running one stops at
    /// the next slice boundary. The stream still terminates normally.
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    /// Client vanished: drops buffered frames, makes further production a
    /// no-op, and implies cancel(). pop() must not be called afterwards.
    void abandon() {
        cancel();
        ring_.shutdown();
    }

    bool cancel_requested() const { return cancelled_.load(std::memory_order_relaxed); }

private:
    friend class CampaignService;
    std::uint64_t id_;
    FrameRing ring_;
    std::atomic<bool> cancelled_{false};
};

using RequestStreamPtr = std::shared_ptr<RequestStream>;

class CampaignService {
public:
    explicit CampaignService(ServiceOptions options = {});
    /// Joins the workers; pending queued requests are failed with a typed
    /// `internal` ("service shutting down") error frame.
    ~CampaignService();

    CampaignService(const CampaignService&) = delete;
    CampaignService& operator=(const CampaignService&) = delete;

    /// Admits one campaign request. `id` is the caller's request id,
    /// echoed on every result frame. On admission the stream immediately
    /// carries an "accepted" frame. Rejections are synchronous typed
    /// errors: invalid_query (oversized / unparsable spec), unknown_backend
    /// (unregistered method), saturated (queue full).
    common::Result<RequestStreamPtr> submit(std::uint64_t id, const std::string& spec_text);

    /// Parses + fits an arrival trace (memoized). The "fit-trace" command.
    common::Result<traffic::FittedTraffic> fit_trace(const std::string& path);

    StatsSnapshot stats() const { return stats_.snapshot(); }
    std::size_t store_active_refs() const { return store_.active_refs(); }
    std::size_t queued() const;

    /// Stops accepting work and joins the workers (idempotent; the
    /// destructor calls it).
    void shutdown();

    const ServiceOptions& options() const { return options_; }

private:
    struct Pending {
        RequestStreamPtr stream;
        campaign::ScenarioSpec spec;  ///< parsed and validated at admission
    };

    void worker_loop();
    void process(const Pending& pending);
    /// Pushes one terminal error frame and counts it in the stats.
    void fail(const RequestStreamPtr& stream, const common::EvalError& error);

    const ServiceOptions options_;
    RollingStats stats_;
    WarmStore store_;
    TraceIngest traces_;
    common::ThreadPool pool_;  ///< shared slice pool (idle when num_threads <= 1)

    mutable std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace gprsim::service
