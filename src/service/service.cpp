#include "service/service.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "eval/registry.hpp"
#include "service/protocol.hpp"

namespace gprsim::service {

namespace {

Frame error_frame(std::uint64_t id, const common::EvalError& error) {
    return Frame{"error", id, encode_error_payload(error)};
}

}  // namespace

CampaignService::CampaignService(ServiceOptions options)
    : options_(std::move(options)), store_(options_.store_capacity),
      pool_(options_.num_threads) {
    const int workers = options_.workers < 1 ? 1 : options_.workers;
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

CampaignService::~CampaignService() { shutdown(); }

common::Result<RequestStreamPtr> CampaignService::submit(std::uint64_t id,
                                                         const std::string& spec_text) {
    stats_.record_received();
    if (spec_text.size() > options_.max_request_bytes) {
        stats_.record_rejected();
        char buffer[128];
        std::snprintf(buffer, sizeof(buffer),
                      "campaign spec of %zu bytes exceeds the request cap of %zu bytes",
                      spec_text.size(), options_.max_request_bytes);
        return common::EvalError{common::EvalErrorCode::invalid_query, buffer};
    }
    // Parse at admission: a malformed spec must reject synchronously, not
    // burn a worker slot. The parsed spec is what the worker evaluates.
    campaign::ScenarioSpec spec;
    try {
        spec = campaign::parse_spec(spec_text);  // validates methods vs the registry
    } catch (const campaign::SpecError& error) {
        stats_.record_rejected();
        const std::string message = error.what();
        // The spec layer reports an unregistered "methods" entry as
        // 'unknown method "x"'; surface that as the dedicated code.
        const auto code = message.find("unknown method") != std::string::npos
                              ? common::EvalErrorCode::unknown_backend
                              : common::EvalErrorCode::invalid_query;
        return common::EvalError{code, "campaign spec: " + message};
    }

    auto stream = std::make_shared<RequestStream>(id, options_.ring_frames);
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_) {
            stats_.record_rejected();
            return common::EvalError{common::EvalErrorCode::internal,
                                     "service shutting down"};
        }
        if (queue_.size() >= options_.queue_capacity) {
            stats_.record_rejected();
            char buffer[96];
            std::snprintf(buffer, sizeof(buffer),
                          "request queue full (%zu queued, capacity %zu)",
                          queue_.size(), options_.queue_capacity);
            return common::EvalError{common::EvalErrorCode::saturated, buffer};
        }
        queue_.push_back(Pending{stream, std::move(spec)});
    }
    stream->ring_.push(Frame{"accepted", id, ""});
    queue_cv_.notify_one();
    return stream;
}

common::Result<traffic::FittedTraffic> CampaignService::fit_trace(const std::string& path) {
    return traces_.fit(path);
}

std::size_t CampaignService::queued() const {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

void CampaignService::shutdown() {
    std::deque<Pending> orphaned;
    {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (stopping_ && workers_.empty()) {
            return;
        }
        stopping_ = true;
        orphaned.swap(queue_);
    }
    queue_cv_.notify_all();
    for (const Pending& pending : orphaned) {
        fail(pending.stream,
             common::EvalError{common::EvalErrorCode::internal, "service shutting down"});
    }
    for (std::thread& worker : workers_) {
        if (worker.joinable()) {
            worker.join();
        }
    }
    workers_.clear();
}

void CampaignService::worker_loop() {
    for (;;) {
        Pending pending;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stopping
            }
            pending = std::move(queue_.front());
            queue_.pop_front();
        }
        process(pending);
    }
}

void CampaignService::fail(const RequestStreamPtr& stream, const common::EvalError& error) {
    if (error.code == common::EvalErrorCode::cancelled) {
        stats_.record_cancelled();
    } else {
        stats_.record_failed();
    }
    stream->ring_.push(error_frame(stream->id(), error));
    stream->ring_.close();
}

void CampaignService::process(const Pending& pending) {
    const RequestStreamPtr& stream = pending.stream;
    if (stream->cancel_requested()) {
        fail(stream, common::EvalError{common::EvalErrorCode::cancelled,
                                       "request cancelled before evaluation started"});
        return;
    }

    campaign::CampaignWorkload workload;
    try {
        // Expansion can still fail here (e.g. a traffic trace that reads
        // fine at admission time but rejects during fitting).
        workload = campaign::build_campaign_workload(pending.spec);
    } catch (const campaign::SpecError& error) {
        fail(stream, common::EvalError{common::EvalErrorCode::invalid_query,
                                       std::string("campaign spec: ") + error.what()});
        return;
    }

    auto& registry = eval::BackendRegistry::global();
    const std::vector<std::string>& methods = workload.effective.methods;
    const std::vector<double>& rates = workload.effective.rates;

    // Evaluate every (backend, variant) slice through the shared store:
    // the same queries and grid offsets as CampaignRunner::run's merged
    // batch, on the same executor, so the assembled CSV is byte-identical
    // to a one-shot CLI run of the same spec.
    std::vector<std::vector<eval::GridOutcome>> outcomes;
    outcomes.reserve(methods.size());
    for (const std::string& method : methods) {
        auto evaluator = registry.find(method);
        if (!evaluator.ok()) {
            fail(stream, evaluator.error());
            return;
        }
        std::vector<eval::GridOutcome> per_variant;
        per_variant.reserve(workload.queries.size());
        for (std::size_t v = 0; v < workload.queries.size(); ++v) {
            if (stream->cancel_requested()) {
                fail(stream,
                     common::EvalError{common::EvalErrorCode::cancelled,
                                       "request cancelled at a slice boundary"});
                return;
            }
            const eval::ScenarioQuery& query = workload.queries[v];
            const std::uint64_t offset = workload.grid_offset(v);
            const std::string signature =
                slice_signature(method, query, rates, offset);

            bool hit = false;
            WarmStore::Ticket ticket = store_.acquire(signature, hit);
            stats_.record_store(hit);
            std::optional<eval::GridOutcome> slice;
            if (!ticket.leader()) {
                slice = ticket.wait();  // nullopt = promoted to leader
            }
            if (!slice.has_value()) {
                eval::GridOptions grid;
                grid.num_threads = options_.num_threads;
                grid.pool = options_.num_threads > 1 ? &pool_ : nullptr;
                grid.grid_offset = offset;
                eval::GridOutcome computed = evaluator.value()->evaluate_grid(
                    query, std::span<const double>(rates), grid);
                if (computed.ok()) {
                    for (const eval::PointEvaluation& point : computed.value()) {
                        stats_.record_point(point.wall_seconds);
                    }
                }
                ticket.publish(computed);
                slice.emplace(std::move(computed));
            }
            per_variant.push_back(std::move(*slice));
        }
        outcomes.push_back(std::move(per_variant));
    }

    auto assembled = campaign::assemble_campaign(workload, std::move(outcomes));
    if (!assembled.ok()) {
        fail(stream, assembled.error());
        return;
    }

    std::ostringstream csv;
    campaign::write_campaign_csv(assembled.value(), csv);
    const std::string bytes = csv.str();
    const std::size_t chunk = options_.csv_chunk_bytes < 1 ? 1 : options_.csv_chunk_bytes;
    bool delivered = true;
    for (std::size_t offset = 0; offset < bytes.size(); offset += chunk) {
        Frame frame{"csv", stream->id(), bytes.substr(offset, chunk)};
        if (!stream->ring_.push(std::move(frame))) {
            delivered = false;  // consumer abandoned: stop streaming
            break;
        }
    }
    char summary[160];
    std::snprintf(summary, sizeof(summary),
                  "{\"csv_bytes\": %zu, \"points\": %zu, \"methods\": %zu}", bytes.size(),
                  assembled.value().points.size(), methods.size());
    if (delivered) {
        stream->ring_.push(Frame{"done", stream->id(), summary});
        stats_.record_served();
    } else {
        stats_.record_cancelled();
    }
    stream->ring_.close();
}

}  // namespace gprsim::service
