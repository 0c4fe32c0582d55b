// Service concurrency contract:
//   1. N concurrent requests over the shared warm store return CSV bytes
//      IDENTICAL to a sequential one-shot campaign run of the same spec —
//      the store memoizes finished slices, it never lets one request's
//      warm-start state leak into another's output.
//   2. Store refcounts drain to zero once nothing is in flight.
//   3. A saturated service REJECTS with a typed `saturated` error; the
//      bounded queue never grows past its capacity.
//   4. Slices wider than one thread change no byte either: each worker runs
//      them on a pool of its own, where idle seats help a running solve, and
//      a request that holds its pool never holds up another worker's.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "eval/registry.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace gprsim::service {
namespace {

/// Mixed deterministic + stochastic backends on a tiny cell: the ctmc
/// warm-start schedule and the DES substream plan are exactly the parts
/// whose bytes would drift if the service mis-dispatched a slice.
const char* kIdentitySpec = R"({
  "name": "svc_identity",
  "methods": ["erlang", "ctmc", "des"],
  "traffic_model": 1,
  "reserved_pdch": [1, 2],
  "gprs_fraction": 0.1,
  "channels": 6,
  "buffer": 10,
  "max_gprs_sessions": 6,
  "rates": [0.3, 0.5],
  "solver": {"tolerance": 1e-9},
  "simulation": {
    "replications": 2,
    "seed": 9,
    "warmup": 100,
    "batch_count": 3,
    "batch_duration": 150,
    "tcp": false,
  },
})";

/// One chain of 69,632 states, above ctmc::kTeamMinStates, per wave: on a
/// wide slice pool the idle seats run sweep groups of its solves.
const char* kTeamSpec = R"({
  "name": "svc_team",
  "methods": ["ctmc"],
  "traffic_model": 1,
  "reserved_pdch": 1,
  "gprs_fraction": 0.3,
  "channels": 8,
  "buffer": 63,
  "max_gprs_sessions": 15,
  "rates": [0.6, 0.9],
  "solver": {"tolerance": 1e-9},
})";

/// The one-shot reference: same spec through CampaignRunner + CSV sink.
std::string one_shot_csv(const std::string& spec_text) {
    const campaign::ScenarioSpec spec = campaign::parse_spec(spec_text);
    const campaign::CampaignResult result = campaign::run_campaign(spec, {});
    std::ostringstream csv;
    campaign::write_campaign_csv(result, csv);
    return csv.str();
}

/// Drains one stream; returns the concatenated csv payloads and requires
/// accepted-first, done-last framing.
std::string drain_csv(const RequestStreamPtr& stream) {
    std::string csv;
    bool accepted = false;
    bool done = false;
    while (auto frame = stream->pop()) {
        if (frame->type == "accepted") {
            accepted = true;
        } else if (frame->type == "csv") {
            csv += frame->payload;
        } else if (frame->type == "done") {
            done = true;
        } else {
            ADD_FAILURE() << "unexpected frame: " << frame->type << " / "
                          << frame->payload;
        }
    }
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(done);
    return csv;
}

void wait_for_drained(const CampaignService& service) {
    for (int i = 0; i < 500 && service.store_active_refs() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(service.store_active_refs(), 0u);
}

TEST(Concurrency, ConcurrentRequestsMatchOneShotByteForByte) {
    const std::string expected = one_shot_csv(kIdentitySpec);
    ASSERT_FALSE(expected.empty());

    ServiceOptions options;
    options.workers = 3;
    options.queue_capacity = 16;
    CampaignService service(options);

    constexpr int kRequests = 6;
    std::vector<RequestStreamPtr> streams;
    for (int i = 0; i < kRequests; ++i) {
        auto stream = service.submit(static_cast<std::uint64_t>(i), kIdentitySpec);
        ASSERT_TRUE(stream.ok()) << stream.error().message;
        streams.push_back(stream.value());
    }
    // Drain concurrently so all three workers stay busy at once.
    std::vector<std::string> results(kRequests);
    std::vector<std::thread> readers;
    readers.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        readers.emplace_back(
            [&results, &streams, i] { results[i] = drain_csv(streams[i]); });
    }
    for (std::thread& reader : readers) {
        reader.join();
    }
    for (int i = 0; i < kRequests; ++i) {
        EXPECT_EQ(results[i], expected) << "request " << i << " diverged";
    }

    // 3 methods x 2 variants = 6 unique slices; every other acquire must
    // have hit the store (published value or join-in-flight).
    const StatsSnapshot stats = service.stats();
    EXPECT_EQ(stats.requests_served, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(stats.store_misses, 6u);
    EXPECT_EQ(stats.store_hits, static_cast<std::uint64_t>(kRequests - 1) * 6u);
    EXPECT_GT(stats.store_hit_rate(), 0.8);
    EXPECT_GT(stats.points_evaluated, 0u);

    wait_for_drained(service);
}

TEST(Concurrency, WideSlicesOfConcurrentRequestsMatchOneShotByteForByte) {
    // Two workers with four-seat slice pools: the two requests' waves run
    // side by side, and seats left idle by a one-solve wave help that solve.
    const std::vector<std::string> specs{kTeamSpec, kIdentitySpec};
    std::vector<std::string> expected;
    for (const std::string& spec : specs) {
        expected.push_back(one_shot_csv(spec));
    }

    ServiceOptions options;
    options.workers = 2;
    options.num_threads = 4;
    CampaignService service(options);
    std::vector<RequestStreamPtr> streams;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto stream = service.submit(i, specs[i]);
        ASSERT_TRUE(stream.ok()) << stream.error().message;
        streams.push_back(stream.value());
    }
    std::vector<std::string> results(streams.size());
    std::vector<std::thread> readers;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        readers.emplace_back([&results, &streams, i] { results[i] = drain_csv(streams[i]); });
    }
    for (std::thread& reader : readers) {
        reader.join();
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(results[i], expected[i]) << "request " << i << " diverged";
    }
    EXPECT_EQ(service.stats().requests_served, specs.size());
    wait_for_drained(service);
}

/// A gate the "service-test-gate" backend's points wait behind: a request
/// of that backend holds its worker, and the worker's pool, until opened.
struct Gate {
    std::mutex mutex;
    std::condition_variable changed;
    bool open = false;
    int waiting = 0;

    void pass() {
        std::unique_lock<std::mutex> lock(mutex);
        ++waiting;
        changed.notify_all();
        changed.wait(lock, [this] { return open; });
    }
    bool wait_for_waiter() {
        std::unique_lock<std::mutex> lock(mutex);
        return changed.wait_for(lock, std::chrono::seconds(60), [this] { return waiting > 0; });
    }
    void release() {
        std::lock_guard<std::mutex> lock(mutex);
        open = true;
        changed.notify_all();
    }
};

Gate& gate() {
    static Gate instance;
    return instance;
}

void register_gate_backend() {
    static const bool registered =
        eval::register_backend("service-test-gate", "waits for the test's gate", [] {
            class GateBackend final : public eval::Evaluator {
                const std::string& name() const override {
                    static const std::string n = "service-test-gate";
                    return n;
                }
                const std::string& description() const override {
                    static const std::string d = "waits for the test's gate";
                    return d;
                }
                common::Result<eval::PointEvaluation> evaluate(
                    const eval::ScenarioQuery& query) override {
                    gate().pass();
                    eval::PointEvaluation point;
                    point.backend = name();
                    point.call_arrival_rate = query.call_arrival_rate;
                    return point;
                }
            };
            return std::make_unique<GateBackend>();
        }).ok();
    ASSERT_TRUE(registered);
}

TEST(Concurrency, RequestHoldingItsPoolDoesNotHoldUpAnotherWorker) {
    // One request's one-point wave waits behind the gate on worker A's pool;
    // a request on worker B runs its waves on B's own pool and finishes.
    register_gate_backend();
    const std::string expected = one_shot_csv(kIdentitySpec);
    ServiceOptions options;
    options.workers = 2;
    options.num_threads = 4;
    CampaignService service(options);

    auto parked = service.submit(
        1, R"({"name": "parked", "methods": ["service-test-gate"], "rates": [0.5]})");
    ASSERT_TRUE(parked.ok()) << parked.error().message;
    ASSERT_TRUE(gate().wait_for_waiter());
    auto running = service.submit(2, kIdentitySpec);
    ASSERT_TRUE(running.ok()) << running.error().message;
    auto csv = std::async(std::launch::async, [&] { return drain_csv(running.value()); });
    const bool finished = csv.wait_for(std::chrono::seconds(200)) == std::future_status::ready;
    gate().release();
    EXPECT_TRUE(finished) << "the parked request held up the other worker's waves";
    EXPECT_EQ(csv.get(), expected);
    drain_csv(parked.value());
    wait_for_drained(service);
}

TEST(Concurrency, WarmStoreHitsAcrossSequentialRequestsStayIdentical) {
    const std::string expected = one_shot_csv(kIdentitySpec);
    CampaignService service(ServiceOptions{});

    for (int i = 0; i < 3; ++i) {
        auto stream = service.submit(static_cast<std::uint64_t>(i), kIdentitySpec);
        ASSERT_TRUE(stream.ok());
        EXPECT_EQ(drain_csv(stream.value()), expected) << "request " << i;
    }
    // Requests 2 and 3 must have been served entirely from the store.
    const StatsSnapshot stats = service.stats();
    EXPECT_EQ(stats.store_misses, 6u);
    EXPECT_EQ(stats.store_hits, 12u);
    wait_for_drained(service);
}

TEST(Concurrency, SaturationRejectsInsteadOfQueueing) {
    ServiceOptions options;
    options.workers = 1;
    options.queue_capacity = 2;
    options.ring_frames = 1;  // un-popped frames park the single worker
    CampaignService service(options);

    auto running = service.submit(1, kIdentitySpec);
    ASSERT_TRUE(running.ok());
    // Wait until the worker has claimed it; the queue is then empty.
    for (int i = 0; i < 500 && service.queued() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(service.queued(), 0u);

    auto queued_a = service.submit(2, kIdentitySpec);
    auto queued_b = service.submit(3, kIdentitySpec);
    ASSERT_TRUE(queued_a.ok());
    ASSERT_TRUE(queued_b.ok());
    EXPECT_EQ(service.queued(), 2u);

    // Queue full: typed rejection, queue does NOT grow.
    auto rejected = service.submit(4, kIdentitySpec);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code, common::EvalErrorCode::saturated);
    EXPECT_NE(rejected.error().message.find("queue full"), std::string::npos);
    EXPECT_EQ(service.queued(), 2u);
    EXPECT_EQ(service.stats().requests_rejected, 1u);

    // Backpressure releases: drain everything, all admitted requests finish.
    const std::string expected = one_shot_csv(kIdentitySpec);
    EXPECT_EQ(drain_csv(running.value()), expected);
    EXPECT_EQ(drain_csv(queued_a.value()), expected);
    EXPECT_EQ(drain_csv(queued_b.value()), expected);
    EXPECT_EQ(service.stats().requests_served, 3u);
    wait_for_drained(service);
}

TEST(Concurrency, ShutdownFailsQueuedRequestsTyped) {
    ServiceOptions options;
    options.workers = 1;
    options.ring_frames = 1;
    CampaignService service(options);
    auto running = service.submit(1, kIdentitySpec);
    ASSERT_TRUE(running.ok());
    for (int i = 0; i < 500 && service.queued() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    auto queued = service.submit(2, kIdentitySpec);
    ASSERT_TRUE(queued.ok());
    // Pop the admission frame so the capacity-1 ring can take the terminal
    // error frame shutdown() pushes.
    auto accepted = queued.value()->pop();
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->type, "accepted");

    // Shutdown while one request runs and one is queued: the queued one is
    // failed typed, the running one still streams to completion (drained
    // here from another thread so the worker can finish).
    std::thread drainer([&running] { drain_csv(running.value()); });
    service.shutdown();
    drainer.join();

    std::vector<Frame> frames;
    while (auto frame = queued.value()->pop()) {
        frames.push_back(std::move(*frame));
    }
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(frames[0].type, "error");
    EXPECT_EQ(decode_error_payload(frames[0].payload).code,
              common::EvalErrorCode::internal);
}

}  // namespace
}  // namespace gprsim::service
