// Service-level fault injection: every abuse path — malformed spec,
// unknown backend, oversized request, cancellation, client disconnect
// mid-stream, malformed protocol frames — must surface as a TYPED error
// (an EvalError from submit, or an "error" frame on the stream/connection)
// and never crash, hang, or wedge a worker. The suite runs under the
// ASan/UBSan CI lanes, so a leaked ring consumer or a use-after-free in
// the forwarder handoff fails loudly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"

namespace gprsim::service {
namespace {

/// A cheap two-backend spec: 2 variants x 2 rates x {erlang, ctmc} on a
/// tiny cell — enough slices for cancellation boundaries, milliseconds of
/// work.
const char* kSmallSpec = R"({
  "name": "svc_small",
  "methods": ["erlang", "ctmc"],
  "traffic_model": 1,
  "reserved_pdch": [1, 2],
  "gprs_fraction": 0.1,
  "channels": 6,
  "buffer": 10,
  "max_gprs_sessions": 6,
  "rates": [0.3, 0.5]
})";

/// Drains a stream to completion and returns every frame.
std::vector<Frame> drain(const RequestStreamPtr& stream) {
    std::vector<Frame> frames;
    while (auto frame = stream->pop()) {
        frames.push_back(std::move(*frame));
    }
    return frames;
}

TEST(FaultInjection, MalformedSpecIsATypedRejection) {
    CampaignService service(ServiceOptions{});
    // Truncated, and nested far deeper than any spec (300,000 levels fit
    // the 1 MiB request cap) as an array and as an object.
    std::string deep_object;
    for (int i = 0; i < 150000; ++i) {
        deep_object += "{\"\":";
    }
    const std::vector<std::string> malformed{"{\"name\": \"broken\", \"metho",
                                             std::string(300000, '['), deep_object};
    std::uint64_t id = 0;
    for (const std::string& spec : malformed) {
        auto stream = service.submit(++id, spec);
        ASSERT_FALSE(stream.ok());
        EXPECT_EQ(stream.error().code, common::EvalErrorCode::invalid_query);
        EXPECT_NE(stream.error().message.find("campaign spec"), std::string::npos);
    }
    EXPECT_EQ(service.stats().requests_rejected, malformed.size());

    // The service keeps serving.
    auto next = service.submit(++id, kSmallSpec);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(drain(next.value()).back().type, "done");
}

TEST(FaultInjection, UnknownBackendIsATypedRejection) {
    CampaignService service(ServiceOptions{});
    auto stream = service.submit(
        1, R"({"name": "x", "methods": ["warp-drive"], "rates": [0.5]})");
    ASSERT_FALSE(stream.ok());
    EXPECT_EQ(stream.error().code, common::EvalErrorCode::unknown_backend);
}

TEST(FaultInjection, OversizedRequestIsATypedRejection) {
    ServiceOptions options;
    options.max_request_bytes = 64;
    CampaignService service(options);
    auto stream = service.submit(1, std::string(1024, ' '));
    ASSERT_FALSE(stream.ok());
    EXPECT_EQ(stream.error().code, common::EvalErrorCode::invalid_query);
    EXPECT_NE(stream.error().message.find("exceeds the request cap"), std::string::npos);
}

TEST(FaultInjection, DegenerateTraceFailsTheRequestNotTheService) {
    CampaignService service(ServiceOptions{});
    // Well-formed spec whose trace does not exist: admission passes (the
    // trace is fitted during expansion), the REQUEST fails typed.
    const std::string spec = R"({
      "name": "bad_trace",
      "methods": ["erlang"],
      "traffic_model": "trace:/nonexistent/capture.trace",
      "channels": 6, "buffer": 10, "max_gprs_sessions": 6,
      "rates": [0.5]
    })";
    auto stream = service.submit(7, spec);
    ASSERT_TRUE(stream.ok()) << stream.error().message;
    const std::vector<Frame> frames = drain(stream.value());
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, "accepted");
    ASSERT_EQ(frames[1].type, "error");
    const common::EvalError error = decode_error_payload(frames[1].payload);
    EXPECT_EQ(error.code, common::EvalErrorCode::invalid_query);
    EXPECT_NE(error.message.find("trace"), std::string::npos);

    // The service keeps serving.
    auto next = service.submit(8, kSmallSpec);
    ASSERT_TRUE(next.ok());
    EXPECT_EQ(drain(next.value()).back().type, "done");
}

TEST(FaultInjection, CancellationYieldsATypedErrorFrame) {
    ServiceOptions options;
    options.workers = 1;
    options.ring_frames = 1;  // the un-popped "accepted" frame parks the worker
    CampaignService service(options);

    // A's ring (capacity 1) already holds "accepted"; the single worker
    // blocks pushing A's first csv frame until we pop — so B is
    // DETERMINISTICALLY still queued when the cancel lands.
    auto a = service.submit(1, kSmallSpec);
    ASSERT_TRUE(a.ok());
    auto b = service.submit(2, kSmallSpec);
    ASSERT_TRUE(b.ok());
    b.value()->cancel();

    const std::vector<Frame> a_frames = drain(a.value());
    ASSERT_GE(a_frames.size(), 3u);
    EXPECT_EQ(a_frames.front().type, "accepted");
    EXPECT_EQ(a_frames.back().type, "done");

    const std::vector<Frame> b_frames = drain(b.value());
    ASSERT_EQ(b_frames.size(), 2u);
    EXPECT_EQ(b_frames[0].type, "accepted");
    ASSERT_EQ(b_frames[1].type, "error");
    EXPECT_EQ(decode_error_payload(b_frames[1].payload).code,
              common::EvalErrorCode::cancelled);
    EXPECT_EQ(service.stats().requests_cancelled, 1u);
}

TEST(FaultInjection, ClientDisconnectMidStreamFreesTheWorker) {
    ServiceOptions options;
    options.workers = 1;
    options.ring_frames = 1;
    options.csv_chunk_bytes = 16;  // force many csv frames
    CampaignService service(options);

    auto doomed = service.submit(1, kSmallSpec);
    ASSERT_TRUE(doomed.ok());
    auto accepted = doomed.value()->pop();
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(accepted->type, "accepted");
    // Client vanishes with most of the CSV still unstreamed.
    doomed.value()->abandon();

    // The worker must shake free and serve the next request normally.
    auto next = service.submit(2, kSmallSpec);
    ASSERT_TRUE(next.ok());
    const std::vector<Frame> frames = drain(next.value());
    EXPECT_EQ(frames.back().type, "done");

    // All store references drain once nothing is in flight.
    for (int i = 0; i < 100 && service.store_active_refs() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(service.store_active_refs(), 0u);
}

// --- wire-level faults over a socketpair -------------------------------

struct WireClient {
    int fd = -1;

    ~WireClient() { close_fd(); }

    void close_fd() {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }

    void send(const Frame& frame) const {
        const std::string bytes = encode_frame(frame);
        ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    void send_raw(const std::string& bytes) const {
        ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    /// Reads one frame; false on EOF.
    bool receive(Frame& frame) const {
        std::string line;
        char ch = 0;
        for (;;) {
            const ssize_t n = ::read(fd, &ch, 1);
            if (n <= 0) {
                return false;
            }
            if (ch == '\n') {
                break;
            }
            line.push_back(ch);
        }
        auto length = parse_frame_header(line, frame);
        if (!length.ok()) {
            return false;
        }
        frame.payload.resize(length.value());
        std::size_t done = 0;
        while (done < length.value()) {
            const ssize_t n =
                ::read(fd, frame.payload.data() + done, length.value() - done);
            if (n <= 0) {
                return false;
            }
            done += static_cast<std::size_t>(n);
        }
        return true;
    }
};

/// serve_fds on one end of a socketpair; the test drives the other end.
struct WireHarness {
    CampaignService service;
    Server server;
    WireClient client;
    std::thread thread;
    int status = -1;

    explicit WireHarness(ServiceOptions options = {})
        : service(options), server(service) {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        client.fd = fds[0];
        thread = std::thread([this, fd = fds[1]] {
            status = server.serve_fds(fd, fd);
            ::close(fd);
        });
        Frame hello;
        EXPECT_TRUE(client.receive(hello));
        EXPECT_EQ(hello.type, "hello");
    }

    ~WireHarness() {
        client.close_fd();
        if (thread.joinable()) {
            thread.join();
        }
    }
};

TEST(WireFaults, MalformedHeaderGetsOneErrorThenClose) {
    WireHarness wire;
    wire.client.send_raw("GET / HTTP/1.1\n");
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "error");
    EXPECT_EQ(decode_error_payload(frame.payload).code,
              common::EvalErrorCode::invalid_query);
    EXPECT_FALSE(wire.client.receive(frame));  // connection closed
    wire.client.close_fd();
    wire.thread.join();
    EXPECT_EQ(wire.status, 1);
}

TEST(WireFaults, MalformedPayloadFailsOnlyThatRequest) {
    WireHarness wire;
    wire.client.send(Frame{"campaign", 5, "not a spec"});
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "error");
    EXPECT_EQ(frame.id, 5u);

    // The connection survives and still answers.
    wire.client.send(Frame{"ping", 6, "hi"});
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "pong");
    EXPECT_EQ(frame.payload, "hi");
}

TEST(WireFaults, OversizedPayloadIsDrainedAndRejected) {
    ServiceOptions options;
    options.max_request_bytes = 128;
    WireHarness wire(options);
    wire.client.send(Frame{"campaign", 9, std::string(4096, 'x')});
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "error");
    EXPECT_EQ(frame.id, 9u);
    EXPECT_NE(decode_error_payload(frame.payload).message.find("request cap"),
              std::string::npos);

    wire.client.send(Frame{"ping", 10, ""});
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "pong");
}

TEST(WireFaults, UnknownFrameTypeIsATypedError) {
    WireHarness wire;
    wire.client.send(Frame{"teleport", 3, ""});
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "error");
    EXPECT_NE(decode_error_payload(frame.payload).message.find("unknown frame type"),
              std::string::npos);
}

TEST(WireFaults, CancelForUnknownIdIsATypedError) {
    WireHarness wire;
    wire.client.send(Frame{"cancel", 77, ""});
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "error");
    EXPECT_EQ(frame.id, 77u);
}

TEST(WireFaults, DisconnectMidStreamNeverWedgesTheServer) {
    ServiceOptions options;
    options.workers = 1;
    options.ring_frames = 1;
    options.csv_chunk_bytes = 16;
    WireHarness wire(options);
    wire.client.send(Frame{"campaign", 1, kSmallSpec});
    Frame frame;
    ASSERT_TRUE(wire.client.receive(frame));
    EXPECT_EQ(frame.type, "accepted");
    // Hang up with the result mostly unstreamed; the harness destructor
    // joins the server thread — if the disconnect wedged a forwarder or
    // the worker, this test times out instead of passing.
    wire.client.close_fd();
    wire.thread.join();
    EXPECT_EQ(wire.status, 0);
    for (int i = 0; i < 100 && wire.service.store_active_refs() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(wire.service.store_active_refs(), 0u);
}

}  // namespace
}  // namespace gprsim::service
