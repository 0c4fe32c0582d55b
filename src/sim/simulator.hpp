// Network-level GPRS simulator (the paper's validation tool, Section 5.2).
//
// Simulates a cluster of seven hexagonal cells with wrap-around neighborship
// (every cell is adjacent to the six others, making the cluster symmetric —
// the standard construction that lets the mid cell represent any cell).
// Explicitly modeled, in contrast to the Markov chain:
//   * handover procedures between cells (GSM calls and GPRS sessions carry
//     their state to a uniformly chosen neighbor at dwell expiry),
//   * segmentation of 480-byte packets into 20 ms TDMA radio blocks
//     (268 bits per block at CS-2, padding included),
//   * the detailed 3GPP source process (geometric packet-call and packet
//     counts rather than the exponential IPP abstraction), and
//   * full TCP Reno flow control end to end (optional; open-loop sources
//     reproduce the Markov chain's eta = 1 "no flow control" case).
// Measurements are taken in the mid cell only and reported with 95% batch-
// means confidence intervals, exactly as the paper does.
//
// Network mode (beyond the paper, src/network/): the optional network_*
// fields replace the symmetric cluster with an explicit lattice — per-cell
// parameters, weighted directed handover targets, a mobility dwell scale,
// routing areas (handovers crossing one count as routing-area updates),
// and per-cell measurement. All of them empty/default reproduces the
// classic cluster bit for bit: the legacy paths draw the same random
// variates in the same order and run the identical measurement arithmetic.
//
// Frames. A busy cell sends its buffer frame after frame, each frame time
// the previous one plus frame_duration, until a frame finds the buffer
// empty. Most frames only subtract bits from the head-of-line packets and
// add to two time averages, so a calendar event (the cell's tick) fires
// only on a frame that can do more: where a head packet finishes, where
// the buffer is found empty, and with BLER > 0 on every frame, since each
// draws. The frames in between are replayed, with the same arithmetic at
// each frame's own time, before the cell's next tick, before any change to
// its buffer or voice count, and at every measurement boundary (frames at
// the boundary time included, as run_until() ran them). While voice holds
// every channel no tick is pending. events_executed counts every frame
// once, fired or replayed, and no helper event, as the per-frame ticks did.
//
// Equal times. The calendar pops events by (time, schedule sequence), and
// the per-frame tick of frame j took its sequence when frame j-1 ran: an
// event at frame j's time came after frame j exactly when it was scheduled
// after frame j-1 ran. Every event that changes a cell records when it was
// scheduled, and frame j replays first when that is later than frame j-1
// (TCP with a 0.01 s wired delay: an ack at t + 0.01 sends a segment that
// often reaches the BSC at exactly the frame after t). Scheduled at frame
// j-1's own time, the event comes first: the one fixed delay before a
// cell-changing event is wired_delay, so that needs wired_delay equal to
// frame_duration, where the event is a segment sent on the ack of a packet
// that frame j-2 delivered, and a frame schedules its acks before its
// successor. (Random delays hit a frame time with probability near 2^-52.)
// A fired tick is scheduled at the time of the frame before it, by that
// frame's tick, by the event that starts the busy period, or by a helper
// event there, so it keeps the per-frame tick's place; an event that pops
// before a tick scheduled late (after a re-plan) but was scheduled after
// the frame before it runs that frame. Busy periods of two cells can share
// frame times (a segment one cell delivers starts the other's a fixed delay
// later), and the per-frame calendar then ran their frames in one order,
// set when the later period started. A tick that fires before an earlier
// cell's tick at its time waits for it, so deliveries and radio draws keep
// that order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/parameters.hpp"
#include "des/statistics.hpp"
#include "sim/tcp.hpp"

namespace gprsim::sim {

struct SimulationConfig {
    /// Cell parameters; shared with the analytical model so that a single
    /// Parameters value drives both tools. (flow_control_threshold is the
    /// Markov model's knob and is ignored here — the simulator runs real
    /// TCP instead.)
    core::Parameters cell = core::Parameters::base();

    int num_cells = 7;
    std::uint64_t seed = 1u;
    /// First RandomStream id this run may use: the simulator draws from
    /// streams [stream_base + 1, stream_base + kStreamsPerRun]. An
    /// experiment gives replication r the block r * kStreamsPerRun under a
    /// shared seed, so replications are non-overlapping substreams of one
    /// experiment rather than unrelated reseedings.
    std::uint64_t stream_base = 0;
    /// Substream block width reserved per simulator run (a few ids spare).
    static constexpr std::uint64_t kStreamsPerRun = 16;

    // Output analysis (batch means, paper Section 5.2).
    double warmup_time = 2000.0;     ///< transient deletion [s]
    int batch_count = 20;
    double batch_duration = 2000.0;  ///< [s]

    // Flow control: true = TCP Reno per session; false = open-loop IPP
    // sources (the chain's eta = 1.0 configuration).
    bool tcp_enabled = true;
    TcpConfig tcp;
    /// One-way fixed latency between the data source and the BSC [s].
    double wired_delay = 0.05;

    /// TDMA radio block duration [s]; 20 ms is the GPRS block length.
    double frame_duration = 0.02;
    /// Forward a session's buffered packets to the target cell on handover
    /// (drop them when false, or when the target buffer is full).
    bool forward_buffer_on_handover = true;

    // --- multi-cell network mode (all empty/default = classic cluster) ---
    /// Per-cell parameter overrides, size num_cells when non-empty;
    /// `cell` above then only seeds the defaults.
    std::vector<core::Parameters> network_cells;
    /// Directed handover targets per cell and their unnormalized selection
    /// weights (parallel vectors, size num_cells when non-empty). Empty =
    /// a handover targets a uniformly chosen other cell.
    std::vector<std::vector<int>> network_targets;
    std::vector<std::vector<double>> network_weights;
    /// Mobility speed scale: divides every dwell-time mean (1 = the
    /// calibration speed the dwell times were measured at).
    double network_dwell_scale = 1.0;
    /// Routing area of each cell, size num_cells when non-empty. A
    /// handover between different areas counts as a routing-area update.
    std::vector<int> network_routing_areas;
    /// Measure every cell (fills SimulationResults::cells) instead of
    /// only the mid cell.
    bool measure_all_cells = false;

    void validate() const;
};

/// Point estimate with a batch-means confidence interval.
struct MetricEstimate {
    double mean = 0.0;
    double half_width = 0.0;  ///< 95% confidence
    int batches = 0;

    double lower() const { return mean - half_width; }
    double upper() const { return mean + half_width; }
    bool covers(double value) const { return value >= lower() && value <= upper(); }
};

/// One cell's estimates in network mode (measure_all_cells).
struct CellEstimates {
    MetricEstimate carried_data_traffic;
    MetricEstimate packet_loss_probability;
    MetricEstimate queueing_delay;
    MetricEstimate throughput_per_user_kbps;
    MetricEstimate mean_queue_length;
    MetricEstimate carried_voice_traffic;
    MetricEstimate average_gprs_sessions;
    MetricEstimate gsm_blocking;
    MetricEstimate gprs_blocking;
};

struct SimulationResults {
    // Mid-cell measures, aligned with core::Measures semantics.
    MetricEstimate carried_data_traffic;      ///< E[PDCHs busy]
    MetricEstimate packet_loss_probability;   ///< buffer-overflow drops / offered
    MetricEstimate queueing_delay;            ///< mean packet delay in BSC [s]
    MetricEstimate throughput_per_user_kbps;  ///< delivered rate / E[m]
    MetricEstimate mean_queue_length;         ///< E[packets in BSC buffer]
    MetricEstimate carried_voice_traffic;     ///< E[busy voice channels]
    MetricEstimate average_gprs_sessions;     ///< E[m]
    MetricEstimate gsm_blocking;              ///< blocked / attempts (incl. handover)
    MetricEstimate gprs_blocking;             ///< blocked / attempts (incl. handover)

    // Raw counters over the measured horizon: mid-cell in the classic
    // cluster, summed over all cells under measure_all_cells.
    std::int64_t packets_offered = 0;
    std::int64_t packets_dropped = 0;
    std::int64_t packets_delivered = 0;
    std::int64_t handover_packet_drops = 0;  ///< forwarding overflow (not in PLP)
    std::int64_t gsm_attempts = 0;
    std::int64_t gsm_blocked = 0;
    std::int64_t gprs_attempts = 0;
    std::int64_t gprs_blocked = 0;
    std::int64_t gsm_handover_failures = 0;
    std::int64_t gprs_handover_failures = 0;
    std::int64_t tcp_timeouts = 0;
    std::int64_t tcp_fast_retransmits = 0;

    // Network mode only.
    std::vector<CellEstimates> cells;  ///< per-cell estimates (measure_all_cells)
    /// Handovers that crossed a routing-area boundary over the measured
    /// horizon, network-wide, and the same as a rate per second.
    std::int64_t routing_area_updates = 0;
    double routing_area_update_rate = 0.0;

    std::uint64_t events_executed = 0;  ///< every frame once, fired or replayed
    double simulated_time = 0.0;
    double wall_seconds = 0.0;
};

/// Runs one configuration to completion. Construction is cheap; run() does
/// the work and may be called once per instance.
class NetworkSimulator {
public:
    explicit NetworkSimulator(SimulationConfig config);
    ~NetworkSimulator();

    NetworkSimulator(const NetworkSimulator&) = delete;
    NetworkSimulator& operator=(const NetworkSimulator&) = delete;

    SimulationResults run();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace gprsim::sim
