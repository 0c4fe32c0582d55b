#include "sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "des/random.hpp"
#include "des/simulation.hpp"

namespace gprsim::sim {

void SimulationConfig::validate() const {
    cell.validate();
    // An explicit target structure may make a cell its own neighbor (a 1x1
    // wrapped lattice), so only the classic uniform cluster needs >= 2.
    if (num_cells < 2 && network_targets.empty()) {
        throw std::invalid_argument("SimulationConfig: need at least two cells for handover");
    }
    if (warmup_time < 0.0 || batch_count < 2 || batch_duration <= 0.0) {
        throw std::invalid_argument("SimulationConfig: invalid output-analysis settings");
    }
    if (wired_delay < 0.0 || frame_duration <= 0.0) {
        throw std::invalid_argument("SimulationConfig: invalid path settings");
    }
    const std::size_t n = static_cast<std::size_t>(num_cells);
    if (!network_cells.empty()) {
        if (network_cells.size() != n) {
            throw std::invalid_argument("SimulationConfig: network_cells size != num_cells");
        }
        for (const core::Parameters& cp : network_cells) {
            cp.validate();
        }
    }
    if (network_targets.size() != network_weights.size()) {
        throw std::invalid_argument(
            "SimulationConfig: network_targets/network_weights size mismatch");
    }
    if (!network_targets.empty()) {
        if (network_targets.size() != n) {
            throw std::invalid_argument("SimulationConfig: network_targets size != num_cells");
        }
        for (std::size_t c = 0; c < n; ++c) {
            if (network_targets[c].empty() ||
                network_targets[c].size() != network_weights[c].size()) {
                throw std::invalid_argument(
                    "SimulationConfig: each cell needs matching targets and weights");
            }
            for (int t : network_targets[c]) {
                if (t < 0 || t >= num_cells) {
                    throw std::invalid_argument(
                        "SimulationConfig: handover target out of range");
                }
            }
            for (double w : network_weights[c]) {
                if (!(w > 0.0)) {
                    throw std::invalid_argument(
                        "SimulationConfig: handover weights must be positive");
                }
            }
        }
    }
    if (!network_routing_areas.empty() && network_routing_areas.size() != n) {
        throw std::invalid_argument(
            "SimulationConfig: network_routing_areas size != num_cells");
    }
    if (!(network_dwell_scale > 0.0)) {
        throw std::invalid_argument("SimulationConfig: network_dwell_scale must be positive");
    }
}

namespace {

/// A 480-byte network-layer packet in a BSC buffer.
struct Packet {
    std::uint64_t session_id = 0;
    std::int64_t seq = 0;
    double bits_remaining = 0.0;
    double enqueue_time = 0.0;
};

constexpr double kNoFrame = std::numeric_limits<double>::infinity();  ///< no tick pending
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();  ///< no frame fires

struct Cell {
    int gsm_calls = 0;
    int gprs_sessions = 0;
    std::deque<Packet> buffer;
    bool busy = false;        ///< frames run until one finds the buffer empty
    double last_frame = 0.0;  ///< the last frame run, or the busy period's start
    double next_frame = 0.0;  ///< last_frame + frame_duration
    double tick_frame = kNoFrame;  ///< the frame the pending tick runs
    des::EventHandle tick;         ///< that tick, or the helper scheduling it
    bool tick_waits = false;       ///< its tick fired; it waits for an earlier one
};

struct GsmCall {
    int cell = 0;
    des::EventHandle completion;
    des::EventHandle dwell;
};

/// A GPRS session: 3GPP source process + TCP connection + mobility state.
struct Session {
    std::uint64_t id = 0;
    int cell = 0;
    int packet_calls_remaining = 0;
    int packets_remaining_in_call = 0;
    bool generation_done = false;
    std::int64_t packets_generated = 0;
    des::EventHandle generator_event;
    des::EventHandle dwell;
    std::unique_ptr<TcpSender> sender;  // null in open-loop mode
    TcpReceiver receiver;
};

}  // namespace

struct NetworkSimulator::Impl {
    explicit Impl(SimulationConfig cfg)
        : config(std::move(cfg)),
          gsm_arrival_rng(config.seed, config.stream_base + 1),
          gprs_arrival_rng(config.seed, config.stream_base + 2),
          duration_rng(config.seed, config.stream_base + 3),
          dwell_rng(config.seed, config.stream_base + 4),
          traffic_rng(config.seed, config.stream_base + 5),
          target_rng(config.seed, config.stream_base + 6),
          radio_rng(config.seed, config.stream_base + 7) {
        config.validate();
        cells.resize(static_cast<std::size_t>(config.num_cells));
        stats.resize(config.measure_all_cells ? cells.size() : 1u);
        runs_first.assign(cells.size() * cells.size(), 0);
        // Cumulative target weights per cell for the one-uniform-draw
        // weighted handover target selection of network mode.
        target_cdf.reserve(config.network_targets.size());
        for (const std::vector<double>& weights : config.network_weights) {
            std::vector<double> cdf;
            cdf.reserve(weights.size());
            double acc = 0.0;
            for (double w : weights) {
                acc += w;
                cdf.push_back(acc);
            }
            target_cdf.push_back(std::move(cdf));
        }
    }

    // --- configuration and engine ----------------------------------------
    SimulationConfig config;
    des::Simulation sim;
    std::vector<Cell> cells;
    std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions;
    std::unordered_map<std::uint64_t, GsmCall> gsm_calls;
    std::uint64_t next_entity_id = 1;
    /// run_frame() scratch (indices of packets completed this frame);
    /// member so the per-frame hot path never allocates.
    std::vector<std::size_t> finished_scratch;
    /// When the running cell-changing event was scheduled.
    double change_scheduled = 0.0;
    /// Frames run, fired or replayed, less the tick and helper events that
    /// ran them: events_executed counts every frame once and no tick.
    std::int64_t frames_minus_ticks = 0;
    /// runs_first[a * num_cells + b]: at a frame time the busy periods of
    /// cells a and b share, the per-frame calendar ran a's frame first.
    std::vector<char> runs_first;

    des::RandomStream gsm_arrival_rng;
    des::RandomStream gprs_arrival_rng;
    des::RandomStream duration_rng;
    des::RandomStream dwell_rng;
    des::RandomStream traffic_rng;
    des::RandomStream target_rng;
    des::RandomStream radio_rng;

    // --- measurement -------------------------------------------------------
    // One stats block per measured cell: just the mid cell classically,
    // every cell under measure_all_cells. The arithmetic per block is
    // identical either way.
    struct CellStats {
        des::TimeWeighted tw_pdch;      // channels carrying data this frame
        des::TimeWeighted tw_queue;     // BSC buffer occupancy
        des::TimeWeighted tw_voice;     // busy voice channels
        des::TimeWeighted tw_sessions;  // active GPRS sessions

        // Per-batch counters (reset at each batch boundary).
        std::int64_t batch_offered = 0;
        std::int64_t batch_dropped = 0;
        std::int64_t batch_delivered = 0;
        des::Welford batch_delay;
        std::int64_t batch_gsm_attempts = 0;
        std::int64_t batch_gsm_blocked = 0;
        std::int64_t batch_gprs_attempts = 0;
        std::int64_t batch_gprs_blocked = 0;

        des::BatchMeans bm_cdt, bm_plp, bm_delay, bm_atu, bm_queue, bm_voice, bm_sessions,
            bm_gsm_blocking, bm_gprs_blocking;
    };

    bool measuring = false;
    std::vector<CellStats> stats;
    /// Cumulative network_weights per cell (empty in classic mode).
    std::vector<std::vector<double>> target_cdf;

    SimulationResults totals;

    // ======================================================================
    // Helpers
    // ======================================================================
    const core::Parameters& p(int cell) const {
        return config.network_cells.empty()
                   ? config.cell
                   : config.network_cells[static_cast<std::size_t>(cell)];
    }
    double block_bits(int cell) const {
        return p(cell).pdch_rate_kbps * 1000.0 * config.frame_duration;
    }
    /// PDCHs usable this frame: every channel not held by a voice call.
    int available_pdch(int cell) const {
        return p(cell).total_channels - cells[static_cast<std::size_t>(cell)].gsm_calls;
    }
    /// Schedules an event that may change a cell's buffer or voice count
    /// (one that calls catch_up()), recording when it was scheduled: that
    /// decides its order against a frame at its own time.
    template <typename Change>
    des::EventHandle schedule_change(double delay, Change change) {
        return sim.schedule(delay, [this, scheduled = sim.now(), change] {
            change_scheduled = scheduled;
            change();
        });
    }
    /// Dwell means at the mobility speed (dividing by the default scale of
    /// 1 is exact, so the classic configuration is untouched).
    double gsm_dwell_mean(int cell) const {
        return p(cell).mean_gsm_dwell_time / config.network_dwell_scale;
    }
    double gprs_dwell_mean(int cell) const {
        return p(cell).mean_gprs_dwell_time / config.network_dwell_scale;
    }

    bool measured(int cell) const { return config.measure_all_cells || cell == 0; }
    CellStats& stat(int cell) {
        return stats[config.measure_all_cells ? static_cast<std::size_t>(cell) : 0u];
    }

    int random_neighbor(int cell) {
        if (!target_cdf.empty()) {
            // Network mode: weighted choice over the cell's directed
            // neighborhood, one uniform draw per handover.
            const std::vector<double>& cdf = target_cdf[static_cast<std::size_t>(cell)];
            const double u = target_rng.uniform() * cdf.back();
            std::size_t k = 0;
            while (k + 1 < cdf.size() && u >= cdf[k]) {
                ++k;
            }
            return config.network_targets[static_cast<std::size_t>(cell)][k];
        }
        // Seven-cell wrap-around cluster: all other cells are neighbors.
        int t = target_rng.uniform_int(0, config.num_cells - 2);
        if (t >= cell) {
            ++t;
        }
        return t;
    }

    void note_routing_area_crossing(int source, int target) {
        if (measuring && !config.network_routing_areas.empty() &&
            config.network_routing_areas[static_cast<std::size_t>(source)] !=
                config.network_routing_areas[static_cast<std::size_t>(target)]) {
            ++totals.routing_area_updates;
        }
    }

    // --- GSM voice traffic -------------------------------------------------
    void schedule_gsm_arrival(int cell) {
        const double rate = p(cell).gsm_arrival_rate();
        schedule_change(gsm_arrival_rng.exponential(1.0 / rate), [this, cell] {
            gsm_arrival(cell);
            schedule_gsm_arrival(cell);
        });
    }

    void note_gsm_attempt(int cell, bool blocked) {
        if (measuring && measured(cell)) {
            CellStats& s = stat(cell);
            ++s.batch_gsm_attempts;
            ++totals.gsm_attempts;
            if (blocked) {
                ++s.batch_gsm_blocked;
                ++totals.gsm_blocked;
            }
        }
    }

    void gsm_enter(int cell) {
        // One channel fewer: the finishing frame can only move later.
        catch_up(cell, change_scheduled);
        ++cells[static_cast<std::size_t>(cell)].gsm_calls;
        if (measuring && measured(cell)) {
            stat(cell).tw_voice.update(sim.now(),
                                       cells[static_cast<std::size_t>(cell)].gsm_calls);
        }
    }

    void gsm_leave(int cell) {
        catch_up(cell, change_scheduled);
        --cells[static_cast<std::size_t>(cell)].gsm_calls;
        if (measuring && measured(cell)) {
            stat(cell).tw_voice.update(sim.now(),
                                       cells[static_cast<std::size_t>(cell)].gsm_calls);
        }
        plan_tick(cell);
    }

    void gsm_arrival(int cell) {
        const bool blocked =
            cells[static_cast<std::size_t>(cell)].gsm_calls >= p(cell).gsm_channels();
        note_gsm_attempt(cell, blocked);
        if (blocked) {
            return;
        }
        const std::uint64_t id = next_entity_id++;
        gsm_enter(cell);
        GsmCall call;
        call.cell = cell;
        call.completion =
            schedule_change(duration_rng.exponential(p(cell).mean_gsm_call_duration), [this, id] {
                const auto it = gsm_calls.find(id);
                gsm_leave(it->second.cell);
                sim.cancel(it->second.dwell);
                gsm_calls.erase(it);
            });
        call.dwell = schedule_change(dwell_rng.exponential(gsm_dwell_mean(cell)),
                                     [this, id] { gsm_handover(id); });
        gsm_calls.emplace(id, std::move(call));
    }

    void gsm_handover(std::uint64_t id) {
        GsmCall& call = gsm_calls.at(id);
        const int target = random_neighbor(call.cell);
        note_routing_area_crossing(call.cell, target);
        gsm_leave(call.cell);
        const bool blocked =
            cells[static_cast<std::size_t>(target)].gsm_calls >= p(target).gsm_channels();
        note_gsm_attempt(target, blocked);
        if (blocked) {
            // Handover failure: the call is forcibly terminated.
            if (measuring && measured(call.cell)) {
                ++totals.gsm_handover_failures;
            }
            sim.cancel(call.completion);
            gsm_calls.erase(id);
            return;
        }
        call.cell = target;
        gsm_enter(target);
        call.dwell = schedule_change(dwell_rng.exponential(gsm_dwell_mean(target)),
                                     [this, id] { gsm_handover(id); });
    }

    // --- GPRS sessions -----------------------------------------------------
    void schedule_gprs_arrival(int cell) {
        const double rate = p(cell).gprs_arrival_rate();
        sim.schedule(gprs_arrival_rng.exponential(1.0 / rate), [this, cell] {
            gprs_arrival(cell);
            schedule_gprs_arrival(cell);
        });
    }

    void note_gprs_attempt(int cell, bool blocked) {
        if (measuring && measured(cell)) {
            CellStats& s = stat(cell);
            ++s.batch_gprs_attempts;
            ++totals.gprs_attempts;
            if (blocked) {
                ++s.batch_gprs_blocked;
                ++totals.gprs_blocked;
            }
        }
    }

    void gprs_enter(int cell) {
        ++cells[static_cast<std::size_t>(cell)].gprs_sessions;
        if (measuring && measured(cell)) {
            stat(cell).tw_sessions.update(sim.now(),
                                          cells[static_cast<std::size_t>(cell)].gprs_sessions);
        }
    }

    void gprs_leave(int cell) {
        --cells[static_cast<std::size_t>(cell)].gprs_sessions;
        if (measuring && measured(cell)) {
            stat(cell).tw_sessions.update(sim.now(),
                                          cells[static_cast<std::size_t>(cell)].gprs_sessions);
        }
    }

    void gprs_arrival(int cell) {
        const bool blocked =
            cells[static_cast<std::size_t>(cell)].gprs_sessions >= p(cell).max_gprs_sessions;
        note_gprs_attempt(cell, blocked);
        if (blocked) {
            return;
        }
        const std::uint64_t id = next_entity_id++;
        auto session = std::make_unique<Session>();
        session->id = id;
        session->cell = cell;
        session->packet_calls_remaining =
            traffic_rng.geometric_count(p(cell).traffic.mean_packet_calls);
        if (config.tcp_enabled) {
            session->sender = std::make_unique<TcpSender>(
                sim, config.tcp, [this, id](std::int64_t seq, bool) {
                    // Segment leaves the server; reaches the BSC after the
                    // wired one-way delay.
                    schedule_change(config.wired_delay, [this, id, seq] {
                        const auto it = sessions.find(id);
                        if (it == sessions.end()) {
                            return;  // session ended while in flight
                        }
                        bsc_enqueue(it->second->cell, id, seq);
                    });
                });
        }
        gprs_enter(cell);
        session->dwell = schedule_change(dwell_rng.exponential(gprs_dwell_mean(cell)),
                                         [this, id] { gprs_handover(id); });
        Session* raw = session.get();
        sessions.emplace(id, std::move(session));
        begin_packet_call(*raw);
    }

    void begin_packet_call(Session& session) {
        session.packets_remaining_in_call =
            traffic_rng.geometric_count(p(session.cell).traffic.mean_packets_per_call);
        schedule_next_packet(session);
    }

    void schedule_next_packet(Session& session) {
        // Capturing the Session pointer is safe: end_session() cancels
        // generator_event before the session is destroyed, so this event
        // can never fire on a dead session (map nodes are pointer-stable).
        session.generator_event =
            schedule_change(traffic_rng.exponential(p(session.cell).traffic.mean_packet_interarrival),
                            [this, s = &session] { generate_packet(*s); });
    }

    void generate_packet(Session& session) {
        const std::int64_t seq = session.packets_generated++;
        if (session.sender) {
            session.sender->add_backlog(1);
        } else {
            // Open-loop source: the packet arrives at the BSC immediately,
            // exactly as in the Markov model's arrival process.
            bsc_enqueue(session.cell, session.id, seq);
        }
        --session.packets_remaining_in_call;
        if (session.packets_remaining_in_call > 0) {
            schedule_next_packet(session);
            return;
        }
        --session.packet_calls_remaining;
        if (session.packet_calls_remaining > 0) {
            // Reading time, then the next packet call. Pointer capture is
            // safe for the same reason as in schedule_next_packet().
            session.generator_event =
                sim.schedule(traffic_rng.exponential(p(session.cell).traffic.mean_reading_time),
                             [this, s = &session] { begin_packet_call(*s); });
            return;
        }
        session.generation_done = true;
        maybe_end_session(session);
    }

    void maybe_end_session(Session& session) {
        if (!session.generation_done) {
            return;
        }
        // The session ends when the source process completes — the paper's
        // session lifetime 1/mu_GPRS = N_pc (D_pc + N_d D_d) is independent
        // of delivery progress (the user stops browsing; they do not wait
        // for TCP to drain a congested cell). Unsent TCP backlog is
        // discarded; packets already queued at the BSC are still delivered.
        end_session(session.id, /*drop_buffered=*/false);
    }

    void end_session(std::uint64_t id, bool drop_buffered) {
        const auto it = sessions.find(id);
        Session& session = *it->second;
        sim.cancel(session.generator_event);
        sim.cancel(session.dwell);
        if (session.sender) {
            // Preserve the recovery statistics before the sender goes away.
            totals.tcp_timeouts += session.sender->timeouts();
            totals.tcp_fast_retransmits += session.sender->fast_retransmits();
            session.sender->shutdown();
        }
        gprs_leave(session.cell);
        if (drop_buffered) {
            remove_session_packets(session.cell, id);
        }
        sessions.erase(it);
    }

    void remove_session_packets(int cell, std::uint64_t id) {
        catch_up(cell, change_scheduled);
        auto& buffer = cells[static_cast<std::size_t>(cell)].buffer;
        const auto removed = std::erase_if(
            buffer, [id](const Packet& pkt) { return pkt.session_id == id; });
        if (removed > 0) {
            if (measuring && measured(cell)) {
                stat(cell).tw_queue.update(sim.now(), static_cast<double>(buffer.size()));
            }
            plan_tick(cell);
        }
    }

    void gprs_handover(std::uint64_t id) {
        Session& session = *sessions.at(id);
        const int source = session.cell;
        const int target = random_neighbor(source);
        note_routing_area_crossing(source, target);
        const bool blocked = target != source &&
                             cells[static_cast<std::size_t>(target)].gprs_sessions >=
                                 p(target).max_gprs_sessions;
        note_gprs_attempt(target, blocked);
        if (blocked) {
            // Handover failure: the session is dropped; buffered packets of
            // the session are discarded.
            if (measuring && measured(source)) {
                ++totals.gprs_handover_failures;
            }
            end_session(id, /*drop_buffered=*/true);
            return;
        }
        gprs_leave(source);
        session.cell = target;
        gprs_enter(target);

        // Relocate the session's queued packets to the target BSC.
        catch_up(source, change_scheduled);
        catch_up(target, change_scheduled);
        auto& src_buffer = cells[static_cast<std::size_t>(source)].buffer;
        auto& dst_buffer = cells[static_cast<std::size_t>(target)].buffer;
        std::deque<Packet> moved;
        for (auto it = src_buffer.begin(); it != src_buffer.end();) {
            if (it->session_id == id) {
                moved.push_back(*it);
                it = src_buffer.erase(it);
            } else {
                ++it;
            }
        }
        if (measuring && measured(source) && !moved.empty()) {
            stat(source).tw_queue.update(sim.now(), static_cast<double>(src_buffer.size()));
        }
        for (Packet& pkt : moved) {
            if (config.forward_buffer_on_handover &&
                static_cast<int>(dst_buffer.size()) < p(target).buffer_capacity) {
                pkt.enqueue_time = sim.now();
                dst_buffer.push_back(pkt);
            } else if (measuring && measured(source)) {
                ++totals.handover_packet_drops;
            }
        }
        if (measuring && measured(target) && !moved.empty()) {
            stat(target).tw_queue.update(sim.now(), static_cast<double>(dst_buffer.size()));
        }
        if (!moved.empty()) {
            // Both head sets changed: a forwarded packet keeps the bits it
            // has left, so either cell may now finish one sooner.
            plan_tick(source);
            ensure_tick(target);
            plan_tick(target);
        }

        session.dwell = schedule_change(dwell_rng.exponential(gprs_dwell_mean(target)),
                                        [this, id] { gprs_handover(id); });
    }

    // --- BSC buffer and radio service ---------------------------------------
    // A cell's tick fires only on a frame that can do more than subtract
    // bits; catch_up() replays the frames in between (see "Frames" and
    // "Equal times" in simulator.hpp).
    void bsc_enqueue(int cell, std::uint64_t session_id, std::int64_t seq) {
        catch_up(cell, change_scheduled);
        auto& buffer = cells[static_cast<std::size_t>(cell)].buffer;
        if (measuring && measured(cell)) {
            ++stat(cell).batch_offered;
            ++totals.packets_offered;
        }
        if (static_cast<int>(buffer.size()) >= p(cell).buffer_capacity) {
            if (measuring && measured(cell)) {
                ++stat(cell).batch_dropped;
                ++totals.packets_dropped;
            }
            return;  // TCP (if any) will detect the loss via dupacks/RTO
        }
        buffer.push_back(Packet{session_id, seq, p(cell).traffic.packet_size_bits, sim.now()});
        if (measuring && measured(cell)) {
            stat(cell).tw_queue.update(sim.now(), static_cast<double>(buffer.size()));
        }
        // A packet joining at the back moves the finishing frame no earlier
        // (head shares shrink or stay; its own is the smallest) unless the
        // front one, forwarded from a cell of larger packets, has more bits.
        ensure_tick(cell);
        if (buffer.front().bits_remaining > buffer.back().bits_remaining) {
            plan_tick(cell);
        }
    }

    /// Starts a busy period on a cell with packets and none running: its
    /// first tick, a frame from now.
    void ensure_tick(int cell) {
        Cell& c = cells[static_cast<std::size_t>(cell)];
        if (c.busy || c.buffer.empty()) {
            return;
        }
        c.busy = true;
        c.last_frame = sim.now();
        c.next_frame = c.tick_frame = sim.now() + config.frame_duration;
        c.tick = sim.schedule_at(c.tick_frame, [this, cell] { frame_tick(cell); });
        order_against_busy_cells(cell);
    }

    /// Records which of this new busy period and each other busy cell's the
    /// per-frame calendar ran first at the frame times they share (or may
    /// share: grids within a rounding of each other can merge). That order
    /// holds until either period ends, since each frame scheduled the next.
    /// The other cell's frame at the start time ran first when it ran
    /// before the event starting this period (catch_up()'s rule); a frame
    /// before the start time was scheduled earlier; between grids apart by
    /// a rounding, the lower one's frames were scheduled first.
    void order_against_busy_cells(int cell) {
        const Cell& c = cells[static_cast<std::size_t>(cell)];
        const auto n = static_cast<std::size_t>(config.num_cells);
        const auto near = [](double x, double y) { return std::abs(x - y) <= 1e-9 * y; };
        for (int other = 0; other < config.num_cells; ++other) {
            const Cell& o = cells[static_cast<std::size_t>(other)];
            if (other == cell || !o.busy) {
                continue;
            }
            catch_up(other, change_scheduled);
            const bool later = o.next_frame == c.last_frame ||
                               (near(o.next_frame, c.last_frame) && o.next_frame > c.last_frame);
            const bool shared = later || near(o.next_frame, c.next_frame);
            const bool other_first = !later && o.next_frame <= c.next_frame;
            runs_first[static_cast<std::size_t>(other) * n + static_cast<std::size_t>(cell)] =
                shared && other_first;
            runs_first[static_cast<std::size_t>(cell) * n + static_cast<std::size_t>(other)] =
                shared && !other_first;
        }
    }

    /// Whether `first`'s tick frame is due now and the per-frame calendar
    /// ran it before `then`'s.
    bool earlier_tick(int first, int then) const {
        const auto n = static_cast<std::size_t>(config.num_cells);
        return cells[static_cast<std::size_t>(first)].tick_frame == sim.now() &&
               runs_first[static_cast<std::size_t>(first) * n + static_cast<std::size_t>(then)];
    }

    /// Runs a cell's tick frame (and any frames replayed before it) in the
    /// per-frame calendar's order against other cells' tick frames at this
    /// time: they deliver, and the acks they schedule keep their order.
    /// Earlier ones still due run first, and ones that waited for this one
    /// run right after it.
    void run_tick_frame(int cell) {
        Cell& c = cells[static_cast<std::size_t>(cell)];
        sim.cancel(c.tick);
        c.tick_frame = kNoFrame;
        c.tick_waits = false;
        for (int other = 0; other < config.num_cells; ++other) {
            if (earlier_tick(other, cell)) {
                run_tick_frame(other);
            }
        }
        catch_up(cell, kNoFrame);
        plan_tick(cell);
        for (int other = 0; other < config.num_cells; ++other) {
            if (cells[static_cast<std::size_t>(other)].tick_waits &&
                !waits_for_earlier_tick(other)) {
                run_tick_frame(other);
            }
        }
    }

    /// Whether another cell's tick frame due now goes before this cell's.
    bool waits_for_earlier_tick(int cell) const {
        for (int other = 0; other < config.num_cells; ++other) {
            if (earlier_tick(other, cell)) {
                return true;
            }
        }
        return false;
    }

    /// Fair split of `available` PDCHs over the first min(queued, available)
    /// packets, at most 8 slots per packet (multislot class limit): calls
    /// send(i, share) per head packet and returns the channels used. The
    /// fired frame, the replayed frame and the look-ahead all split here.
    template <typename Send>
    static int allocate(std::size_t queued, int available, Send&& send) {
        if (available <= 0 || queued == 0) {
            return 0;
        }
        const int head_count = std::min<int>(static_cast<int>(queued), available);
        const int base = available / head_count;  // >= 1
        const int extra = available % head_count;
        int used = 0;
        for (int i = 0; i < head_count; ++i) {
            const int share = std::min(8, base + (i < extra ? 1 : 0));
            used += share;
            send(static_cast<std::size_t>(i), share);
        }
        return used;
    }

    /// Runs the cell's next frame at that frame's time: the bits sent, the
    /// packets delivered (only ever by a frame at the current time) and
    /// the time averages, or, on an empty buffer, the busy period's end.
    void run_frame(int cell) {
        Cell& c = cells[static_cast<std::size_t>(cell)];
        const double t = c.next_frame;
        c.last_frame = t;
        c.next_frame = t + config.frame_duration;
        ++frames_minus_ticks;
        if (c.buffer.empty()) {
            c.busy = false;
            if (measuring && measured(cell)) {
                stat(cell).tw_pdch.update(t, 0.0);
            }
            return;
        }
        const double bler = p(cell).block_error_rate;
        const double bits = block_bits(cell);
        std::vector<std::size_t>& finished = finished_scratch;
        finished.clear();
        const int used =
            allocate(c.buffer.size(), available_pdch(cell), [&](std::size_t i, int share) {
                // RLC acknowledged mode: a corrupted block occupies the
                // channel but delivers nothing; ARQ resends it on a later
                // frame (extension; BLER = 0 reproduces the paper).
                int good_blocks = share;
                if (bler > 0.0) {
                    good_blocks = 0;
                    for (int blk = 0; blk < share; ++blk) {
                        if (!radio_rng.bernoulli(bler)) {
                            ++good_blocks;
                        }
                    }
                }
                Packet& pkt = c.buffer[i];
                pkt.bits_remaining -= static_cast<double>(good_blocks) * bits;
                if (pkt.bits_remaining <= 0.0) {
                    finished.push_back(i);
                }
            });
        // Deliver finished packets (reverse order keeps indices valid).
        for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
            Packet done = c.buffer[*it];
            c.buffer.erase(c.buffer.begin() + static_cast<std::ptrdiff_t>(*it));
            deliver_packet(cell, done);
        }
        if (measuring && measured(cell)) {
            CellStats& s = stat(cell);
            s.tw_pdch.update(t, static_cast<double>(used));
            s.tw_queue.update(t, static_cast<double>(c.buffer.size()));
        }
    }

    /// Frames from the next one to the first that must fire: it finishes a
    /// head packet or finds the buffer empty. With BLER > 0 the horizon is
    /// one frame (draws cannot be foreseen); while voice holds every
    /// channel there is none (kNever). Until that frame the split stays the
    /// same, so each head packet's bits are subtracted here frame by frame
    /// exactly as run_frame() will.
    std::int64_t frames_to_next_tick(int cell) const {
        const Cell& c = cells[static_cast<std::size_t>(cell)];
        if (c.buffer.empty()) {
            return 1;
        }
        std::int64_t frames = p(cell).block_error_rate > 0.0 ? 1 : kNever;
        const double bits = block_bits(cell);
        allocate(c.buffer.size(), available_pdch(cell), [&](std::size_t i, int share) {
            const double sent = static_cast<double>(share) * bits;
            double left = c.buffer[i].bits_remaining - sent;
            std::int64_t n = 1;
            for (; left > 0.0 && n < frames; ++n) {
                left -= sent;
            }
            frames = n;
        });
        return frames;
    }

    /// Schedules the busy cell's tick on the frame frames_to_next_tick()
    /// names, unless the pending one comes no later: a tick on a frame that
    /// finishes nothing runs it exactly as a replay would. So besides the
    /// ticks only a change that can bring the finishing frame earlier calls
    /// this: a voice call leaving, a head packet removed or moved, a packet
    /// arriving with fewer bits than the front one. A tick two or more
    /// frames ahead is scheduled by a helper event on the frame before it.
    void plan_tick(int cell) {
        Cell& c = cells[static_cast<std::size_t>(cell)];
        const std::int64_t frames = c.busy ? frames_to_next_tick(cell) : kNever;
        if (frames == kNever) {
            return;
        }
        double before = c.last_frame;
        double frame = c.next_frame;
        for (std::int64_t n = 1; n < frames; ++n) {
            before = frame;
            frame += config.frame_duration;
        }
        if (!(frame < c.tick_frame)) {
            return;
        }
        sim.cancel(c.tick);
        c.tick_frame = frame;
        if (frames == 1) {
            c.tick = sim.schedule_at(frame, [this, cell] { frame_tick(cell); });
            return;
        }
        c.tick = sim.schedule_at(before, [this, cell] {
            --frames_minus_ticks;
            cells[static_cast<std::size_t>(cell)].tick =
                sim.schedule(config.frame_duration, [this, cell] { frame_tick(cell); });
        });
    }

    void frame_tick(int cell) {
        --frames_minus_ticks;
        if (waits_for_earlier_tick(cell)) {
            cells[static_cast<std::size_t>(cell)].tick_waits = true;  // run after it
            return;
        }
        run_tick_frame(cell);
    }

    /// Runs the frames the per-frame calendar ran before the current event:
    /// every frame before now, and the one at now if the event was
    /// `scheduled` after the frame before it ran. A tick and a measurement
    /// boundary pass kNoFrame: they come after every frame at their time.
    /// Running the pending tick's frame cancels that tick and re-plans.
    void catch_up(int cell, double scheduled) {
        Cell& c = cells[static_cast<std::size_t>(cell)];
        const double now = sim.now();
        while (c.busy && (c.next_frame < now ||
                          (c.next_frame == now && scheduled > c.last_frame))) {
            if (c.next_frame == c.tick_frame) {
                run_tick_frame(cell);
            } else {
                run_frame(cell);
            }
        }
    }

    void deliver_packet(int cell, const Packet& pkt) {
        if (measuring && measured(cell)) {
            CellStats& s = stat(cell);
            ++s.batch_delivered;
            ++totals.packets_delivered;
            s.batch_delay.add(sim.now() - pkt.enqueue_time);
        }
        const auto it = sessions.find(pkt.session_id);
        if (it == sessions.end() || !it->second->sender) {
            return;  // open-loop mode, or session already gone
        }
        Session& session = *it->second;
        const std::int64_t ack = session.receiver.on_segment(pkt.seq);
        const std::uint64_t id = session.id;
        // The MS acknowledgement travels back over the (uncongested) uplink
        // and wired path.
        sim.schedule(config.wired_delay, [this, id, ack] {
            const auto sit = sessions.find(id);
            if (sit == sessions.end()) {
                return;  // session completed its source process meanwhile
            }
            sit->second->sender->on_ack(ack);
        });
    }

    // --- output analysis -----------------------------------------------------
    /// Cell a stats block observes: its index under measure_all_cells, the
    /// mid cell classically.
    int stat_cell(std::size_t block) const {
        return config.measure_all_cells ? static_cast<int>(block) : 0;
    }

    /// A measurement boundary comes after every frame at its time:
    /// run_until(horizon) ran them.
    void catch_up_all_cells() {
        for (int cell = 0; cell < config.num_cells; ++cell) {
            catch_up(cell, kNoFrame);
        }
    }

    void reset_measurement() {
        catch_up_all_cells();
        const double t = sim.now();
        for (std::size_t k = 0; k < stats.size(); ++k) {
            const Cell& c = cells[static_cast<std::size_t>(stat_cell(k))];
            CellStats& s = stats[k];
            s.tw_pdch = des::TimeWeighted(t, s.tw_pdch.current_value());
            s.tw_queue = des::TimeWeighted(t, static_cast<double>(c.buffer.size()));
            s.tw_voice = des::TimeWeighted(t, static_cast<double>(c.gsm_calls));
            s.tw_sessions = des::TimeWeighted(t, static_cast<double>(c.gprs_sessions));
            s.batch_offered = s.batch_dropped = s.batch_delivered = 0;
            s.batch_delay = des::Welford();
            s.batch_gsm_attempts = s.batch_gsm_blocked = 0;
            s.batch_gprs_attempts = s.batch_gprs_blocked = 0;
        }
        measuring = true;
    }

    void close_batch() {
        catch_up_all_cells();
        const double t = sim.now();
        for (std::size_t k = 0; k < stats.size(); ++k) {
            CellStats& s = stats[k];
            const double cdt = s.tw_pdch.restart(t);
            const double queue = s.tw_queue.restart(t);
            const double voice = s.tw_voice.restart(t);
            const double sessions_avg = s.tw_sessions.restart(t);
            s.bm_cdt.add_batch(cdt);
            s.bm_queue.add_batch(queue);
            s.bm_voice.add_batch(voice);
            s.bm_sessions.add_batch(sessions_avg);
            if (s.batch_offered > 0) {
                s.bm_plp.add_batch(static_cast<double>(s.batch_dropped) /
                                   static_cast<double>(s.batch_offered));
            }
            if (s.batch_delay.count() > 0) {
                s.bm_delay.add_batch(s.batch_delay.mean());
            }
            if (sessions_avg > 0.0) {
                const double delivered_kbps = static_cast<double>(s.batch_delivered) *
                                              p(stat_cell(k)).traffic.packet_size_bits /
                                              config.batch_duration / 1000.0;
                s.bm_atu.add_batch(delivered_kbps / sessions_avg);
            }
            if (s.batch_gsm_attempts > 0) {
                s.bm_gsm_blocking.add_batch(static_cast<double>(s.batch_gsm_blocked) /
                                            static_cast<double>(s.batch_gsm_attempts));
            }
            if (s.batch_gprs_attempts > 0) {
                s.bm_gprs_blocking.add_batch(static_cast<double>(s.batch_gprs_blocked) /
                                             static_cast<double>(s.batch_gprs_attempts));
            }
            s.batch_offered = s.batch_dropped = s.batch_delivered = 0;
            s.batch_delay = des::Welford();
            s.batch_gsm_attempts = s.batch_gsm_blocked = 0;
            s.batch_gprs_attempts = s.batch_gprs_blocked = 0;
        }
    }

    static MetricEstimate estimate(const des::BatchMeans& bm) {
        return MetricEstimate{bm.mean(), bm.half_width(0.95), bm.count()};
    }

    SimulationResults run() {
        const auto wall0 = std::chrono::steady_clock::now();
        for (int cell = 0; cell < config.num_cells; ++cell) {
            schedule_gsm_arrival(cell);
            schedule_gprs_arrival(cell);
        }
        sim.run_until(config.warmup_time);
        reset_measurement();
        for (int b = 0; b < config.batch_count; ++b) {
            sim.run_until(config.warmup_time +
                          config.batch_duration * static_cast<double>(b + 1));
            close_batch();
        }
        measuring = false;

        // The headline estimates read the mid cell in either mode; block 0
        // observes cell 0 either way.
        const CellStats& mid = stats[0];
        totals.carried_data_traffic = estimate(mid.bm_cdt);
        totals.packet_loss_probability = estimate(mid.bm_plp);
        totals.queueing_delay = estimate(mid.bm_delay);
        totals.throughput_per_user_kbps = estimate(mid.bm_atu);
        totals.mean_queue_length = estimate(mid.bm_queue);
        totals.carried_voice_traffic = estimate(mid.bm_voice);
        totals.average_gprs_sessions = estimate(mid.bm_sessions);
        totals.gsm_blocking = estimate(mid.bm_gsm_blocking);
        totals.gprs_blocking = estimate(mid.bm_gprs_blocking);
        if (config.measure_all_cells) {
            totals.cells.reserve(stats.size());
            for (const CellStats& s : stats) {
                CellEstimates e;
                e.carried_data_traffic = estimate(s.bm_cdt);
                e.packet_loss_probability = estimate(s.bm_plp);
                e.queueing_delay = estimate(s.bm_delay);
                e.throughput_per_user_kbps = estimate(s.bm_atu);
                e.mean_queue_length = estimate(s.bm_queue);
                e.carried_voice_traffic = estimate(s.bm_voice);
                e.average_gprs_sessions = estimate(s.bm_sessions);
                e.gsm_blocking = estimate(s.bm_gsm_blocking);
                e.gprs_blocking = estimate(s.bm_gprs_blocking);
                totals.cells.push_back(e);
            }
        }
        totals.routing_area_update_rate =
            static_cast<double>(totals.routing_area_updates) /
            (config.batch_duration * static_cast<double>(config.batch_count));
        for (const auto& [id, session] : sessions) {
            if (session->sender) {
                totals.tcp_timeouts += session->sender->timeouts();
                totals.tcp_fast_retransmits += session->sender->fast_retransmits();
            }
        }
        totals.events_executed =
            sim.events_executed() + static_cast<std::uint64_t>(frames_minus_ticks);
        totals.simulated_time = sim.now();
        totals.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
        return totals;
    }
};

NetworkSimulator::NetworkSimulator(SimulationConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {}

NetworkSimulator::~NetworkSimulator() = default;

SimulationResults NetworkSimulator::run() { return impl_->run(); }

}  // namespace gprsim::sim
