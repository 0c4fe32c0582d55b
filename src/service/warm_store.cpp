#include "service/warm_store.hpp"

#include <cstdio>

namespace gprsim::service {

WarmStore::WarmStore(std::size_t capacity) : capacity_(capacity) {}

WarmStore::~WarmStore() = default;

WarmStore::Ticket::Ticket(Ticket&& other) noexcept
    : store_(other.store_), entry_(other.entry_), leader_(other.leader_),
      settled_(other.settled_) {
    other.store_ = nullptr;
    other.entry_ = nullptr;
}

WarmStore::Ticket& WarmStore::Ticket::operator=(Ticket&& other) noexcept {
    if (this != &other) {
        release();
        store_ = other.store_;
        entry_ = other.entry_;
        leader_ = other.leader_;
        settled_ = other.settled_;
        other.store_ = nullptr;
        other.entry_ = nullptr;
    }
    return *this;
}

WarmStore::Ticket::~Ticket() { release(); }

std::optional<eval::GridOutcome> WarmStore::Ticket::wait() {
    if (store_ == nullptr || leader_) {
        return std::nullopt;
    }
    std::unique_lock<std::mutex> lock(store_->mutex_);
    entry_->cv.wait(lock, [this] { return entry_->ready || !entry_->computing; });
    if (entry_->ready) {
        return *entry_->outcome;
    }
    // Leader abandoned and nobody claimed the slice yet: this waiter is
    // promoted and must compute it.
    entry_->computing = true;
    leader_ = true;
    return std::nullopt;
}

void WarmStore::Ticket::publish(const eval::GridOutcome& outcome) {
    if (store_ == nullptr || !leader_ || settled_) {
        return;
    }
    {
        std::lock_guard<std::mutex> lock(store_->mutex_);
        entry_->outcome.emplace(outcome);
        entry_->ready = true;
        entry_->computing = false;
    }
    settled_ = true;
    entry_->cv.notify_all();
}

void WarmStore::Ticket::abandon() {
    if (store_ == nullptr || !leader_ || settled_) {
        return;
    }
    {
        std::lock_guard<std::mutex> lock(store_->mutex_);
        entry_->computing = false;
    }
    settled_ = true;
    leader_ = false;
    entry_->cv.notify_all();
}

void WarmStore::Ticket::release() {
    if (store_ == nullptr) {
        return;
    }
    if (leader_ && !settled_) {
        abandon();  // exception safety: never strand the waiters
    }
    {
        std::lock_guard<std::mutex> lock(store_->mutex_);
        --entry_->refs;
        --store_->total_refs_;
        if (entry_->refs == 0 && !entry_->ready) {
            // In-flight entry everyone walked away from: drop it so a later
            // acquire starts clean instead of joining a dead leader.
            store_->entries_.erase(entry_->signature);
        } else {
            store_->evict_idle_locked();
        }
    }
    store_ = nullptr;
    entry_ = nullptr;
}

WarmStore::Ticket WarmStore::acquire(const std::string& signature, bool& hit) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = entries_[signature];
    const bool fresh = entry.refs == 0 && !entry.ready && !entry.computing;
    if (fresh) {
        entry.signature = signature;
    }
    ++entry.refs;
    ++total_refs_;
    entry.last_use = ++clock_;
    hit = entry.ready || entry.computing;
    const bool leads = !entry.ready && !entry.computing;
    if (leads) {
        entry.computing = true;
    }
    return Ticket(this, &entry, leads);
}

std::size_t WarmStore::active_refs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_refs_;
}

std::size_t WarmStore::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void WarmStore::evict_idle_locked() {
    while (entries_.size() > capacity_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.refs != 0 || !it->second.ready) {
                continue;
            }
            if (victim == entries_.end() || it->second.last_use < victim->second.last_use) {
                victim = it;
            }
        }
        if (victim == entries_.end()) {
            return;  // everything is referenced or in flight
        }
        entries_.erase(victim);
    }
}

namespace {

void append_double(std::string& out, double value) {
    char buffer[40];
    // Hexfloat: every distinct bit pattern gets a distinct signature token.
    std::snprintf(buffer, sizeof(buffer), "%a,", value);
    out += buffer;
}

void append_int(std::string& out, long long value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld,", value);
    out += buffer;
}

void append_string(std::string& out, const std::string& value) {
    // Length prefix keeps adjacent string fields from aliasing.
    append_int(out, static_cast<long long>(value.size()));
    out += value;
    out += ',';
}

}  // namespace

std::string slice_signature(const std::string& backend, const eval::ScenarioQuery& query,
                            const std::vector<double>& rates, std::uint64_t grid_offset) {
    std::string sig;
    sig.reserve(768);
    append_string(sig, backend);

    const core::Parameters& p = query.parameters;
    append_int(sig, p.total_channels);
    append_int(sig, p.reserved_pdch);
    append_int(sig, p.buffer_capacity);
    append_double(sig, p.pdch_rate_kbps);
    append_double(sig, p.block_error_rate);
    append_double(sig, p.call_arrival_rate);
    append_double(sig, p.gprs_fraction);
    append_double(sig, p.mean_gsm_call_duration);
    append_double(sig, p.mean_gsm_dwell_time);
    append_double(sig, p.mean_gprs_dwell_time);
    append_int(sig, p.max_gprs_sessions);
    append_int(sig, p.pinned_handover ? 1 : 0);
    append_double(sig, p.gsm_handover_in);
    append_double(sig, p.gprs_handover_in);
    append_double(sig, p.flow_control_threshold);
    append_double(sig, p.traffic.mean_packet_calls);
    append_double(sig, p.traffic.mean_reading_time);
    append_double(sig, p.traffic.mean_packets_per_call);
    append_double(sig, p.traffic.mean_packet_interarrival);
    append_double(sig, p.traffic.packet_size_bits);

    append_double(sig, query.call_arrival_rate);

    append_double(sig, query.solver.tolerance);
    append_int(sig, query.solver.max_iterations);
    append_string(sig, query.solver.method);

    append_int(sig, query.simulation.replications);
    append_int(sig, static_cast<long long>(query.simulation.seed));
    append_double(sig, query.simulation.warmup_time);
    append_int(sig, query.simulation.batch_count);
    append_double(sig, query.simulation.batch_duration);
    append_int(sig, query.simulation.tcp ? 1 : 0);

    append_double(sig, query.approx.fp_tolerance);
    append_double(sig, query.approx.fp_damping);
    append_int(sig, query.approx.fp_max_iterations);
    append_double(sig, query.approx.ode_rel_tol);
    append_double(sig, query.approx.ode_abs_tol);
    append_int(sig, query.approx.ode_max_steps);
    append_double(sig, query.approx.ode_stationary_rate);

    append_int(sig, query.network.cells_x);
    append_int(sig, query.network.cells_y);
    append_string(sig, query.network.topology);
    append_int(sig, query.network.wrap ? 1 : 0);
    append_int(sig, query.network.reuse_factor);
    append_int(sig, query.network.ra_block);
    append_double(sig, query.network.speed_kmh);
    append_double(sig, query.network.reference_speed_kmh);
    append_double(sig, query.network.drift);
    append_string(sig, query.network.inner_backend);
    append_double(sig, query.network.outer_tolerance);
    append_double(sig, query.network.outer_damping);
    append_int(sig, query.network.outer_max_iterations);

    append_int(sig, static_cast<long long>(rates.size()));
    for (const double rate : rates) {
        append_double(sig, rate);
    }
    append_int(sig, static_cast<long long>(grid_offset));
    return sig;
}

}  // namespace gprsim::service
