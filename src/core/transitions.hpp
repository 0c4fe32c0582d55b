// Transition structure of the GPRS Markov chain — paper Table 1, verbatim.
//
// Every row of Table 1 appears here twice: once in for_each_outgoing() (the
// generator and its diagonal) and once in for_each_incoming() (the rows of
// the transposed generator). The test suite checks both views against
// each other entry by entry. They are the reference the solver's stencil
// (core::GprsGenerator) takes its rates from and is checked against.
#pragma once

#include <algorithm>

#include "core/parameters.hpp"
#include "core/state_space.hpp"

namespace gprsim::core {

/// Aggregated transition rates of the model after handover balancing.
struct ModelRates {
    double gsm_arrival = 0.0;     ///< lambda_GSM + lambda_h,GSM
    double gsm_departure = 0.0;   ///< mu_GSM + mu_h,GSM       (per call)
    double gprs_arrival = 0.0;    ///< lambda_GPRS + lambda_h,GPRS
    double gprs_departure = 0.0;  ///< mu_GPRS + mu_h,GPRS     (per session)
    double on_to_off = 0.0;       ///< a  (packet call ends)
    double off_to_on = 0.0;       ///< b  (reading ends)
    double packet_rate = 0.0;     ///< lambda_packet while ON
    double service_rate = 0.0;    ///< mu_service per PDCH [packets/s]

    /// A newly arriving session starts ON with the IPP's stationary
    /// probability b/(a+b) so it is already in equilibrium (Section 4.1).
    double on_admission_probability() const {
        return off_to_on / (on_to_off + off_to_on);
    }
};

/// PDCHs carrying data in state s: min(N - n, 8k). At most 8 time slots per
/// packet (multislot) and 8 packets per PDCH; GSM calls preempt on-demand
/// channels, so only N - n channels remain for data.
inline int pdch_in_use(const Parameters& p, const State& s) {
    return std::min(p.total_channels - s.gsm_calls, 8 * s.buffer);
}

/// Aggregate packet service rate in state s.
inline double service_rate_in(const Parameters& p, const ModelRates& rates, const State& s) {
    return static_cast<double>(pdch_in_use(p, s)) * rates.service_rate;
}

/// Rate at which the (m - r) ON sources *offer* packets in state s. Below
/// the flow-control onset floor(eta K) the sources send at full speed; above
/// it the TCP approximation throttles them to the current service rate.
/// Arrivals offered at k = K are lost; they still count here, which is what
/// the packet loss probability (Eq. 9) divides by.
inline double offered_packet_rate(const Parameters& p, const ModelRates& rates,
                                  const State& s) {
    const double on_sources = static_cast<double>(s.gprs_sessions - s.off_sessions);
    const double full = on_sources * rates.packet_rate;
    if (s.buffer <= p.flow_control_onset()) {
        return full;
    }
    return std::min(full, service_rate_in(p, rates, s));
}

/// Rate of the k -> k+1 transition in state s (zero when the buffer is full).
inline double accepted_packet_rate(const Parameters& p, const ModelRates& rates,
                                   const State& s) {
    if (s.buffer >= p.buffer_capacity) {
        return 0.0;
    }
    return offered_packet_rate(p, rates, s);
}

/// Enumerates the outgoing transitions of state s (Table 1).
/// `emit(successor, rate)` is called for every transition with rate > 0.
template <typename F>
void for_each_outgoing(const Parameters& p, const ModelRates& rates, const State& s,
                       F&& emit) {
    const int k = s.buffer;
    const int n = s.gsm_calls;
    const int m = s.gprs_sessions;
    const int r = s.off_sessions;

    // GSM call arrival (fresh or handover).
    if (n < p.gsm_channels()) {
        emit(State{k, n + 1, m, r}, rates.gsm_arrival);
    }
    // GPRS session arrival; the newcomer is ON w.p. b/(a+b), OFF otherwise.
    if (m < p.max_gprs_sessions) {
        const double p_on = rates.on_admission_probability();
        emit(State{k, n, m + 1, r}, p_on * rates.gprs_arrival);
        emit(State{k, n, m + 1, r + 1}, (1.0 - p_on) * rates.gprs_arrival);
    }
    // GSM call leaves (completion or outgoing handover).
    if (n > 0) {
        emit(State{k, n - 1, m, r}, static_cast<double>(n) * rates.gsm_departure);
    }
    // GPRS session leaves; the leaver is OFF w.p. r/m, ON w.p. (m-r)/m.
    if (m > 0) {
        if (m - r > 0) {
            emit(State{k, n, m - 1, r},
                 static_cast<double>(m - r) * rates.gprs_departure);
        }
        if (r > 0) {
            emit(State{k, n, m - 1, r - 1},
                 static_cast<double>(r) * rates.gprs_departure);
        }
    }
    // Data packet arrival (possibly throttled by flow control).
    {
        const double rate = accepted_packet_rate(p, rates, s);
        if (rate > 0.0) {
            emit(State{k + 1, n, m, r}, rate);
        }
    }
    // Data packet service on min(N-n, 8k) PDCHs.
    {
        const double rate = service_rate_in(p, rates, s);
        if (rate > 0.0) {
            emit(State{k - 1, n, m, r}, rate);
        }
    }
    // Aggregated MMPP: one source finishes its packet call (less bursty)...
    if (r < m) {
        emit(State{k, n, m, r + 1}, static_cast<double>(m - r) * rates.on_to_off);
    }
    // ... or finishes reading (more bursty).
    if (r > 0) {
        emit(State{k, n, m, r - 1}, static_cast<double>(r) * rates.off_to_on);
    }
}

/// Total exit rate of state s; the generator diagonal is its negation.
inline double total_exit_rate(const Parameters& p, const ModelRates& rates, const State& s) {
    double total = 0.0;
    for_each_outgoing(p, rates, s, [&](const State&, double rate) { total += rate; });
    return total;
}

/// Enumerates the transitions *into* state s: `emit(predecessor, rate)` for
/// every predecessor with a positive rate toward s. This is the row of the
/// transposed generator needed by Gauss-Seidel, derived by inverting each
/// Table 1 event.
template <typename F>
void for_each_incoming(const Parameters& p, const ModelRates& rates, const State& s,
                       F&& emit) {
    const int k = s.buffer;
    const int n = s.gsm_calls;
    const int m = s.gprs_sessions;
    const int r = s.off_sessions;

    // GSM arrival happened: predecessor had n-1 calls.
    if (n >= 1) {
        emit(State{k, n - 1, m, r}, rates.gsm_arrival);
    }
    // GSM departure happened: predecessor had n+1 calls.
    if (n + 1 <= p.gsm_channels()) {
        emit(State{k, n + 1, m, r}, static_cast<double>(n + 1) * rates.gsm_departure);
    }
    // GPRS arrival in ON state: predecessor (m-1, r) — needs r <= m-1.
    if (m >= 1) {
        const double p_on = rates.on_admission_probability();
        if (r <= m - 1) {
            emit(State{k, n, m - 1, r}, p_on * rates.gprs_arrival);
        }
        // GPRS arrival in OFF state: predecessor (m-1, r-1).
        if (r >= 1) {
            emit(State{k, n, m - 1, r - 1}, (1.0 - p_on) * rates.gprs_arrival);
        }
    }
    // GPRS departure of an ON session: predecessor (m+1, r) had m+1-r > 0
    // ON sessions; rate (m+1-r) * mu.
    if (m + 1 <= p.max_gprs_sessions) {
        emit(State{k, n, m + 1, r},
             static_cast<double>(m + 1 - r) * rates.gprs_departure);
        // Departure of an OFF session: predecessor (m+1, r+1).
        emit(State{k, n, m + 1, r + 1},
             static_cast<double>(r + 1) * rates.gprs_departure);
    }
    // Packet arrival: predecessor one buffer level below.
    if (k >= 1) {
        const State pred{k - 1, n, m, r};
        const double rate = accepted_packet_rate(p, rates, pred);
        if (rate > 0.0) {
            emit(pred, rate);
        }
    }
    // Packet service: predecessor one buffer level above.
    if (k + 1 <= p.buffer_capacity) {
        const State pred{k + 1, n, m, r};
        const double rate = service_rate_in(p, rates, pred);
        if (rate > 0.0) {
            emit(pred, rate);
        }
    }
    // MMPP became less bursty (one source ON -> OFF): predecessor had r-1
    // OFF sources, i.e. m-(r-1) ON sources.
    if (r >= 1) {
        emit(State{k, n, m, r - 1}, static_cast<double>(m - r + 1) * rates.on_to_off);
    }
    // MMPP became more bursty (one source OFF -> ON): predecessor had r+1.
    if (r + 1 <= m) {
        emit(State{k, n, m, r + 1}, static_cast<double>(r + 1) * rates.off_to_on);
    }
}

}  // namespace gprsim::core
