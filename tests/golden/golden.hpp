// Golden-record layout shared by the generator (make_golden.cpp) and the
// comparison test (golden_test.cpp). One CSV per campaign under
// tests/golden/, one row per evaluation, keyed by (variant,
// call_arrival_rate, backend): every core::Measures field, then the DES
// 95% half-widths (empty for deterministic backends). Doubles are written
// with max_digits10 digits, so a record reads back to the exact bits.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "eval/evaluator.hpp"

namespace gprsim::golden {

/// The smoke campaigns the records cover; together they run all eight
/// built-in backends.
inline const std::vector<std::string>& campaigns() {
    static const std::vector<std::string> names{
        "smoke",     "smoke_multi",   "smoke_solver",   "smoke_des",
        "smoke_large", "smoke_network", "trace_workload"};
    return names;
}

using Fields = std::vector<std::pair<std::string, double>>;

inline Fields measure_fields(const core::Measures& m) {
    return {{"carried_data_traffic", m.carried_data_traffic},
            {"packet_loss_probability", m.packet_loss_probability},
            {"queueing_delay", m.queueing_delay},
            {"throughput_per_user_kbps", m.throughput_per_user_kbps},
            {"mean_queue_length", m.mean_queue_length},
            {"offered_packet_rate", m.offered_packet_rate},
            {"data_throughput_kbps", m.data_throughput_kbps},
            {"carried_voice_traffic", m.carried_voice_traffic},
            {"average_gprs_sessions", m.average_gprs_sessions},
            {"gsm_blocking", m.gsm_blocking},
            {"gprs_blocking", m.gprs_blocking}};
}

/// Half-width of measure `<name>` is stored in column `<name>_hw`.
inline Fields half_width_fields(const sim::ExperimentResults& s) {
    return {{"carried_data_traffic_hw", s.carried_data_traffic.half_width},
            {"packet_loss_probability_hw", s.packet_loss_probability.half_width},
            {"queueing_delay_hw", s.queueing_delay.half_width},
            {"throughput_per_user_kbps_hw", s.throughput_per_user_kbps.half_width},
            {"mean_queue_length_hw", s.mean_queue_length.half_width},
            {"carried_voice_traffic_hw", s.carried_voice_traffic.half_width},
            {"average_gprs_sessions_hw", s.average_gprs_sessions.half_width},
            {"gsm_blocking_hw", s.gsm_blocking.half_width},
            {"gprs_blocking_hw", s.gprs_blocking.half_width}};
}

}  // namespace gprsim::golden
