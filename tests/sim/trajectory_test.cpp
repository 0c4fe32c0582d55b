// Pins the simulator's trajectory across commits. Each case runs a short
// NetworkSimulator configuration and compares every number it reports —
// each estimate's mean, half-width and batch count (headline and per
// cell), the raw counters, the simulated time and events_executed — for
// exact equality against values recorded from the per-frame simulator, as
// hex-float literals. The DES goldens only compare within each record's own
// 95% half-width, and the campaign thread-count compares only pit one
// width against another, so neither notices a trajectory that moved; this
// suite does. On a mismatch it prints the run's record as a literal.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "traffic/threegpp.hpp"

namespace gprsim::sim {
namespace {

/// Every number a run reports, in a fixed order.
struct Record {
    std::vector<double> reals;
    std::vector<std::int64_t> counts;
};

void add(Record& record, const MetricEstimate& e) {
    record.reals.push_back(e.mean);
    record.reals.push_back(e.half_width);
    record.counts.push_back(e.batches);
}

void add(Record& record, const CellEstimates& e) {
    for (const MetricEstimate* m :
         {&e.carried_data_traffic, &e.packet_loss_probability, &e.queueing_delay,
          &e.throughput_per_user_kbps, &e.mean_queue_length, &e.carried_voice_traffic,
          &e.average_gprs_sessions, &e.gsm_blocking, &e.gprs_blocking}) {
        add(record, *m);
    }
}

Record record_of(const SimulationResults& s) {
    Record record;
    add(record, CellEstimates{s.carried_data_traffic, s.packet_loss_probability,
                              s.queueing_delay, s.throughput_per_user_kbps,
                              s.mean_queue_length, s.carried_voice_traffic,
                              s.average_gprs_sessions, s.gsm_blocking, s.gprs_blocking});
    for (const CellEstimates& cell : s.cells) {
        add(record, cell);
    }
    record.reals.push_back(s.routing_area_update_rate);
    record.reals.push_back(s.simulated_time);
    for (std::int64_t v :
         {s.packets_offered, s.packets_dropped, s.packets_delivered, s.handover_packet_drops,
          s.gsm_attempts, s.gsm_blocked, s.gprs_attempts, s.gprs_blocked,
          s.gsm_handover_failures, s.gprs_handover_failures, s.tcp_timeouts,
          s.tcp_fast_retransmits, s.routing_area_updates}) {
        record.counts.push_back(v);
    }
    record.counts.push_back(static_cast<std::int64_t>(s.events_executed));
    return record;
}

/// The record as a C++ literal, laid out as the cases below write theirs.
std::string literal(const Record& record) {
    std::string text = "{{";
    char buffer[64];
    for (std::size_t i = 0; i < record.reals.size(); ++i) {
        std::snprintf(buffer, sizeof buffer, "%s%a,", i % 3 == 0 ? "\n        " : " ",
                      record.reals[i]);
        text += buffer;
    }
    text += "\n    }, {";
    for (std::size_t i = 0; i < record.counts.size(); ++i) {
        std::snprintf(buffer, sizeof buffer, "%s%" PRId64 ",", i % 10 == 0 ? "\n        " : " ",
                      record.counts[i]);
        text += buffer;
    }
    return text + "\n    }}";
}

void expect_pinned(const SimulationConfig& config, const Record& pinned) {
    const Record actual = record_of(NetworkSimulator(config).run());
    EXPECT_TRUE(actual.reals == pinned.reals && actual.counts == pinned.counts)
        << "this run's record:\n"
        << literal(actual);
}

/// The smoke campaigns' cell under traffic model 3: 6 channels, 1 reserved
/// PDCH, buffer 10, 6 sessions; 100 s warm-up and 3 batches of
/// `batch_duration` seconds.
SimulationConfig smoke_cell(double call_rate, double gprs_fraction, std::uint64_t seed,
                            double batch_duration = 1000.0) {
    SimulationConfig config;
    config.cell = core::Parameters::with_traffic_model(traffic::traffic_model_3());
    config.cell.total_channels = 6;
    config.cell.reserved_pdch = 1;
    config.cell.buffer_capacity = 10;
    config.cell.max_gprs_sessions = 6;
    config.cell.call_arrival_rate = call_rate;
    config.cell.gprs_fraction = gprs_fraction;
    config.seed = seed;
    config.warmup_time = 100.0;
    config.batch_count = 3;
    config.batch_duration = batch_duration;
    return config;
}

TEST(SimulatorTrajectory, OpenLoopAtOverload) {
    SimulationConfig config = smoke_cell(1.6, 0.3, 3);
    config.tcp_enabled = false;
    expect_pinned(config, {{
        0x1.2041096d185b2p+0, 0x1.e09aca6a1fd5ap-7, 0x1.add7b94685afdp-1,
        0x1.4e0ef60697381p-7, 0x1.48806546f6d32p+1, 0x1.545aa37833521p-9,
        0x1.3a7d29abf7c0ap+1, 0x1.44634a70c9e58p-5, 0x1.376b37aec236bp+3,
        0x1.ed1ae83d0d321p-6, 0x1.37ef229730ecfp+2, 0x1.dcca4493e458fp-7,
        0x1.76f1618910c8fp+2, 0x1.f4ba274568672p-4, 0x1.c77066b81c851p-1,
        0x1.f20c2e0346bfbp-8, 0x1.be9df6c7c2891p-1, 0x1.2d88bf117508fp-4,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 71559,
        60082, 11245, 44, 3594, 3197, 1658, 1448, 250, 111, 0,
        0, 0, 1658115,
    }});
}

TEST(SimulatorTrajectory, TcpAtDefaultDelays) {
    expect_pinned(smoke_cell(0.5, 0.15, 5), {{
        0x1.3917465a603ebp+0, 0x1.878b927421b09p-5, 0x1.6c13fa2f08cc6p-4,
        0x1.95ae2c921b511p-7, 0x1.da24b19fe240cp+0, 0x1.33a3cd9c6c3bp-3,
        0x1.90bff522f6c0fp+1, 0x1.45cceefe18adbp-2, 0x1.e813bd9bbcce2p+2,
        0x1.1ecaff6391274p-1, 0x1.2fe92846b2f84p+2, 0x1.189de6264997p-4,
        0x1.3ff934c7bccc6p+2, 0x1.0aec539959429p-1, 0x1.8a6ad99425fc1p-1,
        0x1.f2faf993c88dep-5, 0x1.f0e2e421761eep-2, 0x1.0f959253594cfp-2,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 13646,
        1213, 12216, 67, 1511, 1164, 373, 183, 173, 61, 3568,
        3291, 0, 1745275,
    }});
}

TEST(SimulatorTrajectory, BlockErrors) {
    SimulationConfig config = smoke_cell(0.5, 0.15, 7);
    config.cell.block_error_rate = 0.1;
    expect_pinned(config, {{
        0x1.424473d303e52p+0, 0x1.4a42dfe16738cp-3, 0x1.64e309064b19ap-4,
        0x1.b364c7a975aa1p-7, 0x1.0354a34782116p+1, 0x1.45eec82d73307p-2,
        0x1.623c071fd3575p+1, 0x1.02fd7ab242af3p-1, 0x1.ef3c86512238dp+2,
        0x1.0ed36f025b07fp-2, 0x1.2e850cc6a0007p+2, 0x1.79e701e73fa9cp-3,
        0x1.4fc71cbefc4bap+2, 0x1.d8bb4f69017cdp-2, 0x1.8ed65a2d4b0e2p-1,
        0x1.5c55f4a464434p-4, 0x1.e6c0d0039d518p-2, 0x1.de6e7db80d886p-4,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 12597,
        1096, 11327, 80, 1581, 1233, 380, 181, 192, 70, 3411,
        2843, 0, 1725734,
    }});
}

TEST(SimulatorTrajectory, HandoverDropsBufferedPackets) {
    SimulationConfig config = smoke_cell(0.5, 0.2, 9);
    config.cell.mean_gprs_dwell_time = 15.0;
    config.forward_buffer_on_handover = false;
    expect_pinned(config, {{
        0x1.1a6db96981e6cp+0, 0x1.0e529e62c7217p-4, 0x1.9c2e01f390eb6p-4,
        0x1.882f4d871cb5bp-6, 0x1.772a0117c8dcep+0, 0x1.6977d4a68302ep-4,
        0x1.a934f3c8c8a1cp+1, 0x1.8264c11b12c53p-2, 0x1.6c3c56f7e3288p+2,
        0x1.8a55b6f27245ep-2, 0x1.2dd2a29b5f4e5p+2, 0x1.ea348a8694162p-5,
        0x1.0d9c222848796p+2, 0x1.12653a5e89e05p-1, 0x1.7ad757150902dp-1,
        0x1.14004d614219bp-5, 0x1.cbc052a770b52p-3, 0x1.9d0031a5b881bp-4,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 13364,
        1347, 10918, 836, 1465, 1084, 1138, 257, 173, 205, 6802,
        1615, 0, 1499910,
    }});
}

TEST(SimulatorTrajectory, NetworkModeWithWeightedTargets) {
    // A 4-cell ring, each cell handing over to its two neighbours with
    // unequal weights; the cells differ in channels and packet size, so
    // forwarded packets, with the bits they have left, meet a buffer of
    // packets three times smaller or larger. Two routing areas, faster
    // mobility, every cell measured.
    SimulationConfig config = smoke_cell(0.6, 0.2, 11);
    config.cell.mean_gprs_dwell_time = 20.0;
    config.num_cells = 4;
    for (int c = 0; c < 4; ++c) {
        core::Parameters cell = config.cell;
        cell.total_channels = 5 + c;
        cell.traffic.packet_size_bits = 480.0 * 8.0 * (c % 2 == 0 ? 1.0 : 3.0);
        config.network_cells.push_back(cell);
        config.network_targets.push_back({(c + 1) % 4, (c + 3) % 4});
        config.network_weights.push_back({1.0, 2.5});
        config.network_routing_areas.push_back(c / 2);
    }
    config.network_dwell_scale = 2.0;
    config.measure_all_cells = true;
    expect_pinned(config, {{
        0x1.3107048f690a9p+0, 0x1.d19795b47ccbep-5, 0x1.a64a7b1076249p-4,
        0x1.854fdba50df1ap-6, 0x1.a4558291a6453p+0, 0x1.3550cd43c9971p-4,
        0x1.9a2e8fc8b6155p+1, 0x1.250a72a5844a4p-3, 0x1.a38b89a5bd608p+2,
        0x1.4dfeee650c002p-3, 0x1.ddd89029606f4p+1, 0x1.58ebe9e4ac4fep-4,
        0x1.136d023562419p+2, 0x1.079fe69430964p-2, 0x1.8bd6a72135bffp-1,
        0x1.d9045ec650844p-7, 0x1.b30ef848ce514p-3, 0x1.b9cc8fd98c18ap-5,
        0x1.3107048f690a9p+0, 0x1.d19795b47ccbep-5, 0x1.a64a7b1076249p-4,
        0x1.854fdba50df1ap-6, 0x1.a4558291a6453p+0, 0x1.3550cd43c9971p-4,
        0x1.9a2e8fc8b6155p+1, 0x1.250a72a5844a4p-3, 0x1.a38b89a5bd608p+2,
        0x1.4dfeee650c002p-3, 0x1.ddd89029606f4p+1, 0x1.58ebe9e4ac4fep-4,
        0x1.136d023562419p+2, 0x1.079fe69430964p-2, 0x1.8bd6a72135bffp-1,
        0x1.d9045ec650844p-7, 0x1.b30ef848ce514p-3, 0x1.b9cc8fd98c18ap-5,
        0x1.4dfa5a347abe5p+0, 0x1.104a72cc4a68fp-4, 0x1.0c62b857b8e25p-3,
        0x1.096085f17e361p-5, 0x1.a2ae9482fd8fep+1, 0x1.fedda3f560864p-3,
        0x1.1b77daebe23d9p+2, 0x1.a47dc5c8a6cd7p-2, 0x1.a223e43e5bcacp+2,
        0x1.6b1598457d212p-2, 0x1.280be6d5fcb87p+2, 0x1.b063a184846ap-4,
        0x1.0fe4415b18271p+2, 0x1.11a099c1d5cebp-1, 0x1.5ebcb9dc10424p-1,
        0x1.9665efe83fdcfp-5, 0x1.95fc7c868a74p-3, 0x1.8a9918f3559a8p-5,
        0x1.5e20af449ae4ap+0, 0x1.51f8a86e50fccp-3, 0x1.99827c3146321p-4,
        0x1.491afff09151fp-6, 0x1.6becb4a05c2b4p+0, 0x1.5536613a92774p-3,
        0x1.d33b6519bcee7p+1, 0x1.0c051ac9c0bd5p-1, 0x1.97c2f0ac10ac5p+2,
        0x1.7a305ba82634ap-1, 0x1.6193683063c2ap+2, 0x1.4712c24ad279ap-3,
        0x1.11320a2b48acep+2, 0x1.386ce92f1bf46p-2, 0x1.4d284b07029e9p-1,
        0x1.802b8052b157ap-5, 0x1.8d929a3e611d1p-3, 0x1.2ff2bbec23135p-5,
        0x1.8f69a825770aap+0, 0x1.10e037dd0079ap-5, 0x1.e201bd7974b3cp-4,
        0x1.6282786c685c1p-6, 0x1.582989d9a496cp+1, 0x1.a5e6e0e38b6b5p-2,
        0x1.5ffb5700b443ap+2, 0x1.4115091cba7dfp-1, 0x1.9678d71ae04cep+2,
        0x1.654ab676d9f21p-1, 0x1.962f4ade7e67fp+2, 0x1.7d65bb619cbcp-4,
        0x1.0287db5b1b525p+2, 0x1.140f86b3ea6c1p-1, 0x1.2589c08381cc5p-1,
        0x1.451b79963051bp-5, 0x1.4ed8efaf9d937p-3, 0x1.1637ac4a10ddp-3,
        0x1.30b9af72015d8p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
        3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
        3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
        3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
        3, 3, 3, 3, 3, 41440, 4523, 33609, 1759, 7827,
        5264, 6648, 1282, 1410, 976, 2760, 879, 3571, 901542,
    }});
}

TEST(SimulatorTrajectory, VoiceHoldsEveryChannel) {
    // No reserved PDCH and long calls: voice fills the cell for long
    // stretches while packets wait in the buffer with no channel.
    SimulationConfig config = smoke_cell(0.1, 0.3, 13);
    config.cell.reserved_pdch = 0;
    config.cell.total_channels = 4;
    config.cell.mean_gsm_call_duration = 300.0;
    config.tcp_enabled = false;
    expect_pinned(config, {{
        0x1.b0a217a5c5c0bp-1, 0x1.d9013921893edp-2, 0x1.a4b1b28f1cd1cp-1,
        0x1.0d386df5e48d1p-4, 0x1.8c6674ad8937dp+1, 0x1.2ef9182d85987p+0,
        0x1.598c357533268p+1, 0x1.0dd860e9f9c63p+0, 0x1.232aa1a423e9ep+3,
        0x1.d19ae50531245p-4, 0x1.8dd69e40dd2p+1, 0x1.f2b67986c0021p-2,
        0x1.fcba0e362f3e5p+1, 0x1.3e2ec5874e723p-1, 0x1.b66c5cf4714e1p-2,
        0x1.97e6164dce2a4p-3, 0x1.c1fe6bd80aab9p-3, 0x1.ce62f0e1872fap-3,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 48320,
        39655, 8437, 151, 337, 146, 183, 41, 80, 23, 0,
        0, 0, 1426001,
    }});
}

TEST(SimulatorTrajectory, ZeroWiredDelayAndFiveMillisecondFrames) {
    // The cell of FailureInjection.ZeroWiredDelayAndTinyFramesWork.
    SimulationConfig config;
    config.cell.total_channels = 3;
    config.cell.reserved_pdch = 1;
    config.cell.buffer_capacity = 5;
    config.cell.max_gprs_sessions = 2;
    config.cell.call_arrival_rate = 0.2;
    config.cell.gprs_fraction = 0.3;
    config.cell.traffic.mean_packet_calls = 2.0;
    config.cell.traffic.mean_packets_per_call = 5.0;
    config.cell.traffic.mean_packet_interarrival = 0.4;
    config.cell.traffic.mean_reading_time = 4.0;
    config.wired_delay = 0.0;
    config.frame_duration = 0.005;
    config.seed = 17;
    config.warmup_time = 100.0;
    config.batch_count = 3;
    config.batch_duration = 300.0;
    expect_pinned(config, {{
        0x1.a87599c832681p-4, 0x1.127ea42135e4dp-4, 0x1.6f817ae53a791p-8,
        0x1.9594af5188441p-7, 0x1.a03866a9638ddp-2, 0x1.c42a997e3155ep-6,
        0x1.04a563603e5e4p+2, 0x1.07cbd3b0e552cp+1, 0x1.2a62afbeaacc1p-3,
        0x1.8c194bd3ad88dp-4, 0x1.cd21eeaa3849fp+0, 0x1.bce73517a455ap-4,
        0x1.55ce56061cd02p-2, 0x1.a40c0beb7460fp-5, 0x1.8f35714963fcfp-1,
        0x1.9f08d3b5e28e4p-4, 0x1.4141414141414p-6, 0x1.599707ab828cdp-4,
        0x0p+0, 0x1.f4p+9,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 323,
        2, 321, 0, 182, 142, 47, 1, 19, 1, 21,
        13, 0, 186138,
    }});
}

TEST(SimulatorTrajectory, TcpWithWiredDelayShorterThanAFrame) {
    // A segment sent on an ack at t + 0.01 reaches the BSC at
    // (t + 0.01) + 0.01, often exactly the next 20 ms frame: scheduled
    // after the frame before it ran, it comes after that frame.
    SimulationConfig config = smoke_cell(0.2, 0.15, 1, 300.0);
    config.wired_delay = 0.01;
    expect_pinned(config, {{
        0x1.b92faaf6c9824p+0, 0x1.8f6ecd4a38bdap-2, 0x1.1152f0dd0c5ffp-4,
        0x1.aa386f853bb63p-5, 0x1.5be2e9d8aec1ep+0, 0x1.30fc24c0eea98p-2,
        0x1.4f21db98ef11cp+2, 0x1.18ee8b8a8a128p+1, 0x1.f36650a5c2c4bp+2,
        0x1.c8f5198495467p-1, 0x1.0f097b9c4198cp+2, 0x1.3515a41459fedp-2,
        0x1.104d80d03ab35p+2, 0x1.0a7d11129e549p+0, 0x1.0f26f6606fcdp-1,
        0x1.1a17297eac7fdp-2, 0x1.d4975fb8c3e55p-3, 0x1.76b59f99a2dc8p-3,
        0x0p+0, 0x1.f4p+9,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 5546,
        366, 5168, 10, 199, 107, 59, 13, 33, 3, 928,
        1191, 0, 520441,
    }});
}

TEST(SimulatorTrajectory, TcpWithWiredDelayOfOneFrame) {
    // An ack lands exactly one frame after the frame that delivered its
    // packet, and the segment it sends one frame later again.
    SimulationConfig config = smoke_cell(0.4, 0.15, 2);
    config.wired_delay = 0.02;
    expect_pinned(config, {{
        0x1.562481505bbefp+0, 0x1.87695616db797p-3, 0x1.31f324483e1ddp-4,
        0x1.b3940f76c954ap-6, 0x1.bbeaf431350e3p+0, 0x1.701af7c61fccfp-3,
        0x1.c90f1d757012bp+1, 0x1.e5f75b7826217p-2, 0x1.f24fd3be12c0dp+2,
        0x1.48928f91aee03p-1, 0x1.2940a177e8b9ap+2, 0x1.266a672343786p-3,
        0x1.32bb34a31362ep+2, 0x1.be35cb438231dp-1, 0x1.6c7d4fc6ccee7p-1,
        0x1.917a01afecb1cp-4, 0x1.434e86bc0ee76p-2, 0x1.6899b5f2e6617p-4,
        0x0p+0, 0x1.838p+11,
    }, {
        3, 3, 3, 3, 3, 3, 3, 3, 3, 14615,
        1097, 13347, 73, 1188, 847, 283, 89, 170, 50, 3246,
        3408, 0, 1731976,
    }});
}

}  // namespace
}  // namespace gprsim::sim
