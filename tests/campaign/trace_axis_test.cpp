// Trace-driven workloads end to end: a campaign whose traffic axis names
// an arrival trace ("trace:<file>") fits the trace to an IPP/3GPP session
// model during expansion and evaluates it like any preset variant. The
// golden fixture was synthesized from traffic model 1's IPP, so the trace
// variant's measures must land close to the directly-parameterized tm1
// variant — the fitted-model-tolerance acceptance check of the service PR.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace gprsim::campaign {
namespace {

const std::string kFixture =
    std::string(GPRSIM_SOURCE_DIR) + "/tests/traffic/data/ipp_tm1.trace";

ScenarioSpec trace_vs_preset_spec() {
    ScenarioSpec spec;
    spec.named("trace_axis")
        .with_methods({"ctmc"})
        .over_traffic_models({1})
        .over_traffic_traces({kFixture})
        .over_session_limits({6})
        .with_rates({0.3, 0.5});
    spec.total_channels = 6;
    spec.buffer_capacity = 10;
    return spec;
}

TEST(TraceAxis, ExpandsPresetsThenTracesWithFittedLabels) {
    const ScenarioSpec spec = trace_vs_preset_spec();
    ASSERT_EQ(spec.variant_count(), 2u);
    const std::vector<Variant> variants = spec.expand();
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_TRUE(variants[0].traffic_trace.empty());
    EXPECT_EQ(variants[0].traffic_model, 1);
    EXPECT_EQ(variants[1].traffic_trace, kFixture);
    EXPECT_NE(variants[1].label.find("trace:ipp_tm1.trace"), std::string::npos);
    // The fitted session model replaces the preset's, and differs from it.
    EXPECT_NE(variants[1].parameters.traffic.mean_packet_interarrival,
              variants[0].parameters.traffic.mean_packet_interarrival);
}

TEST(TraceAxis, MissingTraceIsASpecError) {
    ScenarioSpec spec = trace_vs_preset_spec();
    spec.traffic_traces = {"/nonexistent/capture.trace"};
    try {
        spec.expand();
        FAIL() << "expand accepted a missing trace";
    } catch (const SpecError& error) {
        EXPECT_NE(std::string(error.what()).find("traffic trace"), std::string::npos);
    }
}

TEST(TraceAxis, TraceVariantTracksItsSourcePresetThroughACampaign) {
    const CampaignResult result = run_campaign(trace_vs_preset_spec(), {});
    ASSERT_EQ(result.variants.size(), 2u);
    ASSERT_EQ(result.rates.size(), 2u);

    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        const core::Measures& preset = result.at(0, r).evaluations.front().measures;
        const core::Measures& traced = result.at(1, r).evaluations.front().measures;
        // The fixture's fit recovers tm1's rate within ~5% and its burst
        // structure within the windowed-IDC bias, so the queueing measures
        // must agree to well within 25% (relative) — the trace variant is
        // the SAME workload, estimated instead of specified.
        EXPECT_NEAR(traced.carried_data_traffic,
                    preset.carried_data_traffic,
                    0.25 * preset.carried_data_traffic + 1e-12)
            << "rate " << result.rates[r];
        EXPECT_NEAR(traced.throughput_per_user_kbps,
                    preset.throughput_per_user_kbps,
                    0.25 * preset.throughput_per_user_kbps + 1e-12)
            << "rate " << result.rates[r];
        // Blocking-type probabilities are tiny here; compare absolutely.
        EXPECT_NEAR(traced.gsm_blocking, preset.gsm_blocking, 0.05);
        EXPECT_NEAR(traced.packet_loss_probability,
                    preset.packet_loss_probability, 0.05);
    }
}

}  // namespace
}  // namespace gprsim::campaign
