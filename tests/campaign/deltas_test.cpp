// Pairwise-delta machinery, isolated from any real model: two synthetic
// backends whose measures are exactly representable doubles with a known
// constant offset are registered, run as a two-method campaign, and the
// CampaignPoint::deltas vector plus the delta_* CSV columns are pinned —
// signs, magnitudes, and bit-exact round-trip through read_csv — along with
// the CSV header, which is the same whatever the method list. This is the
// contract the cross-validation campaigns (smoke_large, large_population)
// lean on when they read approximation error out of the delta columns.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "eval/evaluator.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {
namespace {

/// Synthetic backend: every measure is a small exact constant plus the
/// arrival rate, so reference-minus-other deltas are exact dyadic doubles.
class OffsetBackend : public eval::Evaluator {
public:
    OffsetBackend(std::string name, double offset)
        : name_(std::move(name)),
          description_("synthetic constant-offset backend (deltas_test)"),
          offset_(offset) {}

    const std::string& name() const override { return name_; }
    const std::string& description() const override { return description_; }

    common::Result<eval::PointEvaluation> evaluate(
        const eval::ScenarioQuery& query) override {
        eval::PointEvaluation point;
        point.backend = name_;
        point.call_arrival_rate = query.call_arrival_rate;
        point.measures.carried_data_traffic = 2.0 + offset_ + query.call_arrival_rate;
        point.measures.packet_loss_probability = 0.125 + offset_;
        point.measures.queueing_delay = 1.5 + offset_;
        point.measures.throughput_per_user_kbps = 8.0 - offset_;
        return point;
    }

private:
    std::string name_;
    std::string description_;
    double offset_;
};

void register_offset_backends() {
    static const bool once = [] {
        auto& registry = eval::BackendRegistry::global();
        registry
            .add("offset-a", "synthetic delta reference",
                 [] { return std::make_unique<OffsetBackend>("offset-a", 0.0); })
            .ok();
        registry
            .add("offset-b", "synthetic delta comparand",
                 [] { return std::make_unique<OffsetBackend>("offset-b", 0.25); })
            .ok();
        return true;
    }();
    (void)once;
}

TEST(CampaignDeltas, PairwiseDeltasCarryExactSignedOffsets) {
    register_offset_backends();
    ScenarioSpec spec;
    spec.named("deltas synthetic")
        .with_methods({"offset-a", "offset-b"})
        .with_rates({0.25, 0.5});
    const CampaignResult result = run_campaign(spec);

    ASSERT_EQ(result.methods.size(), 2u);
    EXPECT_EQ(result.methods[0], "offset-a");
    ASSERT_EQ(result.points.size(), 2u);
    for (const CampaignPoint& point : result.points) {
        ASSERT_EQ(point.deltas.size(), 2u);
        // The reference backend's own slot is identically zero.
        EXPECT_EQ(point.deltas[0].cdt, 0.0);
        EXPECT_EQ(point.deltas[0].plp, 0.0);
        EXPECT_EQ(point.deltas[0].qd, 0.0);
        EXPECT_EQ(point.deltas[0].atu, 0.0);
        // reference minus other: offset-b runs 0.25 high on cdt/plp/qd and
        // 0.25 low on atu, and all four offsets are exact dyadic doubles.
        EXPECT_EQ(point.deltas[1].cdt, -0.25);
        EXPECT_EQ(point.deltas[1].plp, -0.25);
        EXPECT_EQ(point.deltas[1].qd, -0.25);
        EXPECT_EQ(point.deltas[1].atu, 0.25);
    }
}

CsvTable csv_of(const CampaignResult& result) {
    std::ostringstream out;
    write_campaign_csv(result, out);
    std::istringstream in(out.str());
    return read_csv(in);
}

TEST(CampaignDeltas, DeltaColumnsRoundTripThroughCsv) {
    register_offset_backends();
    ScenarioSpec spec;
    spec.named("deltas csv")
        .with_methods({"offset-a", "offset-b"})
        .with_rates({0.25, 0.5});
    const CampaignResult result = run_campaign(spec);
    const CsvTable table = csv_of(result);

    // One row per (point, backend); each row's delta_* cells hold the first
    // backend's measure minus the row's own, read back bit for bit.
    ASSERT_EQ(table.rows.size(), 2 * result.points.size());
    for (std::size_t row = 0; row < table.rows.size(); ++row) {
        const std::size_t reference = row - row % 2;  // offset-a row of this point
        for (const auto& [delta, measure] :
             {std::pair{"delta_cdt", "cdt"}, std::pair{"delta_plp", "plp"},
              std::pair{"delta_qd", "qd"}, std::pair{"delta_atu", "atu"}}) {
            EXPECT_EQ(std::strtod(table.cell(row, delta).c_str(), nullptr),
                      std::strtod(table.cell(reference, measure).c_str(), nullptr) -
                          std::strtod(table.cell(row, measure).c_str(), nullptr))
                << "row " << row << " " << delta;
        }
    }
    EXPECT_EQ(table.cell(0, "backend"), "offset-a");
    EXPECT_EQ(table.cell(0, "delta_cdt"), "0");
    EXPECT_EQ(table.cell(1, "backend"), "offset-b");
    EXPECT_EQ(table.cell(1, "delta_cdt"), "-0.25");
    EXPECT_EQ(table.cell(1, "delta_plp"), "-0.25");
    EXPECT_EQ(table.cell(1, "delta_qd"), "-0.25");
    EXPECT_EQ(table.cell(1, "delta_atu"), "0.25");
}

TEST(CampaignDeltas, HeaderIsFixedWhateverTheMethodList) {
    register_offset_backends();
    ScenarioSpec single;
    single.named("deltas single").with_methods({"offset-a"}).with_rates({0.25});
    ScenarioSpec pair = single;
    pair.with_methods({"offset-b", "offset-a"});
    ScenarioSpec erlang = single;
    erlang.with_methods({"erlang", "mm1k-approx"});
    ScenarioSpec network = single;
    NetworkSpec lattice;
    lattice.cell_counts = {1};
    network.with_methods({"network-fp"}).with_network(lattice);
    network.total_channels = 6;
    network.buffer_capacity = 10;
    network.max_gprs_sessions = {6};

    const std::vector<std::string> header = csv_of(run_campaign(single)).columns;
    EXPECT_EQ(header.size(), 43u);
    for (const ScenarioSpec* other : {&pair, &erlang, &network}) {
        EXPECT_EQ(csv_of(run_campaign(*other)).columns, header) << other->methods.front();
    }
}

}  // namespace
}  // namespace gprsim::campaign
