// Golden guard: re-runs every smoke campaign and compares each
// evaluation's measures, by column name, against the checked-in record
// (golden.hpp layout). Deterministic backends must agree within 1e-6
// relative; the stochastic ones (des, network-des) within the record's own
// 95% half-width, measure by measure. The two measures without a
// half-width column (offered_packet_rate, data_throughput_kbps) use the
// deterministic rule for every backend. The comparison reads
// CampaignResult::points[].evaluations, never the result CSV, so a sink
// layout change cannot mask a numeric one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <tuple>

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "golden.hpp"

namespace gprsim::golden {
namespace {

constexpr double kRelativeTolerance = 1e-6;

double number(const std::string& cell) { return std::strtod(cell.c_str(), nullptr); }

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, MatchesParentRecord) {
    const std::string name = GetParam();
    std::ifstream in(std::string(GPRSIM_SOURCE_DIR) + "/tests/golden/" + name + ".csv");
    ASSERT_TRUE(in) << "missing golden record for " << name;
    const campaign::CsvTable golden = campaign::read_csv(in);
    ASSERT_FALSE(golden.rows.empty());

    campaign::CampaignOptions options;
    options.num_threads = 2;
    const campaign::CampaignResult result = campaign::run_campaign(
        campaign::parse_spec_file(std::string(GPRSIM_SOURCE_DIR) + "/campaigns/" + name +
                                  ".json"),
        options);

    // (variant, rate text, backend) -> evaluation; the rate key is the
    // record's own max_digits10 text so the lookup is exact.
    std::map<std::tuple<std::size_t, std::string, std::string>,
             const eval::PointEvaluation*>
        evaluations;
    for (const campaign::CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& evaluation : point.evaluations) {
            char rate[40];
            std::snprintf(rate, sizeof(rate), "%.17g", point.call_arrival_rate);
            evaluations[{point.variant, rate, evaluation.backend}] = &evaluation;
        }
    }
    ASSERT_EQ(evaluations.size(), golden.rows.size())
        << name << ": evaluation count differs from the record";

    double worst = 0.0;
    for (std::size_t row = 0; row < golden.rows.size(); ++row) {
        const std::string& backend = golden.cell(row, "backend");
        const auto found = evaluations.find(
            {static_cast<std::size_t>(std::stoul(golden.cell(row, "variant"))),
             golden.cell(row, "call_arrival_rate"), backend});
        ASSERT_NE(found, evaluations.end())
            << name << " row " << row << ": no evaluation for this key";
        for (const auto& [column, actual] : measure_fields(found->second->measures)) {
            const double expected = number(golden.cell(row, column));
            const auto hw = std::find(golden.columns.begin(), golden.columns.end(),
                                      column + "_hw");
            const std::string half_width =
                hw == golden.columns.end()
                    ? std::string()
                    : golden.rows[row][static_cast<std::size_t>(hw - golden.columns.begin())];
            const double difference = std::fabs(actual - expected);
            const double scale = std::max(std::fabs(actual), std::fabs(expected));
            if (!half_width.empty()) {
                EXPECT_LE(difference, number(half_width))
                    << name << " row " << row << " " << backend << " " << column;
            } else {
                EXPECT_LE(difference, kRelativeTolerance * scale)
                    << name << " row " << row << " " << backend << " " << column;
            }
            if (scale > 0.0) {
                worst = std::max(worst, difference / scale);
            }
        }
    }
    std::printf("%s: largest relative difference %.3g\n", name.c_str(), worst);
}

INSTANTIATE_TEST_SUITE_P(Campaigns, Golden, ::testing::ValuesIn(campaigns()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             return info.param;
                         });

}  // namespace
}  // namespace gprsim::golden
