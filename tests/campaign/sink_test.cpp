// Campaign sinks: the fixed one-row-per-(point, backend) CSV layout,
// bit-exact round-trip of every evaluation's measures through read_csv,
// quoting, the JSON document's shape (parseable by the spec layer's own
// JSON reader), and the per-backend summary block.
#include "campaign/sink.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "campaign/json.hpp"

namespace gprsim::campaign {
namespace {

/// Small deterministic campaign (erlang method — no solver, milliseconds).
CampaignResult sample_result() {
    ScenarioSpec spec;
    spec.named("sink sample, quoted")
        .with_methods({"erlang"})
        .over_reserved_pdch({0, 2})
        .with_rate_grid(0.25, 0.75, 3);
    return run_campaign(spec);
}

/// The shrunken smoke cell (6 channels, 10-packet buffer, M = 6) with
/// short simulator settings: every backend finishes in milliseconds.
ScenarioSpec small_cell_spec(std::vector<std::string> methods) {
    ScenarioSpec spec;
    spec.named("sink small").with_methods(std::move(methods)).with_rate_grid(0.3, 0.7, 3);
    spec.gprs_fractions = {0.1};
    spec.total_channels = 6;
    spec.buffer_capacity = 10;
    spec.max_gprs_sessions = {6};
    spec.simulation.replications = 2;
    spec.simulation.warmup_time = 100.0;
    spec.simulation.batch_count = 3;
    spec.simulation.batch_duration = 150.0;
    return spec;
}

CsvTable csv_of(const CampaignResult& result) {
    std::ostringstream out;
    write_campaign_csv(result, out);
    std::istringstream in(out.str());
    return read_csv(in);
}

double parse_double(const std::string& cell) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    EXPECT_NE(end, cell.c_str()) << "unparseable cell: " << cell;
    return value;
}

std::string print_summary(const CampaignResult& result) {
    char buffer[2048] = {};
    std::FILE* out = std::tmpfile();
    EXPECT_NE(out, nullptr);
    print_campaign_summary(result, out);
    std::rewind(out);
    const std::size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, out);
    std::fclose(out);
    return std::string(buffer, read);
}

TEST(CampaignCsv, RoundTripsExactBits) {
    const CampaignResult result = sample_result();
    const CsvTable table = csv_of(result);
    ASSERT_EQ(table.rows.size(), result.points.size());  // one backend
    ASSERT_EQ(table.columns.size(), 43u);

    for (std::size_t row = 0; row < table.rows.size(); ++row) {
        const CampaignPoint& point = result.points[row];
        const Variant& variant = result.variants[point.variant];
        const eval::PointEvaluation& evaluation = point.evaluations.front();
        // The quoted scenario name survives the comma.
        EXPECT_EQ(table.cell(row, "scenario"), "sink sample, quoted");
        EXPECT_EQ(table.cell(row, "backend"), "erlang");
        EXPECT_EQ(table.cell(row, "reserved_pdch"), std::to_string(variant.reserved_pdch));
        // Doubles round-trip bit-exactly through max_digits10 text.
        EXPECT_EQ(parse_double(table.cell(row, "call_arrival_rate")),
                  point.call_arrival_rate);
        EXPECT_EQ(parse_double(table.cell(row, "cvt")),
                  evaluation.measures.carried_voice_traffic);
        EXPECT_EQ(parse_double(table.cell(row, "gsm_blocking")),
                  evaluation.measures.gsm_blocking);
        // Provenance the erlang closed form does not have stays empty.
        EXPECT_TRUE(table.cell(row, "iterations").empty());
        EXPECT_TRUE(table.cell(row, "warm_parent").empty());
        EXPECT_TRUE(table.cell(row, "cdt_hw").empty());
        EXPECT_TRUE(table.cell(row, "rau_rate").empty());
        EXPECT_TRUE(table.cell(row, "network_cells").empty());
        EXPECT_EQ(table.cell(row, "delta_cdt"), "0");
    }
}

/// Every evaluation's measures, read back by column name, equal the
/// in-memory evaluation bit for bit; so do the provenance cells the
/// backend fills.
void expect_measures_round_trip(const CampaignResult& result) {
    const CsvTable table = csv_of(result);
    ASSERT_EQ(table.rows.size(), result.points.size() * result.methods.size());
    std::size_t row = 0;
    for (const CampaignPoint& point : result.points) {
        for (const eval::PointEvaluation& e : point.evaluations) {
            const core::Measures& m = e.measures;
            EXPECT_EQ(table.cell(row, "backend"), e.backend);
            for (const auto& [column, value] :
                 {std::pair{"cdt", m.carried_data_traffic},
                  std::pair{"plp", m.packet_loss_probability},
                  std::pair{"qd", m.queueing_delay},
                  std::pair{"atu", m.throughput_per_user_kbps},
                  std::pair{"mql", m.mean_queue_length},
                  std::pair{"offered_packet_rate", m.offered_packet_rate},
                  std::pair{"data_throughput_kbps", m.data_throughput_kbps},
                  std::pair{"cvt", m.carried_voice_traffic},
                  std::pair{"ags", m.average_gprs_sessions},
                  std::pair{"gsm_blocking", m.gsm_blocking},
                  std::pair{"gprs_blocking", m.gprs_blocking}}) {
                EXPECT_EQ(parse_double(table.cell(row, column)), value)
                    << e.backend << " row " << row << " " << column;
            }
            if (e.iterations > 0) {
                EXPECT_EQ(table.cell(row, "iterations"), std::to_string(e.iterations));
                EXPECT_EQ(parse_double(table.cell(row, "residual")), e.residual);
            }
            if (e.has_confidence) {
                EXPECT_EQ(parse_double(table.cell(row, "cdt_hw")),
                          e.sim.carried_data_traffic.half_width);
                EXPECT_EQ(table.cell(row, "replications"),
                          std::to_string(e.sim.replications.size()));
                EXPECT_EQ(table.cell(row, "events"), std::to_string(e.sim.events_executed));
            } else {
                EXPECT_TRUE(table.cell(row, "cdt_hw").empty()) << e.backend;
            }
            if (!e.cell_measures.empty()) {
                EXPECT_EQ(parse_double(table.cell(row, "rau_rate")), e.rau_rate);
            }
            ++row;
        }
    }
}

TEST(CampaignCsv, MeasuresRoundTripBitwiseForEveryBackend) {
    expect_measures_round_trip(run_campaign(small_cell_spec({"ctmc", "des", "fixed-point"})));

    ScenarioSpec network = small_cell_spec({"network-fp", "network-des"});
    NetworkSpec lattice;
    lattice.cell_counts = {4};
    lattice.knobs.ra_block = 1;
    network.with_network(lattice);
    const CampaignResult result = run_campaign(network);
    expect_measures_round_trip(result);
    const CsvTable table = csv_of(result);
    EXPECT_EQ(table.cell(0, "network_cells"), "4");
    EXPECT_EQ(table.cell(0, "reuse_factor"), "1");
}

TEST(CampaignCsv, ReaderRejectsRaggedRows) {
    std::istringstream in("a,b,c\n1,2,3\n4,5\n");
    EXPECT_THROW(read_csv(in), std::runtime_error);
}

TEST(CampaignCsv, ReaderHandlesQuotedCells) {
    std::istringstream in("name,value\n\"a,b\",\"say \"\"hi\"\"\"\n");
    const CsvTable table = read_csv(in);
    ASSERT_EQ(table.rows.size(), 1u);
    EXPECT_EQ(table.cell(0, "name"), "a,b");
    EXPECT_EQ(table.cell(0, "value"), "say \"hi\"");
}

TEST(CampaignCsv, UnknownColumnThrows) {
    std::istringstream in("a,b\n1,2\n");
    const CsvTable table = read_csv(in);
    EXPECT_THROW(table.column("missing"), std::out_of_range);
}

TEST(CampaignJson, DocumentParsesWithOwnReader) {
    const CampaignResult result = sample_result();
    std::ostringstream out;
    write_campaign_json(result, out);

    const JsonValue root = parse_json(out.str());
    ASSERT_TRUE(root.is_object());
    EXPECT_EQ(root.find("name")->as_string(), "sink sample, quoted");
    const JsonValue* methods = root.find("methods");
    ASSERT_NE(methods, nullptr);
    ASSERT_TRUE(methods->is_array());
    ASSERT_EQ(methods->items().size(), 1u);
    EXPECT_EQ(methods->items().front().as_string(), "erlang");
    const JsonValue* summary = root.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(static_cast<std::size_t>(summary->find("points")->as_number()),
              result.points.size());
    const JsonValue* backends = summary->find("backends");
    ASSERT_NE(backends, nullptr);
    ASSERT_EQ(backends->items().size(), 1u);
    EXPECT_EQ(backends->items().front().find("backend")->as_string(), "erlang");
    const JsonValue* rows = root.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->items().size(), result.points.size());
    const JsonValue& first = rows->items().front();
    EXPECT_EQ(first.find("backend")->as_string(), "erlang");
    EXPECT_EQ(first.find("cvt")->as_number(),
              result.points.front().evaluations.front().measures.carried_voice_traffic);
    // Omitted (empty) columns must be absent, not null.
    EXPECT_EQ(first.find("cdt_hw"), nullptr);
}

TEST(CampaignSummary, PrintsIterationTotals)
{
    const std::string text = print_summary(sample_result());
    EXPECT_NE(text.find("campaign 'sink sample, quoted' (erlang)"), std::string::npos);
    EXPECT_NE(text.find("2 variants x 3 rates = 6 points"), std::string::npos);
    EXPECT_NE(text.find("  erlang: 6 points\n"), std::string::npos) << text;
}

TEST(CampaignSummary, CountsEachBackendSeparately) {
    const CampaignResult result =
        run_campaign(small_cell_spec({"ctmc", "fixed-point", "fluid"}));
    ASSERT_EQ(result.summary.backends.size(), 3u);
    for (std::size_t b = 0; b < 3; ++b) {
        const BackendTotals& totals = result.summary.backends[b];
        EXPECT_EQ(totals.backend, result.methods[b]);
        EXPECT_EQ(totals.points, 3u);
        long long iterations = 0;
        for (const CampaignPoint& point : result.points) {
            iterations += point.evaluations[b].iterations;
        }
        EXPECT_EQ(totals.iterations, iterations) << totals.backend;
        EXPECT_GT(totals.iterations, 0) << totals.backend;
        EXPECT_EQ(totals.replications, 0);
    }
    // Only the chain backend runs the warm-start schedule: the two
    // non-root points of the 3-point grid are offered a transfer.
    EXPECT_EQ(result.summary.backends[0].warm_offered, 2u);
    EXPECT_EQ(result.summary.backends[1].warm_offered, 0u);
    EXPECT_EQ(result.summary.backends[2].warm_offered, 0u);

    const std::string text = print_summary(result);
    EXPECT_EQ(text.find("chain solves"), std::string::npos) << text;
    EXPECT_NE(text.find("  ctmc: 3 points, " +
                        std::to_string(result.summary.backends[0].iterations) +
                        " iterations"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("  fluid: 3 points, " +
                        std::to_string(result.summary.backends[2].iterations) +
                        " iterations\n"),
              std::string::npos)
        << text;
}

TEST(CampaignSummary, NetworkCampaignReportsNoChainSolves) {
    ScenarioSpec spec = small_cell_spec({"network-fp", "network-des"});
    NetworkSpec lattice;
    lattice.cell_counts = {4};
    spec.with_network(lattice);
    const CampaignResult result = run_campaign(spec);
    ASSERT_EQ(result.summary.backends.size(), 2u);
    const BackendTotals& fp = result.summary.backends[0];
    const BackendTotals& des = result.summary.backends[1];
    // network-fp's iterations are its outer iterations, one count per
    // point; nothing is attributed to a ctmc backend that did not run.
    long long outer = 0;
    for (const CampaignPoint& point : result.points) {
        outer += point.evaluations[0].iterations;
    }
    EXPECT_EQ(fp.iterations, outer);
    EXPECT_EQ(fp.warm_offered, 0u);
    EXPECT_EQ(des.replications, 6);
    EXPECT_GT(des.events, 0u);
    EXPECT_EQ(des.iterations, 0);

    const std::string text = print_summary(result);
    EXPECT_EQ(text.find("ctmc"), std::string::npos) << text;
    EXPECT_EQ(text.find("warm"), std::string::npos) << text;
    EXPECT_NE(text.find("  network-des: 3 points, 6 replications"), std::string::npos)
        << text;
}

}  // namespace
}  // namespace gprsim::campaign
