// Campaign spec format: accepted documents, builder equivalence, cartesian
// expansion order, and — most importantly — that every malformed spec is
// rejected with the 1-based line number of the offending construct.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "campaign/json.hpp"
#include "eval/registry.hpp"

namespace gprsim::campaign {
namespace {

TEST(ParseSpec, FullDocumentRoundTrips) {
    const std::string text = R"({
      // comments and trailing commas are part of the spec format
      "name": "fig06",
      "methods": ["ctmc", "des"],
      "traffic_model": 3,
      "reserved_pdch": [1, 2],
      "gprs_fraction": [0.02, 0.05, 0.10],
      "coding_scheme": "cs2",
      "max_gprs_sessions": 0,
      "channels": 20,
      "buffer": 100,
      "eta": 0.7,
      "bler": 0.0,
      "rates": {"first": 0.1, "last": 1.0, "count": 10},
      "solver": {"tolerance": 1e-9},
      "simulation": {"replications": 4, "seed": 600, "warmup": 1500,
                     "batch_count": 10, "batch_duration": 1500, "tcp": true},
    })";
    const ScenarioSpec spec = parse_spec(text);
    EXPECT_EQ(spec.name, "fig06");
    EXPECT_EQ(spec.methods, (std::vector<std::string>{"ctmc", "des"}));
    EXPECT_EQ(spec.traffic_models, std::vector<int>{3});
    EXPECT_EQ(spec.reserved_pdch, (std::vector<int>{1, 2}));
    EXPECT_EQ(spec.gprs_fractions, (std::vector<double>{0.02, 0.05, 0.10}));
    EXPECT_EQ(spec.variant_count(), 6u);
    ASSERT_EQ(spec.rates.size(), 10u);
    EXPECT_DOUBLE_EQ(spec.rates.front(), 0.1);
    EXPECT_DOUBLE_EQ(spec.rates.back(), 1.0);
    EXPECT_EQ(spec.point_count(), 60u);
    EXPECT_DOUBLE_EQ(spec.solver.tolerance, 1e-9);
    EXPECT_EQ(spec.simulation.replications, 4);
    EXPECT_EQ(spec.simulation.seed, 600u);
}

TEST(ParseSpec, BuilderMatchesParsedSpec) {
    const ScenarioSpec parsed = parse_spec(R"({
      "name": "grid",
      "methods": ["ctmc"],
      "traffic_model": [1, 2],
      "reserved_pdch": [1, 4],
      "rates": [0.2, 0.5, 0.8],
    })");
    ScenarioSpec built;
    built.named("grid")
        .with_methods({"ctmc"})
        .over_traffic_models({1, 2})
        .over_reserved_pdch({1, 4})
        .with_rates({0.2, 0.5, 0.8});
    EXPECT_EQ(parsed.name, built.name);
    EXPECT_EQ(parsed.traffic_models, built.traffic_models);
    EXPECT_EQ(parsed.reserved_pdch, built.reserved_pdch);
    EXPECT_EQ(parsed.rates, built.rates);
    EXPECT_EQ(parsed.variant_count(), built.variant_count());
}

TEST(ParseSpec, ExpansionOrderIsDocumentedCartesianProduct) {
    ScenarioSpec spec;
    spec.over_traffic_models({1, 3})
        .over_reserved_pdch({0, 2})
        .with_rates({0.5});
    const std::vector<Variant> variants = spec.expand();
    ASSERT_EQ(variants.size(), 4u);
    // traffic_models outermost, reserved_pdch inner.
    EXPECT_EQ(variants[0].traffic_model, 1);
    EXPECT_EQ(variants[0].reserved_pdch, 0);
    EXPECT_EQ(variants[1].traffic_model, 1);
    EXPECT_EQ(variants[1].reserved_pdch, 2);
    EXPECT_EQ(variants[2].traffic_model, 3);
    EXPECT_EQ(variants[2].reserved_pdch, 0);
    EXPECT_EQ(variants[3].traffic_model, 3);
    EXPECT_EQ(variants[3].reserved_pdch, 2);
    // Preset M comes from the traffic model (tm1 -> 50, tm3 -> 20).
    EXPECT_EQ(variants[0].parameters.max_gprs_sessions, 50);
    EXPECT_EQ(variants[2].parameters.max_gprs_sessions, 20);
    // The variant label carries every axis value.
    EXPECT_NE(variants[3].label.find("tm3"), std::string::npos);
    EXPECT_NE(variants[3].label.find("pdch=2"), std::string::npos);
}

TEST(ParseSpec, MethodsListAcceptsAnyRegisteredBackends) {
    const ScenarioSpec spec = parse_spec(R"({
      "name": "multi",
      "methods": ["ctmc", "des", "mm1k-approx"],
      "rates": [0.5],
    })");
    EXPECT_EQ(spec.methods, (std::vector<std::string>{"ctmc", "des", "mm1k-approx"}));
}

TEST(ParseSpec, CustomRegisteredBackendAcceptedInMethods) {
    // A backend registered by out-of-tree code is immediately valid in
    // specs — the whole point of the registry dispatch.
    static bool registered = false;
    if (!registered) {
        ASSERT_TRUE(eval::register_backend("spec-test-custom", "spec test stub", [] {
                        class Stub final : public eval::Evaluator {
                            const std::string& name() const override {
                                static const std::string n = "spec-test-custom";
                                return n;
                            }
                            const std::string& description() const override {
                                static const std::string d = "stub";
                                return d;
                            }
                            common::Result<eval::PointEvaluation> evaluate(
                                const eval::ScenarioQuery& query) override {
                                eval::PointEvaluation point;
                                point.backend = name();
                                point.call_arrival_rate = query.call_arrival_rate;
                                return point;
                            }
                        };
                        return std::make_unique<Stub>();
                    }).ok());
        registered = true;
    }
    const ScenarioSpec spec =
        parse_spec(R"({"methods": ["spec-test-custom"], "rates": [0.5]})");
    EXPECT_EQ(spec.methods, std::vector<std::string>{"spec-test-custom"});
    spec.validate();  // does not throw
}

TEST(SpecValidate, EmptyMethodsRejected) {
    ScenarioSpec spec;
    spec.with_rates({0.5});
    spec.methods.clear();
    EXPECT_THROW(spec.validate(), SpecError);
}

TEST(ParseSpec, SessionLimitAxisOverridesPresetM) {
    ScenarioSpec spec;
    spec.over_session_limits({0, 10}).with_rates({0.5});
    const std::vector<Variant> variants = spec.expand();
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_EQ(variants[0].parameters.max_gprs_sessions, 50);  // tm1 preset
    EXPECT_EQ(variants[1].parameters.max_gprs_sessions, 10);
}

/// Expects `parse_spec(text)` to throw a SpecError whose line() matches.
void expect_rejected_at_line(const std::string& text, int line,
                             const std::string& message_fragment) {
    try {
        parse_spec(text);
        FAIL() << "spec was accepted: " << text;
    } catch (const SpecError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find(message_fragment), std::string::npos)
            << e.what();
    }
}

TEST(ParseSpecErrors, SyntaxErrorCarriesLineNumber) {
    expect_rejected_at_line("{\n  \"name\": \"x\",\n  \"rates\": [0.1,,\n}", 3,
                            "unexpected character");
}

TEST(ParseSpecErrors, UnknownMethodRejectedWithLineAndKnownBackends) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": ["ctmc", "diffusion"]
    })",
                            3, "registered backends");
}

TEST(ParseSpecErrors, DuplicateMethodRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": ["ctmc", "ctmc"]
    })",
                            3, "listed twice");
}

TEST(ParseSpecErrors, RemovedSpellingsNameTheirReplacement) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "method": "ctmc"
    })",
                            3, "replaced by \"methods\"");
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": ["erlang", "both"]
    })",
                            3, "\"methods\": [\"ctmc\", \"des\"]");
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "solver": {"tolerance": 1e-9,
                 "warm_start": true}
    })",
                            4, "always use the bisection warm-start schedule");
}

TEST(ParseSpecErrors, UnknownKeyCarriesItsLine) {
    expect_rejected_at_line(R"({
      "name": "x",
      "rates": [0.5],
      "reserved_pdhc": 2
    })",
                            4, "unknown campaign key \"reserved_pdhc\"");
}

TEST(ParseSpecErrors, UnknownNestedKeyCarriesItsLine) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "solver": {
        "tolernace": 1e-9
      }
    })",
                            4, "unknown \"solver\" key");
}

TEST(ParseSpecErrors, WrongTypeCarriesItsLine) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "methods": 3
    })",
                            3, "expected string");
}

TEST(ParseSpecErrors, NonIntegerAxisValueRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "reserved_pdch": [1, 2.5]
    })",
                            3, "must be an integer");
}

TEST(ParseSpecErrors, BadTrafficModelRejected) {
    EXPECT_THROW(parse_spec(R"({"rates": [0.5], "traffic_model": 4})"), SpecError);
}

TEST(ParseSpecErrors, BadCodingSchemeNamesValidOptions) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "coding_scheme": "cs9"
    })",
                            3, "unknown coding scheme");
}

TEST(ParseSpecErrors, MissingRatesRejected) {
    EXPECT_THROW(parse_spec(R"({"name": "x"})"), SpecError);
}

TEST(ParseSpecErrors, DuplicateKeyRejected) {
    expect_rejected_at_line("{\n  \"rates\": [0.5],\n  \"rates\": [0.6]\n}", 3,
                            "duplicate key");
}

TEST(ParseSpecErrors, DescendingRatesRejected) {
    EXPECT_THROW(parse_spec(R"({"rates": [0.5, 0.4]})"), SpecError);
}

TEST(ParseSpecErrors, GridRatesNeedTwoPoints) {
    expect_rejected_at_line(R"({
      "rates": {"first": 0.1, "last": 1.0, "count": 1}
    })",
                            2, "count >= 2");
}

TEST(ParseSpec, SeedAcceptsFullUintRangeUpTo2To53) {
    const ScenarioSpec spec = parse_spec(R"({
      "rates": [0.5],
      "simulation": {"seed": 3000000000}
    })");
    EXPECT_EQ(spec.simulation.seed, 3000000000u);
}

TEST(ParseSpecErrors, NegativeOrHugeSeedRejected) {
    expect_rejected_at_line(R"({
      "rates": [0.5],
      "simulation": {"seed": -1}
    })",
                            3, "non-negative integer");
    EXPECT_THROW(parse_spec(R"({"rates": [0.5], "simulation": {"seed": 1e17}})"),
                 SpecError);
}

TEST(ParseSpecErrors, DesMethodValidatesSimulationBlock) {
    EXPECT_THROW(parse_spec(R"({
      "methods": ["des"],
      "rates": [0.5],
      "simulation": {"replications": 0}
    })"),
                 SpecError);
}

TEST(SpecValidate, BuilderSpecsAreValidatedToo) {
    ScenarioSpec spec;
    spec.with_rates({0.5}).over_gprs_fractions({1.5});
    EXPECT_THROW(spec.validate(), SpecError);
    EXPECT_THROW((ScenarioSpec{}.with_rate_grid(1.0, 0.5, 5)), SpecError);
}

TEST(SpecValidate, NameWithControlCharactersRejected) {
    // The name flows into CSV rows and JSON strings; embedded newlines
    // would break their framing, so validate() rejects them up front.
    ScenarioSpec spec;
    spec.named("a\nb").with_rates({0.5});
    EXPECT_THROW(spec.validate(), SpecError);
    EXPECT_THROW(parse_spec(R"({"name": "a\nb", "rates": [0.5]})"), SpecError);
}

TEST(ParseSpecFile, MissingFileThrows) {
    EXPECT_THROW(parse_spec_file("/nonexistent/campaign.json"), SpecError);
}

TEST(ArrivalRateGrid, EvenSpacing) {
    const std::vector<double> grid = arrival_rate_grid(0.1, 1.0, 10);
    ASSERT_EQ(grid.size(), 10u);
    EXPECT_DOUBLE_EQ(grid.front(), 0.1);
    EXPECT_DOUBLE_EQ(grid.back(), 1.0);
    EXPECT_NEAR(grid[1] - grid[0], 0.1, 1e-12);
}

TEST(ArrivalRateGrid, RejectsDegenerateInputs) {
    EXPECT_THROW(arrival_rate_grid(1.0, 0.5, 5), std::invalid_argument);
    EXPECT_THROW(arrival_rate_grid(0.1, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace gprsim::campaign
