// Built-in backends through the unified API: Result error paths (forced
// non-convergence with scenario context, invalid queries), mm1k-approx
// sanity against the erlang closed forms, ctmc agreement with the
// GprsModel facade, des provenance, and grid/pointwise consistency. Cells
// are tiny so every chain solves in milliseconds.
#include "eval/backends.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.hpp"
#include "core/model.hpp"
#include "eval/registry.hpp"

namespace gprsim::eval {
namespace {

Evaluator& backend(const char* name) {
    auto found = BackendRegistry::global().find(name);
    EXPECT_TRUE(found.ok()) << name;
    return *found.value();
}

/// Tiny cell shared by the solve tests: a few thousand states.
ScenarioQuery tiny_query() {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.parameters.total_channels = 6;
    query.parameters.buffer_capacity = 10;
    query.parameters.max_gprs_sessions = 6;
    query.parameters.gprs_fraction = 0.1;
    query.call_arrival_rate = 0.5;
    query.solver.tolerance = 1e-10;
    return query;
}

TEST(ErlangBackend, MatchesClosedFormMeasures) {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.call_arrival_rate = 0.5;
    auto point = backend("erlang").evaluate(query);
    ASSERT_TRUE(point.ok());
    const core::Parameters p = query.resolved_parameters();
    const core::Measures expected =
        core::closed_form_measures(p, core::balance_handover(p));
    EXPECT_DOUBLE_EQ(point.value().measures.carried_voice_traffic,
                     expected.carried_voice_traffic);
    EXPECT_DOUBLE_EQ(point.value().measures.gprs_blocking, expected.gprs_blocking);
    EXPECT_EQ(point.value().iterations, 0);
    EXPECT_FALSE(point.value().has_confidence);
}

TEST(Mm1kApproxBackend, SharesErlangPopulationsAndFillsDataPlane) {
    ScenarioQuery query;
    query.parameters = core::Parameters::base();
    query.call_arrival_rate = 0.5;
    auto erlang = backend("erlang").evaluate(query);
    auto approx = backend("mm1k-approx").evaluate(query);
    ASSERT_TRUE(erlang.ok());
    ASSERT_TRUE(approx.ok());
    const core::Measures& e = erlang.value().measures;
    const core::Measures& a = approx.value().measures;
    // The populations are the same closed forms.
    EXPECT_DOUBLE_EQ(a.carried_voice_traffic, e.carried_voice_traffic);
    EXPECT_DOUBLE_EQ(a.average_gprs_sessions, e.average_gprs_sessions);
    EXPECT_DOUBLE_EQ(a.gsm_blocking, e.gsm_blocking);
    EXPECT_DOUBLE_EQ(a.gprs_blocking, e.gprs_blocking);
    // ... but the approximation also fills the data plane, which the
    // closed forms leave at zero.
    EXPECT_GT(a.carried_data_traffic, 0.0);
    EXPECT_GT(a.throughput_per_user_kbps, 0.0);
    EXPECT_GE(a.packet_loss_probability, 0.0);
    EXPECT_LE(a.packet_loss_probability, 1.0);
    EXPECT_GE(a.queueing_delay, 0.0);
    EXPECT_EQ(e.carried_data_traffic, 0.0);
}

TEST(Mm1kApproxBackend, TracksCtmcOnTheBaseParameterPoint) {
    // The decoupled M/M/c/K is only an approximation, but on the paper's
    // base point it should land within a few percent of the exact chain
    // (observed: CDT 0.662 vs 0.660). A tiny cell keeps the solve fast.
    const ScenarioQuery query = tiny_query();
    auto exact = backend("ctmc").evaluate(query);
    auto approx = backend("mm1k-approx").evaluate(query);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    EXPECT_NEAR(approx.value().measures.carried_data_traffic,
                exact.value().measures.carried_data_traffic,
                0.25 * exact.value().measures.carried_data_traffic + 0.05);
}

TEST(CtmcBackend, AgreesWithGprsModelFacade) {
    const ScenarioQuery query = tiny_query();
    auto point = backend("ctmc").evaluate(query);
    ASSERT_TRUE(point.ok());

    core::GprsModel model(query.resolved_parameters());
    ctmc::SolveOptions options;
    options.tolerance = query.solver.tolerance;
    model.solve(options);
    const core::Measures expected = model.measures();
    EXPECT_DOUBLE_EQ(point.value().measures.carried_data_traffic,
                     expected.carried_data_traffic);
    EXPECT_DOUBLE_EQ(point.value().measures.queueing_delay, expected.queueing_delay);
    EXPECT_GT(point.value().iterations, 0);
    EXPECT_LE(point.value().residual, query.solver.tolerance);
}

TEST(CtmcBackend, ForcedNonConvergenceIsTypedWithScenarioContext) {
    ScenarioQuery query = tiny_query();
    query.solver.tolerance = 1e-14;
    query.solver.max_iterations = 3;  // cannot converge in 3 sweeps
    auto point = backend("ctmc").evaluate(query);
    ASSERT_FALSE(point.ok());
    EXPECT_EQ(point.error().code, common::EvalErrorCode::non_convergence);
    // The message names the scenario, not just "did not converge".
    EXPECT_NE(point.error().message.find("did not converge"), std::string::npos);
    EXPECT_NE(point.error().message.find("rate=0.5"), std::string::npos);
    EXPECT_NE(point.error().message.find("PDCH"), std::string::npos);
}

TEST(CtmcBackend, InvalidQueryIsTypedNotThrown) {
    ScenarioQuery negative = tiny_query();
    negative.call_arrival_rate = -1.0;
    auto point = backend("ctmc").evaluate(negative);
    ASSERT_FALSE(point.ok());
    EXPECT_EQ(point.error().code, common::EvalErrorCode::invalid_query);

    ScenarioQuery inconsistent = tiny_query();
    inconsistent.parameters.reserved_pdch = 99;  // > total_channels
    auto bad = backend("ctmc").evaluate(inconsistent);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, common::EvalErrorCode::invalid_query);
    EXPECT_NE(bad.error().message.find("reserved"), std::string::npos);
}

TEST(CtmcBackend, GridRejectsUnsortedRates) {
    const ScenarioQuery query = tiny_query();
    const std::vector<double> unsorted{0.5, 0.3};
    auto grid = backend("ctmc").evaluate_grid(query, unsorted);
    ASSERT_FALSE(grid.ok());
    EXPECT_EQ(grid.error().code, common::EvalErrorCode::invalid_query);
}

TEST(CtmcBackend, ColdGridMatchesPointwiseEvaluationsBitwise) {
    const ScenarioQuery query = tiny_query();
    const std::vector<double> rates{0.3, 0.5, 0.7};
    auto grid = backend("ctmc").evaluate_grid(query, rates);
    ASSERT_TRUE(grid.ok());
    ASSERT_EQ(grid.value().size(), 3u);
    EXPECT_EQ(grid.value()[0].warm_parent, -1);  // the schedule's root
    int cold_points = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (grid.value()[i].warm_started) {
            continue;
        }
        ++cold_points;
        ScenarioQuery point_query = query;
        point_query.call_arrival_rate = rates[i];
        auto point = backend("ctmc").evaluate(point_query);
        ASSERT_TRUE(point.ok());
        // A grid point that started from its product form (the root, or a
        // dependent whose transfer lost) and a standalone evaluation run
        // the identical product-form-started serial solve.
        EXPECT_EQ(grid.value()[i].measures.carried_data_traffic,
                  point.value().measures.carried_data_traffic)
            << i;
        EXPECT_EQ(grid.value()[i].iterations, point.value().iterations) << i;
    }
    EXPECT_GE(cold_points, 1);
}

TEST(CtmcBackend, WarmGridReportsTransfersAndAgreesWithCold) {
    ScenarioQuery query = tiny_query();
    query.parameters.gprs_fraction = 0.3;  // strongly coupled: transfers win
    query.parameters.total_channels = 8;
    query.parameters.buffer_capacity = 25;
    query.parameters.max_gprs_sessions = 10;
    const std::vector<double> rates{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0};
    auto warm_grid = backend("ctmc").evaluate_grid(query, rates);
    ASSERT_TRUE(warm_grid.ok());

    // Cold reference: each point evaluated on its own from the product
    // form.
    long long warm_iterations = 0;
    long long cold_iterations = 0;
    int offered = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        ScenarioQuery point_query = query;
        point_query.call_arrival_rate = rates[i];
        auto cold = backend("ctmc").evaluate(point_query);
        ASSERT_TRUE(cold.ok());
        warm_iterations += warm_grid.value()[i].iterations;
        cold_iterations += cold.value().iterations;
        offered += warm_grid.value()[i].warm_parent >= 0 ? 1 : 0;
        EXPECT_NEAR(warm_grid.value()[i].measures.carried_data_traffic,
                    cold.value().measures.carried_data_traffic, 1e-4)
            << i;
    }
    EXPECT_EQ(offered, static_cast<int>(rates.size()) - 1);  // all but the root
    EXPECT_LT(warm_iterations, cold_iterations);
}

TEST(CtmcBackend, AutoMethodProvenanceIsRecordedAndThreadStable) {
    // The default solver.method is "auto". Campaign/grid points always solve
    // at width 1 (the points are the parallelism), so the cost model sees
    // only the state count and the recorded decision must not depend on the
    // grid's thread budget.
    const ScenarioQuery query = tiny_query();
    auto point = backend("ctmc").evaluate(query);
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(point.value().solver_method, "gauss_seidel");
    EXPECT_FALSE(point.value().solver_reason.empty());

    const std::vector<double> rates{0.3, 0.5, 0.7};
    GridOptions narrow;
    narrow.num_threads = 1;
    common::ThreadPool pool(4);
    GridOptions wide;
    wide.num_threads = 4;
    wide.pool = &pool;
    auto serial = backend("ctmc").evaluate_grid(query, rates, narrow);
    auto sharded = backend("ctmc").evaluate_grid(query, rates, wide);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(sharded.ok());
    for (std::size_t i = 0; i < rates.size(); ++i) {
        EXPECT_EQ(serial.value()[i].solver_method, "gauss_seidel") << i;
        EXPECT_EQ(sharded.value()[i].solver_method, serial.value()[i].solver_method)
            << i;
        EXPECT_EQ(sharded.value()[i].solver_reason, serial.value()[i].solver_reason)
            << i;
        EXPECT_EQ(sharded.value()[i].measures.carried_data_traffic,
                  serial.value()[i].measures.carried_data_traffic)
            << i;
    }
}

TEST(CtmcBackend, ExplicitMethodIsHonoredAndRecorded) {
    ScenarioQuery query = tiny_query();
    query.solver.method = "gauss_seidel";
    auto explicit_gs = backend("ctmc").evaluate(query);
    ASSERT_TRUE(explicit_gs.ok());
    EXPECT_EQ(explicit_gs.value().solver_method, "gauss_seidel");
    // An explicit method carries no cost-model rationale.
    EXPECT_TRUE(explicit_gs.value().solver_reason.empty());

    // auto resolves to the same serial solve on this cell: bitwise equal.
    ScenarioQuery auto_query = tiny_query();
    auto_query.solver.method = "auto";
    auto picked = backend("ctmc").evaluate(auto_query);
    ASSERT_TRUE(picked.ok());
    EXPECT_EQ(picked.value().measures.carried_data_traffic,
              explicit_gs.value().measures.carried_data_traffic);
    EXPECT_EQ(picked.value().iterations, explicit_gs.value().iterations);
}

TEST(CtmcBackend, UnknownSolverMethodIsTypedInvalidQuery) {
    ScenarioQuery query = tiny_query();
    query.solver.method = "bogus_scheme";
    auto point = backend("ctmc").evaluate(query);
    ASSERT_FALSE(point.ok());
    EXPECT_EQ(point.error().code, common::EvalErrorCode::invalid_query);
    EXPECT_NE(point.error().message.find("bogus_scheme"), std::string::npos);
}

TEST(DesBackend, ProvenanceCarriesReplicationsAndCis) {
    ScenarioQuery query = tiny_query();
    query.simulation.replications = 2;
    query.simulation.warmup_time = 50.0;
    query.simulation.batch_count = 3;
    query.simulation.batch_duration = 100.0;
    query.simulation.seed = 11;
    auto point = backend("des").evaluate(query);
    ASSERT_TRUE(point.ok());
    EXPECT_TRUE(point.value().has_confidence);
    EXPECT_EQ(point.value().sim.replications.size(), 2u);
    EXPECT_GT(point.value().sim.events_executed, 0u);
    EXPECT_DOUBLE_EQ(point.value().measures.carried_data_traffic,
                     point.value().sim.carried_data_traffic.mean);
    EXPECT_EQ(point.value().iterations, 0);
}

TEST(Backends, EvaluateGridOnEmptyRatesIsEmpty) {
    const ScenarioQuery query = tiny_query();
    const std::vector<double> none;
    for (const char* name : {"erlang", "ctmc", "des", "mm1k-approx"}) {
        auto grid = backend(name).evaluate_grid(query, none);
        ASSERT_TRUE(grid.ok()) << name;
        EXPECT_TRUE(grid.value().empty()) << name;
    }
}

}  // namespace
}  // namespace gprsim::eval
