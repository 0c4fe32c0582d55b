// The large-population approximation backends: `fixed-point` (damped
// decomposition over the voice/session/queue dimensions,
// queueing/fixed_point.hpp) and `fluid` (mean-field ODE limit,
// queueing/fluid.hpp). Both are analytic and cheap per point, so they
// keep the Evaluator's default pointwise plan: one dependency-free wave-0
// task per (query, point) that a merged campaign freely interleaves with
// other backends' waves. Every task computes pure serial double arithmetic
// with no shared mutable state, so grid output is bitwise invariant to
// thread count and repetition by construction.
#include <cstdio>
#include <memory>
#include <utility>

#include "eval/backend_util.hpp"
#include "eval/backends.hpp"
#include "queueing/fixed_point.hpp"
#include "queueing/fluid.hpp"

namespace gprsim::eval {

namespace {

using common::EvalError;
using common::EvalErrorCode;

// --- fixed-point ----------------------------------------------------------

class FixedPointEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "fixed-point";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "damped fixed-point decomposition (voice/session/queue marginals with "
            "mean-rate closure); milliseconds per point at any population size";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return detail::guarded(query, [&]() -> common::Result<PointEvaluation> {
            const detail::WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            queueing::FixedPointOptions options;
            options.tolerance = query.approx.fp_tolerance;
            options.damping = query.approx.fp_damping;
            options.max_iterations = query.approx.fp_max_iterations;
            const queueing::FixedPointResult r = queueing::solve_fixed_point(p, options);
            if (!r.converged) {
                char what[160];
                std::snprintf(what, sizeof(what),
                              "fixed-point decomposition did not converge: residual "
                              "%.3e after %d sweeps (tolerance %.1e, damping %g)",
                              r.residual, r.iterations, options.tolerance,
                              options.damping);
                return EvalError{EvalErrorCode::non_convergence,
                                 std::string(what) + " [" +
                                     scenario_context(query.parameters,
                                                      query.call_arrival_rate) +
                                     "]"};
            }
            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = r.measures;
            point.iterations = r.iterations;
            point.residual = r.residual;
            point.solver_method = "fixed-point";
            char reason[128];
            std::snprintf(reason, sizeof(reason),
                          "decomposition sweeps (damping %g, %s ON-count marginal)",
                          options.damping,
                          r.normal_on_count ? "discretized-normal" : "exact binomial");
            point.solver_reason = reason;
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

// --- fluid ----------------------------------------------------------------

class FluidEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "fluid";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "mean-field fluid-limit ODE (adaptive Cash-Karp RK4(5) to "
            "stationarity); exact as the cell scales to infinity";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return detail::guarded(query, [&]() -> common::Result<PointEvaluation> {
            const detail::WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            queueing::FluidOptions options;
            options.rel_tol = query.approx.ode_rel_tol;
            options.abs_tol = query.approx.ode_abs_tol;
            options.max_steps = query.approx.ode_max_steps;
            options.stationary_rate = query.approx.ode_stationary_rate;
            const queueing::FluidResult r = queueing::solve_fluid(p, options);
            if (!r.converged) {
                char what[200];
                std::snprintf(what, sizeof(what),
                              "fluid ODE did not reach stationarity: drift norm %.3e "
                              "at t=%.3g s after %lld accepted / %lld rejected steps",
                              r.drift_norm, r.end_time, r.steps_accepted,
                              r.steps_rejected);
                return EvalError{EvalErrorCode::non_convergence,
                                 std::string(what) + " [" +
                                     scenario_context(query.parameters,
                                                      query.call_arrival_rate) +
                                     "]"};
            }
            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = r.measures;
            point.iterations = r.steps_accepted;
            point.residual = r.drift_norm;
            point.solver_method = "fluid-rk45";
            char reason[160];
            std::snprintf(reason, sizeof(reason),
                          "Cash-Karp RK4(5) steps (rel_tol %.1e, %lld rejected, "
                          "stationary at t=%.3g s)",
                          options.rel_tol, r.steps_rejected, r.end_time);
            point.solver_reason = reason;
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

}  // namespace

namespace detail {

void register_large_population_backends(BackendRegistry& registry) {
    const auto add = [&](BackendRegistry::Factory make) {
        const std::unique_ptr<Evaluator> instance = make();
        // Built-in registration cannot collide (it runs once, first).
        (void)registry.add(instance->name(), instance->description(), std::move(make));
    };
    add([] { return std::make_unique<FixedPointEvaluator>(); });
    add([] { return std::make_unique<FluidEvaluator>(); });
}

}  // namespace detail

}  // namespace gprsim::eval
