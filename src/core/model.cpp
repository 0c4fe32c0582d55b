#include "core/model.hpp"

#include <stdexcept>

#include "core/initial_guess.hpp"

namespace gprsim::core {

GprsModel::GprsModel(Parameters parameters)
    : parameters_(std::move(parameters)),
      balanced_(balance_handover(parameters_)),
      generator_(parameters_, balanced_.rates) {}

const ctmc::SolveResult& GprsModel::solve(const ctmc::SolveOptions& options) {
    return solve(options, ctmc::default_engine());
}

const ctmc::SolveResult& GprsModel::solve(const ctmc::SolveOptions& options,
                                          ctmc::SolverEngine& engine) {
    auto result = try_solve(options, engine);
    if (!result.ok()) {
        throw std::runtime_error("GprsModel::solve: " + result.error().message);
    }
    return result.value().get();
}

common::Result<std::reference_wrapper<const ctmc::SolveResult>> GprsModel::try_solve(
    const ctmc::SolveOptions& options) {
    return try_solve(options, ctmc::default_engine());
}

common::Result<std::reference_wrapper<const ctmc::SolveResult>> GprsModel::try_solve(
    const ctmc::SolveOptions& options, ctmc::SolverEngine& engine) {
    if (solution_) {
        return std::cref(*solution_);
    }
    ctmc::SolveResult result;
    try {
        if (options.initial.empty() && options.initial_candidates.empty()) {
            // Warm-start from the closed-form product approximation;
            // typically several times fewer sweeps than a uniform start.
            // Callers supplying initial_candidates (the campaign runner) add
            // it themselves — and those candidate vectors are
            // state-space-sized, so the options are only copied here.
            ctmc::SolveOptions effective = options;
            effective.initial = product_form_initial(parameters_, balanced_, space());
            result = engine.solve(generator_, effective);
        } else {
            result = engine.solve(generator_, options);
        }
    } catch (const std::exception& e) {
        // Degenerate options/operator (engine throws invalid_argument).
        return common::EvalError{common::EvalErrorCode::invalid_query,
                                 std::string(e.what()) + " [" + parameters_.describe() +
                                     "]"};
    }
    if (!result.converged) {
        return common::EvalError{
            common::EvalErrorCode::non_convergence,
            "steady-state iteration did not converge (residual " +
                std::to_string(result.residual) + " after " +
                std::to_string(result.iterations) + " sweeps, tolerance " +
                std::to_string(options.tolerance) + ") [" + parameters_.describe() + "]"};
    }
    solution_ = std::move(result);
    return std::cref(*solution_);
}

const std::vector<double>& GprsModel::distribution() const {
    if (!solution_) {
        throw std::logic_error(
            "GprsModel::distribution: no converged solution yet — call solve() first [" +
            parameters_.describe() + "]");
    }
    return solution_->distribution;
}

Measures GprsModel::measures() {
    solve();
    return compute_measures(parameters_, balanced_, space(), distribution());
}

std::vector<double> GprsModel::buffer_distribution() const {
    const std::vector<double>& pi = distribution();
    std::vector<double> marginal(static_cast<std::size_t>(parameters_.buffer_capacity) + 1, 0.0);
    space().for_each([&](const State& s, common::index_type i) {
        marginal[static_cast<std::size_t>(s.buffer)] += pi[static_cast<std::size_t>(i)];
    });
    return marginal;
}

std::vector<double> GprsModel::gsm_distribution() const {
    const std::vector<double>& pi = distribution();
    std::vector<double> marginal(static_cast<std::size_t>(parameters_.gsm_channels()) + 1, 0.0);
    space().for_each([&](const State& s, common::index_type i) {
        marginal[static_cast<std::size_t>(s.gsm_calls)] += pi[static_cast<std::size_t>(i)];
    });
    return marginal;
}

std::vector<double> GprsModel::gprs_session_distribution() const {
    const std::vector<double>& pi = distribution();
    std::vector<double> marginal(static_cast<std::size_t>(parameters_.max_gprs_sessions) + 1,
                                 0.0);
    space().for_each([&](const State& s, common::index_type i) {
        marginal[static_cast<std::size_t>(s.gprs_sessions)] += pi[static_cast<std::size_t>(i)];
    });
    return marginal;
}

}  // namespace gprsim::core
