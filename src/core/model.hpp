// Facade tying the GPRS model together: parameters -> handover balance ->
// generator -> steady-state solve -> measures.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "ctmc/engine.hpp"
#include "ctmc/solver.hpp"
#include "core/generator.hpp"
#include "core/handover.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"

namespace gprsim::core {

/// One-stop interface for analyzing a cell configuration.
///
///   GprsModel model(Parameters::base());
///   model.solve();
///   Measures m = model.measures();
///
/// Every solve sweeps the generator's stencil (core::GprsGenerator); no
/// matrix is assembled.
class GprsModel {
public:
    explicit GprsModel(Parameters parameters);

    const Parameters& parameters() const { return parameters_; }
    const BalancedTraffic& balanced() const { return balanced_; }
    const StateSpace& space() const { return generator_.space(); }
    const GprsGenerator& generator() const { return generator_; }

    /// Solves for the stationary distribution (cached) on the process-wide
    /// default engine. Without SolveOptions::initial it starts from the
    /// product form; a given start is consumed like the engine's, so move
    /// it in (the ctmc backend's transfer rule, src/eval/backends.cpp,
    /// picks a warm-started point's one start). Returns solver statistics;
    /// throws std::runtime_error — with the scenario's key parameters in
    /// the message — if the solve did not converge.
    const ctmc::SolveResult& solve(ctmc::SolveOptions options = {});

    /// Same, but on a caller-managed engine — the route every sweep and
    /// bench takes so one thread pool is reused across all solves.
    const ctmc::SolveResult& solve(ctmc::SolveOptions options, ctmc::SolverEngine& engine);

    /// Exception-free solve for the eval API boundary: a non-converged
    /// iteration or invalid solver options come back as a typed
    /// common::EvalError (non_convergence / invalid_query) whose message
    /// carries residual, iterations, and Parameters::describe(). On
    /// success the result is cached exactly like solve()'s.
    common::Result<std::reference_wrapper<const ctmc::SolveResult>> try_solve(
        ctmc::SolveOptions options = {});
    common::Result<std::reference_wrapper<const ctmc::SolveResult>> try_solve(
        ctmc::SolveOptions options, ctmc::SolverEngine& engine);

    bool solved() const { return solution_.has_value(); }
    /// Stationary distribution (requires a prior successful solve()).
    const std::vector<double>& distribution() const;

    /// Full measures; solves with default options on first use if needed.
    Measures measures();
    /// Erlang-only measures (no chain solve).
    Measures closed_form() const { return closed_form_measures(parameters_, balanced_); }

    /// Marginal distribution of the buffer occupancy k.
    std::vector<double> buffer_distribution() const;
    /// Marginal distribution of active GSM calls n. In exact arithmetic this
    /// equals the Erlang M/M/c/c law — a property the tests rely on.
    std::vector<double> gsm_distribution() const;
    /// Marginal distribution of active GPRS sessions m (Erlang over M).
    std::vector<double> gprs_session_distribution() const;

private:
    Parameters parameters_;
    BalancedTraffic balanced_;
    GprsGenerator generator_;
    std::optional<ctmc::SolveResult> solution_;
};

}  // namespace gprsim::core
