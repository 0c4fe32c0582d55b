// Compatibility facade for the steady-state solver stack.
//
// The monolithic solver that used to live here is now layered:
//   solver_options.hpp - QtOperatorConcept, QtMatrix, options/result structs
//   kernels.hpp        - Gauss-Seidel kernels, wavefront groups, team lanes
//   common/crew.hpp    - idle threads that take pieces of running work
//   engine.hpp         - SolverEngine tying pool, crew and kernels together
// This header re-exports all of it and keeps the original free-function
// entry point, which routes through the process-wide default engine.
#pragma once

#include "ctmc/engine.hpp"
#include "ctmc/kernels.hpp"
#include "ctmc/solver_options.hpp"

namespace gprsim::ctmc {

/// Solves pi Q = 0, sum(pi) = 1 for the operator's chain on the default
/// engine: the exact serial arithmetic of the original solver at every
/// options.num_threads; see engine.hpp for what more threads do.
template <QtOperatorConcept Op>
SolveResult solve_steady_state(const Op& op, SolveOptions options = {}) {
    return default_engine().solve(op, std::move(options));
}

}  // namespace gprsim::ctmc
