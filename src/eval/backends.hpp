// Built-in evaluation backends and the grid-scheduling vocabulary they
// share. Eight backends self-register in BackendRegistry::global():
//
//   erlang       closed-form Erlang populations and blocking (Eq. 2-7);
//                microseconds per point, no chain state
//   ctmc         stationary solve of the full Markov chain (Table 1);
//                plan_grids keeps the deterministic bisection warm-start
//                transfer schedule, with every variant of a batch sharing
//                one wave structure so level-L points of ALL variants
//                solve concurrently
//   des          replications of the detailed network simulator, pooled
//                into 95% CIs; plan_grids emits one task per (variant,
//                point, replication) with the same
//                substream-block discipline as sim::ExperimentEngine, all
//                dependency-free so they backfill idle solver threads in a
//                merged campaign
//   mm1k-approx  cheap M/M/c/K fixed-point approximation of the data plane
//                over the Erlang populations — the proof that a third-party
//                approximation plugs into the registry without touching the
//                campaign runner, spec parser, or CLI
//   fixed-point  damped fixed-point decomposition over the (voice, session,
//                queue) dimensions: exact Erlang marginals coupled to a
//                level-dependent birth-death queue with mean-rate closure;
//                handles 10^6-session populations in milliseconds
//                (src/eval/large_population.cpp)
//   fluid        mean-field / fluid-limit ODE over the scaled occupancies,
//                integrated with an adaptive Cash-Karp RK4(5) stepper;
//                exact in the N -> infinity scaling
//                (src/eval/large_population.cpp)
//   network-fp   multi-cell lattice fixed point over handover inflows; each
//                cell solved by the single-cell backend named in
//                network.inner_backend under a pinned inflow, outer waves
//                laid out on the shared pool (src/network/backends.cpp)
//   network-des  replications of the simulator in multi-cell network mode
//                (per-cell parameters, weighted handover targets, routing
//                areas), pooled like des (src/network/backends.cpp)
//
// All eight return Results; no exception crosses evaluate() or a plan's
// tasks.
#pragma once

#include <cstddef>
#include <vector>

#include "eval/registry.hpp"

namespace gprsim::eval {

/// Deterministic warm-start schedule of an iterative backend's grid
/// (exposed for tests): parent[i] is the grid index point i transfers
/// information from (-1 = cold), and levels groups the indices into
/// dependency waves — every parent of a level-k point sits in a level < k.
struct SolveSchedule {
    std::vector<int> parent;
    std::vector<std::vector<int>> levels;
};

/// The bisection schedule: first point cold from the product form, last
/// point offered the first's deviation, then recursively every segment
/// midpoint offered its nearest solved endpoint's ("ties down"). O(log n)
/// depth, so up to n/2 points of one grid solve concurrently; candidate
/// sets are a pure function of the grid size, which keeps grid output
/// bitwise invariant to the thread count.
SolveSchedule bisection_schedule(std::size_t count);

namespace detail {

/// Registers the built-ins into `registry`. Called exactly once from
/// BackendRegistry::global(); explicit (rather than static-initializer
/// magic) because gprsim is a static library and the linker may drop
/// translation units nobody references.
void register_builtin_backends(BackendRegistry& registry);

/// Registers the large-population approximations (fixed-point, fluid);
/// called from register_builtin_backends, defined in
/// src/eval/large_population.cpp.
void register_large_population_backends(BackendRegistry& registry);

/// Registers the multi-cell network backends (network-fp, network-des);
/// called from register_builtin_backends, defined in
/// src/network/backends.cpp.
void register_network_backends(BackendRegistry& registry);

}  // namespace detail

}  // namespace gprsim::eval
