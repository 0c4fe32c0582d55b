// Umbrella header: the public surface of gprsim.
//
// Out-of-tree consumers use it as
//
//   find_package(gprsim REQUIRED)              # CMake
//   target_link_libraries(app gprsim::gprsim)
//
//   #include <gprsim/gprsim.hpp>
//
//   gprsim::eval::ScenarioQuery query;
//   query.parameters = gprsim::core::Parameters::base();
//   auto backend = gprsim::eval::BackendRegistry::global().find("ctmc");
//   auto point = backend.value()->evaluate(query);   // Result, not throw
//
// Batches scale the same vocabulary up: evaluate_grid runs one scenario
// over a rate grid, Evaluator::evaluate_grids runs MANY scenario variants
// over one grid in a single batch, and gprsim::eval::evaluate_campaign
// (eval/batch.hpp) merges several backends' batches into one flat
// wave-ordered task set on a shared thread pool — all bitwise invariant
// to the thread count. Consumers can register their own evaluation
// backends with gprsim::eval::register_backend(...) — campaign specs and
// the CLI pick them up by name, and a backend that overrides plan_grids
// joins the merged task set with its own dependency waves. The individual
// headers below remain includable on their own (installed under
// <gprsim/...> with the same relative paths the in-tree sources use).
#pragma once

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

#include "ctmc/engine.hpp"
#include "ctmc/solver_options.hpp"

#include "core/adaptive.hpp"
#include "core/measures.hpp"
#include "core/model.hpp"
#include "core/parameters.hpp"

#include "queueing/erlang.hpp"
#include "queueing/handover.hpp"
#include "queueing/mm1k.hpp"

#include "traffic/threegpp.hpp"
#include "traffic/trace.hpp"

#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

#include "eval/backends.hpp"
#include "eval/batch.hpp"
#include "eval/evaluator.hpp"
#include "eval/registry.hpp"

#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"

// The embeddable campaign evaluation service (docs/service.md): a
// bounded-worker CampaignService with typed admission control, the
// shared cross-request slice store, and the GPRS/1 frame protocol the
// gprsim_serve daemon speaks over a unix socket or stdio.
#include "service/protocol.hpp"
#include "service/service.hpp"
