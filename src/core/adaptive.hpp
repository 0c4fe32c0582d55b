// Adaptive PDCH management (extension; the paper's future work, citing its
// companion work on adaptive performance management [14]).
//
// The paper's conclusions note that the right number of reserved PDCHs is a
// tradeoff between GSM and GPRS performance and should follow the traffic
// load. This module closes that loop: given QoS targets for both services,
// it recommends the smallest reservation meeting the data-side targets
// without violating the voice-side constraint — the decision an adaptive
// controller would re-evaluate as load estimates change.
#pragma once

#include "ctmc/engine.hpp"
#include "core/measures.hpp"
#include "core/parameters.hpp"

namespace gprsim::core {

struct QosTargets {
    double max_packet_loss = 1e-2;      ///< PLP ceiling for GPRS
    double max_queueing_delay = 2.0;    ///< seconds
    double max_gsm_blocking = 1.0;      ///< voice constraint (1 = unconstrained)
};

struct AdaptationResult {
    int reserved_pdch = 0;   ///< recommended N_GPRS
    Measures measures;       ///< model measures at the recommendation
    bool feasible = false;   ///< all targets met at the recommendation?
    int evaluated = 0;       ///< chain solves spent
};

/// Smallest reservation in [0, max_reservation] meeting `targets` at the
/// load in `base` (base.reserved_pdch is ignored). If no reservation
/// qualifies, returns the configuration with the lowest packet loss among
/// those satisfying the voice constraint (feasible = false) — the
/// best-effort answer an online controller would apply.
AdaptationResult recommend_reservation(Parameters base, const QosTargets& targets,
                                       int max_reservation = 8,
                                       ctmc::SolveOptions solve = {});

}  // namespace gprsim::core
