// Transient analysis of CTMCs via uniformization (Jensen's method).
//
// The GPRS paper only needs steady state; transient solution is provided as
// an extension so the library can also answer "how does the cell behave in
// the minutes after a load change", the scenario behind the paper's
// future-work item on adaptive PDCH management.
#pragma once

#include <span>
#include <vector>

#include "ctmc/engine.hpp"
#include "common/types.hpp"

namespace gprsim::ctmc {

using common::index_type;

struct TransientOptions {
    /// Truncation error bound for the Poisson series.
    double epsilon = 1e-10;
    /// Hard cap on series terms (guards pathological Lambda * t).
    index_type max_terms = 2000000;
};

/// Distribution at time t of the chain described by the transposed-generator
/// operator, starting from `initial` (which must be a distribution).
template <QtOperatorConcept Op>
std::vector<double> transient_distribution(const Op& op, std::span<const double> initial,
                                           double t, const TransientOptions& options = {}) {
    const index_type n = op.size();
    if (static_cast<index_type>(initial.size()) != n) {
        throw std::invalid_argument("transient_distribution: initial vector size mismatch");
    }
    if (t < 0.0) {
        throw std::invalid_argument("transient_distribution: negative time");
    }
    std::vector<double> term(initial.begin(), initial.end());
    if (t == 0.0) {
        return term;
    }

    const double lambda = detail::max_exit_rate(op);
    const double lt = lambda * t;

    // pi(t) = sum_k Poisson(k; lt) * pi(0) P^k with P = I + Q/Lambda.
    std::vector<double> result(static_cast<std::size_t>(n), 0.0);
    std::vector<double> next(static_cast<std::size_t>(n), 0.0);

    double log_poisson = -lt;  // log of Poisson(0; lt)
    double accumulated = 0.0;
    for (index_type k = 0; k <= options.max_terms; ++k) {
        const double weight = std::exp(log_poisson);
        if (weight > 0.0) {
            for (index_type i = 0; i < n; ++i) {
                result[static_cast<std::size_t>(i)] +=
                    weight * term[static_cast<std::size_t>(i)];
            }
            accumulated += weight;
        }
        if (accumulated >= 1.0 - options.epsilon && static_cast<double>(k) >= lt) {
            break;
        }
        // term <- term * P   (computed through the incoming-transition view)
        for (index_type i = 0; i < n; ++i) {
            double acc = op.diagonal(i) * term[static_cast<std::size_t>(i)];
            op.for_each_incoming(i, [&](index_type j, double rate) {
                acc += rate * term[static_cast<std::size_t>(j)];
            });
            next[static_cast<std::size_t>(i)] =
                term[static_cast<std::size_t>(i)] + acc / lambda;
        }
        term.swap(next);
        log_poisson += std::log(lt) - std::log(static_cast<double>(k) + 1.0);
    }

    // Compensate the truncated tail by renormalizing.
    double sum = 0.0;
    for (double v : result) {
        sum += v;
    }
    for (double& v : result) {
        v /= sum;
    }
    return result;
}

}  // namespace gprsim::ctmc
