#include "eval/backends.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/handover.hpp"
#include "core/initial_guess.hpp"
#include "core/model.hpp"
#include "eval/backend_util.hpp"
#include "eval/batch.hpp"
#include "queueing/mm1k.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

SolveSchedule bisection_schedule(std::size_t count) {
    SolveSchedule schedule;
    schedule.parent.assign(count, -1);
    if (count == 0) {
        return schedule;
    }
    schedule.levels.push_back({0});
    if (count == 1) {
        return schedule;
    }
    const int last = static_cast<int>(count) - 1;
    schedule.parent[static_cast<std::size_t>(last)] = 0;
    schedule.levels.push_back({last});
    std::vector<std::pair<int, int>> segments{{0, last}};
    while (!segments.empty()) {
        std::vector<int> level;
        std::vector<std::pair<int, int>> next;
        for (const auto& [a, b] : segments) {
            if (b - a <= 1) {
                continue;
            }
            const int mid = a + (b - a) / 2;
            // Nearest solved endpoint: the floor midpoint is never closer
            // to b, so the lower endpoint always wins ("ties down").
            schedule.parent[static_cast<std::size_t>(mid)] = a;
            level.push_back(mid);
            next.emplace_back(a, mid);
            next.emplace_back(mid, b);
        }
        if (!level.empty()) {
            schedule.levels.push_back(std::move(level));
        }
        segments = std::move(next);
    }
    return schedule;
}

bool transfer_wins(const core::GprsModel& model, const std::vector<double>& product,
                   const std::vector<double>& deviation) {
    // Near-ties mispredict the sweep count: on the paper's Fig. 6 cell a
    // transfer at 0.92x the product form's residual cost 2x the sweeps,
    // while every one below 0.5x converged faster.
    constexpr double kMargin = 0.5;
    if (deviation.size() != product.size()) {
        throw std::invalid_argument("transfer_wins: deviation size mismatch");
    }
    std::vector<double> scratch(product.size());
    for (std::size_t s = 0; s < scratch.size(); ++s) {
        scratch[s] = deviation[s] * product[s];
    }
    const double transfer = ctmc::prepare_start(model.generator(), scratch);
    scratch = product;
    return transfer < kMargin * ctmc::prepare_start(model.generator(), scratch);
}

namespace {

using common::EvalError;
using common::EvalErrorCode;
// Grid scaffolding shared with the large-population backends
// (eval/backend_util.hpp); only the warm-start cache stays local.
using detail::WallClock;
using detail::check_grid;
using detail::failed_plan;
using detail::first_error;
using detail::guarded;
using detail::poison;
using detail::probe_queries;

/// Deviation vectors (solved distribution / own product form, elementwise)
/// awaiting their warm-start dependents, one slot per grid index. A slot is
/// only populated when the schedule has at least one dependent for it, each
/// dependent copies the vector exactly once (claim), and the claim that
/// consumes the last reference frees the slot — so peak memory follows the
/// bisection frontier, not the grid. Thread-safety: stores and claims of
/// one slot never overlap (the wave barrier separates a point's solve from
/// its children's solves); claims of one slot from several same-wave
/// children only race on the atomic reference count, and every copy is
/// sequenced before its own decrement.
class WarmStartCache {
public:
    WarmStartCache(std::size_t grid, const std::vector<int>& parent)
        : slots_(grid), stored_(grid), remaining_(grid), children_(grid, 0) {
        for (const int p : parent) {
            if (p >= 0) {
                ++children_[static_cast<std::size_t>(p)];
            }
        }
        for (std::size_t i = 0; i < grid; ++i) {
            remaining_[i].store(children_[i], std::memory_order_relaxed);
        }
    }

    /// Whether the schedule has any dependent for this grid index (callers
    /// skip building the deviation vector otherwise).
    bool has_dependents(std::size_t index) const { return children_[index] > 0; }

    /// Keeps the deviation vector iff some later point claims it.
    void store(std::size_t index, std::vector<double> deviation) {
        if (children_[index] > 0) {
            slots_[index] = std::move(deviation);
            stored_[index].store(true, std::memory_order_release);
        }
    }

    /// The stored deviation, or nullptr before store(). A dependent may
    /// read it before its own claim, beside a store or other claims of the
    /// slot: while it has not claimed, no claim moves the vector out or
    /// frees it.
    const std::vector<double>* stored(std::size_t index) const {
        return stored_[index].load(std::memory_order_acquire) ? &slots_[index] : nullptr;
    }

    /// Returns the parent's deviation and releases one claim. A count of 1
    /// means every other claimant has already decremented, so this claimant
    /// owns the slot exclusively and can move the vector out instead of
    /// copying (a ~2x peak-memory saving on multi-million-state chains).
    std::vector<double> claim(std::size_t parent_index) {
        if (remaining_[parent_index].load(std::memory_order_acquire) == 1) {
            std::vector<double> last = std::move(slots_[parent_index]);
            remaining_[parent_index].store(0, std::memory_order_release);
            return last;
        }
        std::vector<double> copy = slots_[parent_index];
        if (remaining_[parent_index].fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::vector<double>().swap(slots_[parent_index]);
        }
        return copy;
    }

private:
    std::vector<std::vector<double>> slots_;
    std::vector<std::atomic<bool>> stored_;
    std::vector<std::atomic<int>> remaining_;
    std::vector<int> children_;  ///< dependents per grid index
};

// --- erlang ---------------------------------------------------------------

class ErlangEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "erlang";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "closed-form Erlang populations and blocking (Eq. 2-7); no chain solve, "
            "data-plane measures stay zero";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = core::closed_form_measures(p, core::balance_handover(p));
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

// --- ctmc -----------------------------------------------------------------

class CtmcEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "ctmc";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "stationary solve of the full Markov chain (Table 1) with product-form "
            "warm starts; exact model measures";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&] { return solve_point(query, -1, {}, nullptr, nullptr); });
    }

    /// Grid planning with the deterministic bisection warm-start transfer:
    /// the solved/product-form deviation of each parent point is grafted
    /// onto its dependents' product form, and transfer_wins decides which
    /// of the two is the point's one start. Each point solves on its
    /// task's thread (the points are the parallelism), and idle seats of
    /// the wave help with its sweep groups; every query shares one wave
    /// structure (the schedule depends only on the grid size), so level-L
    /// points of ALL queries carry wave L and solve concurrently under the
    /// executor.
    ///
    /// Above one thread (execution_width) each wave L below the last also
    /// offers speculative starts of the level-(L+1) points, in (query,
    /// schedule) order, as optional tasks: the executor runs them only on
    /// seats the merged wave leaves empty. A start solves its point from
    /// the product form. Once the parent's deviation is stored, before the
    /// solve or at one of its residual checkpoints, the start applies
    /// transfer_wins and stores the verdict, stopping where the transfer
    /// wins. The point's own task in wave L+1 takes a stored verdict
    /// (applying the rule itself if the start finished before the parent)
    /// and adopts a finished start whose product form won: the speculative
    /// solve is bitwise the solve it would run. Otherwise it solves from
    /// the winner. Output is bitwise invariant to num_threads and to
    /// merging.
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        if (common::Status g = check_grid(rates); !g.ok()) {
            return failed_plan(queries.size(), g.error());
        }

        struct State {
            std::vector<ScenarioQuery> base;                     ///< per query
            std::vector<std::vector<PointEvaluation>> points;    ///< [q][i]
            std::vector<std::vector<std::unique_ptr<EvalError>>> errors;
            std::vector<std::unique_ptr<WarmStartCache>> caches;
            /// [q][i]: what the point's speculative start left, if one ran.
            std::vector<std::vector<Speculation>> speculations;
            /// Wave of query q's first failure; later-wave tasks of q skip.
            std::vector<std::atomic<long long>> poisoned;
            std::vector<double> rates;
            SolveSchedule schedule;
            std::mutex progress_mutex;
        };
        const std::size_t nq = queries.size();
        const std::size_t n = rates.size();
        auto state = std::make_shared<State>();
        state->base.assign(queries.begin(), queries.end());
        state->points.assign(nq, std::vector<PointEvaluation>(n));
        state->errors.resize(nq);
        state->speculations.resize(nq);
        state->rates.assign(rates.begin(), rates.end());
        state->schedule = bisection_schedule(n);
        std::vector<std::atomic<long long>> poisoned(nq);
        state->poisoned = std::move(poisoned);
        for (std::size_t q = 0; q < nq; ++q) {
            state->poisoned[q].store(LLONG_MAX, std::memory_order_relaxed);
        }
        // A failing probe only disables ITS query; no tasks are emitted
        // for it and the other slots plan normally.
        const std::vector<bool> planned = probe_queries(queries, rates, state->errors);
        state->caches.resize(nq);
        for (std::size_t q = 0; q < nq; ++q) {
            if (planned[q]) {
                state->caches[q] =
                    std::make_unique<WarmStartCache>(n, state->schedule.parent);
                state->speculations[q].resize(n);
            }
        }

        // Query q at grid point `index`, unless an earlier wave of q failed.
        const auto live_query = [state](std::size_t q, std::size_t index,
                                        std::size_t wave) -> std::optional<ScenarioQuery> {
            if (state->poisoned[q].load(std::memory_order_acquire) <
                static_cast<long long>(wave)) {
                return std::nullopt;  // a parent wave of this query already failed
            }
            ScenarioQuery query = state->base[q];
            query.call_arrival_rate = state->rates[index];
            return query;
        };
        const auto solve_task = [this, state, live_query, progress = options.progress](
                                    std::size_t q, std::size_t index, std::size_t wave) {
            const std::optional<ScenarioQuery> query = live_query(q, index, wave);
            if (!query) {
                return;
            }
            WarmStartCache& cache = *state->caches[q];
            const int parent = state->schedule.parent[index];
            Speculation speculation = std::move(state->speculations[q][index]);
            std::vector<double> deviation;
            common::Result<PointEvaluation> point = guarded(*query, [&] {
                return solve_point(
                    *query, parent,
                    parent >= 0 ? cache.claim(static_cast<std::size_t>(parent))
                                : std::vector<double>(),
                    cache.has_dependents(index) ? &deviation : nullptr, &speculation);
            });
            if (!point.ok()) {
                state->errors[q][index] = std::make_unique<EvalError>(point.error());
                poison(state->poisoned[q], static_cast<long long>(wave));
                return;
            }
            cache.store(index, std::move(deviation));
            state->points[q][index] = point.take();
            if (progress) {
                std::lock_guard<std::mutex> lock(state->progress_mutex);
                progress(q * state->rates.size() + index, state->points[q][index]);
            }
        };
        // A speculative start keeps what it computed for the point's own
        // task and nothing else: a failure is that task's to find again.
        const auto speculate_task = [this, state, live_query](std::size_t q, std::size_t index,
                                                              std::size_t wave) {
            const std::optional<ScenarioQuery> query = live_query(q, index, wave);
            if (!query) {
                return;
            }
            Speculation& speculation = state->speculations[q][index];
            const WarmStartCache& cache = *state->caches[q];
            const auto parent = static_cast<std::size_t>(state->schedule.parent[index]);
            const Checkpoint decide = [&](const core::GprsModel& model) {
                if (speculation.transfer_wins) {
                    return;
                }
                const std::vector<double>* transferred = cache.stored(parent);
                if (transferred == nullptr) {
                    return;
                }
                speculation.transfer_wins = transfer_wins(
                    model,
                    core::product_form_initial(model.parameters(), model.balanced(),
                                               model.space()),
                    *transferred);
                if (*speculation.transfer_wins) {
                    throw StartAbandoned{};
                }
            };
            try {
                common::Result<PointEvaluation> point = guarded(*query, [&] {
                    return solve_point(
                        *query, -1, {},
                        cache.has_dependents(index) ? &speculation.deviation : nullptr, nullptr,
                        decide);
                });
                if (point.ok()) {
                    speculation.point = point.take();
                }
            } catch (const StartAbandoned&) {
                // The transfer wins: the point's own task solves from it.
            }
        };

        const bool speculate = execution_width(options) > 1;
        const std::vector<std::vector<int>>& levels = state->schedule.levels;
        GridPlan plan;
        for (std::size_t level = 0; level < levels.size(); ++level) {
            for (std::size_t q = 0; q < nq; ++q) {
                if (!planned[q]) {
                    continue;
                }
                for (const int index : levels[level]) {
                    plan.tasks.push_back({level, [solve_task, q, index, level] {
                                              solve_task(q, static_cast<std::size_t>(index),
                                                         level);
                                          }});
                }
            }
            for (std::size_t q = 0; q < nq && speculate && level + 1 < levels.size(); ++q) {
                if (!planned[q]) {
                    continue;
                }
                for (const int index : levels[level + 1]) {
                    plan.tasks.push_back({level,
                                          [speculate_task, q, index, level] {
                                              speculate_task(
                                                  q, static_cast<std::size_t>(index), level);
                                          },
                                          true});
                }
            }
        }
        plan.collect = [state, nq] {
            std::vector<GridOutcome> outcomes;
            outcomes.reserve(nq);
            for (std::size_t q = 0; q < nq; ++q) {
                if (const EvalError* failed = first_error(state->errors[q])) {
                    outcomes.push_back(*failed);
                } else {
                    outcomes.push_back(std::move(state->points[q]));
                }
            }
            return outcomes;
        };
        return plan;
    }

private:
    /// A dependent point's product-form solve, run a wave early on an
    /// empty seat.
    struct Speculation {
        std::optional<PointEvaluation> point;  ///< empty unless the solve finished
        std::vector<double> deviation;         ///< for the point's own dependents
        /// transfer_wins' verdict, once the start has applied it.
        std::optional<bool> transfer_wins;
    };

    /// Thrown by a speculative start's checkpoint to stop its solve; not a
    /// std::exception, so no error fence on the way converts it.
    struct StartAbandoned {};

    /// Runs with the point's model before its solve and at each residual
    /// checkpoint of it; may throw to abandon the solve.
    using Checkpoint = std::function<void(const core::GprsModel&)>;

    /// The one chain-point computation behind evaluate() and every task of
    /// the grid plan: builds the model and its product-form guess, solves
    /// on the calling thread (the points of a grid are the parallelism;
    /// idle seats of its wave may help with the sweeps), and fills
    /// the evaluation. A root point (parent < 0) starts from the product
    /// form. A dependent point starts from `transferred` — its parent's
    /// deviation from the parent's own product form — grafted onto this
    /// point's product form when transfer_wins says so (the verdict its
    /// `speculation`, required for a dependent, stored, else decided
    /// here), and from the product form
    /// otherwise. A dependent whose product form wins adopts a finished
    /// speculation's evaluation: that start is a root's start, so the solve
    /// would repeat it bit for bit. When `deviation` is non-null it
    /// receives the solved distribution divided by the product form, for
    /// this point's own dependents.
    common::Result<PointEvaluation> solve_point(const ScenarioQuery& query, int parent,
                                                std::vector<double> transferred,
                                                std::vector<double>* deviation,
                                                Speculation* speculation,
                                                const Checkpoint& checkpoint = {}) const {
        const core::Parameters p = query.resolved_parameters();
        core::GprsModel model(p);
        const auto product_form = [&] {
            return core::product_form_initial(p, model.balanced(), model.space());
        };
        ctmc::SolveOptions solve;
        solve.tolerance = query.solver.tolerance;
        solve.max_iterations = query.solver.max_iterations;
        // validated() (via guarded) already vetted the spelling. One
        // thread: idle seats of the wave may still help with the sweeps.
        const ctmc::SolveMethod method = *ctmc::method_from_name(query.solver.method);
        solve.method = method;
        solve.num_threads = 1;
        if (checkpoint) {
            checkpoint(model);
            solve.progress = [&](common::index_type, double) { checkpoint(model); };
        }
        std::vector<double> start;
        bool warm_started = false;
        if (parent >= 0) {
            std::optional<bool>& wins = speculation->transfer_wins;
            if (!wins) {
                start = product_form();
                wins = transfer_wins(model, start, transferred);
            }
            if (!*wins && speculation->point) {
                if (deviation != nullptr) {
                    *deviation = std::move(speculation->deviation);
                }
                PointEvaluation adopted = std::move(*speculation->point);
                adopted.warm_parent = parent;
                return adopted;
            }
            warm_started = *wins;
        }
        if (start.empty()) {
            start = product_form();
        }
        if (warm_started) {
            for (std::size_t s = 0; s < start.size(); ++s) {
                transferred[s] *= start[s];
            }
            start.swap(transferred);
        }
        transferred = std::vector<double>();  // the start not taken
        solve.initial = std::move(start);
        auto solved = model.try_solve(std::move(solve), ctmc::default_engine());
        if (!solved.ok()) {
            return solved.error();
        }
        const ctmc::SolveResult& result = solved.value().get();
        if (deviation != nullptr) {
            // The product form again (a few ms): the solve consumed its start.
            *deviation = product_form();
            for (std::size_t s = 0; s < deviation->size(); ++s) {
                double& d = (*deviation)[s];
                d = d > 0.0 ? result.distribution[s] / d : 0.0;
            }
        }
        PointEvaluation point;
        point.backend = name();
        point.call_arrival_rate = query.call_arrival_rate;
        point.measures = core::compute_measures(p, model.balanced(), model.space(),
                                                result.distribution);
        point.iterations = static_cast<long long>(result.iterations);
        point.residual = result.residual;
        point.solver_method = ctmc::method_name(method);
        point.warm_parent = parent;
        point.warm_started = warm_started;
        point.wall_seconds = result.seconds;
        return point;
    }
};

// --- des ------------------------------------------------------------------

/// Pooled simulator means mapped onto the model's measure vocabulary, so
/// generic consumers can compare backends field by field.
core::Measures measures_from_sim(const sim::ExperimentResults& r,
                                 const core::Parameters& p) {
    core::Measures m;
    m.carried_data_traffic = r.carried_data_traffic.mean;
    m.packet_loss_probability = r.packet_loss_probability.mean;
    m.queueing_delay = r.queueing_delay.mean;
    m.throughput_per_user_kbps = r.throughput_per_user_kbps.mean;
    m.mean_queue_length = r.mean_queue_length.mean;
    m.carried_voice_traffic = r.carried_voice_traffic.mean;
    m.average_gprs_sessions = r.average_gprs_sessions.mean;
    m.gsm_blocking = r.gsm_blocking.mean;
    m.gprs_blocking = r.gprs_blocking.mean;
    m.data_throughput_kbps =
        m.carried_data_traffic * p.pdch_rate_kbps * (1.0 - p.block_error_rate);
    return m;
}

class DesEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "des";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "replications of the detailed network simulator, pooled into 95% "
            "confidence intervals (measures are replication means)";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return detail::replicated_point(query, experiment_config,
                                        std::bind_front(&DesEvaluator::pooled_point, this));
    }

    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override {
        return detail::replication_plan(queries, rates, options, experiment_config,
                                        std::bind_front(&DesEvaluator::pooled_point, this));
    }

private:
    static sim::ExperimentConfig experiment_config(const ScenarioQuery& query) {
        sim::ExperimentConfig experiment;
        experiment.base.cell = query.resolved_parameters();
        experiment.base.warmup_time = query.simulation.warmup_time;
        experiment.base.batch_count = query.simulation.batch_count;
        experiment.base.batch_duration = query.simulation.batch_duration;
        experiment.base.tcp_enabled = query.simulation.tcp;
        experiment.replications = query.simulation.replications;
        experiment.seed = query.simulation.seed;
        return experiment;
    }

    /// Pools per-replication results (replication order) into the point.
    PointEvaluation pooled_point(const ScenarioQuery& query, const sim::ExperimentConfig&,
                                 std::vector<sim::SimulationResults> runs,
                                 int threads_used) const {
        PointEvaluation point;
        point.backend = name();
        point.call_arrival_rate = query.call_arrival_rate;
        point.sim = sim::pool_replications(std::move(runs));
        point.sim.threads_used = threads_used;
        point.measures = measures_from_sim(point.sim, query.resolved_parameters());
        point.has_confidence = true;
        return point;
    }
};

// --- mm1k-approx ----------------------------------------------------------

class Mm1kApproxEvaluator final : public Evaluator {
public:
    const std::string& name() const override {
        static const std::string n = "mm1k-approx";
        return n;
    }
    const std::string& description() const override {
        static const std::string d =
            "cheap M/M/c/K approximation of the data plane over the Erlang "
            "populations (c = mean free channels); milliseconds per point";
        return d;
    }

    common::Result<PointEvaluation> evaluate(const ScenarioQuery& query) override {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            const WallClock clock;
            const core::Parameters p = query.resolved_parameters();
            const core::BalancedTraffic balanced = core::balance_handover(p);
            core::Measures m = core::closed_form_measures(p, balanced);

            // Data plane as M/M/c/K: c PDCHs on average remain after the
            // Erlang-carried voice traffic claims its on-demand channels
            // (never below the reservation, never above N); packets are
            // offered by the mean ON-source population of the aggregated
            // IPP. This decouples the three populations the chain couples
            // exactly — the "cheapest possible" end of the accuracy axis.
            const int servers = std::clamp(
                static_cast<int>(std::lround(static_cast<double>(p.total_channels) -
                                             m.carried_voice_traffic)),
                std::max(p.reserved_pdch, 1), p.total_channels);
            const double on_share = balanced.rates.on_admission_probability();
            const double offered =
                m.average_gprs_sessions * on_share * balanced.rates.packet_rate;
            const double mu = balanced.rates.service_rate;
            const int capacity = std::max(p.buffer_capacity, servers);
            const queueing::FiniteQueueMetrics queue =
                queueing::mmck(offered, mu, servers, capacity);

            m.carried_data_traffic = queue.throughput / mu;
            m.packet_loss_probability = queue.loss_probability;
            m.mean_queue_length = queue.mean_queue_length;
            m.queueing_delay = queue.mean_delay;
            m.offered_packet_rate = offered;
            m.data_throughput_kbps =
                queue.throughput * p.traffic.packet_size_bits / 1000.0;
            m.throughput_per_user_kbps =
                m.average_gprs_sessions > 0.0
                    ? m.data_throughput_kbps / m.average_gprs_sessions
                    : 0.0;

            PointEvaluation point;
            point.backend = name();
            point.call_arrival_rate = query.call_arrival_rate;
            point.measures = m;
            point.wall_seconds = clock.seconds();
            return point;
        });
    }
};

}  // namespace

namespace detail {

void register_builtin_backends(BackendRegistry& registry) {
    const auto add = [&](BackendRegistry::Factory make) {
        const std::unique_ptr<Evaluator> instance = make();
        // Built-in registration cannot collide (it runs once, first).
        (void)registry.add(instance->name(), instance->description(), std::move(make));
    };
    add([] { return std::make_unique<ErlangEvaluator>(); });
    add([] { return std::make_unique<CtmcEvaluator>(); });
    add([] { return std::make_unique<DesEvaluator>(); });
    add([] { return std::make_unique<Mm1kApproxEvaluator>(); });
    register_large_population_backends(registry);
    register_network_backends(registry);
}

}  // namespace detail

}  // namespace gprsim::eval
