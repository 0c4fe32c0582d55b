#include "eval/backends.hpp"

#include <algorithm>
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
#include "queueing/mm1k.hpp"
#include "sim/experiment.hpp"

namespace gprsim::eval {

std::vector<int> bisection_schedule(std::size_t count) {
    std::vector<int> parent(count, -1);
    if (count < 2) {
        return parent;
    }
    const int last = static_cast<int>(count) - 1;
    parent[static_cast<std::size_t>(last)] = 0;
    std::vector<std::pair<int, int>> segments{{0, last}};
    while (!segments.empty()) {
        const auto [a, b] = segments.back();
        segments.pop_back();
        if (b - a <= 1) {
            continue;
        }
        const int mid = a + (b - a) / 2;
        // Nearest endpoint: the floor midpoint is never closer to b, so the
        // lower endpoint always wins ("ties down").
        parent[static_cast<std::size_t>(mid)] = a;
        segments.emplace_back(a, mid);
        segments.emplace_back(mid, b);
    }
    return parent;
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
// (eval/backend_util.hpp).
using detail::WallClock;
using detail::check_grid;
using detail::failed_plan;
using detail::first_error;
using detail::guarded;
using detail::probe_queries;

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

/// A settled point's deviation (its solved distribution divided by its own
/// product form, elementwise): held once, read-only, by its dependents and
/// freed with the last of them.
using Transfer = std::shared_ptr<const std::vector<double>>;

/// Asked by a dependent point before it sweeps and, until it has applied
/// transfer_wins, at each residual checkpoint: its parent's deviation once
/// the parent has settled, else nullptr. Throws Skip once the parent has
/// failed or was skipped.
using Poll = std::function<Transfer()>;

/// The point's parent failed or was skipped, so the point is skipped too.
/// Not a std::exception, so no error fence on the way converts it.
struct Skip {};

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
        return solve_point(query, -1, {}, nullptr, nullptr);
    }

    /// Grid planning with the deterministic bisection warm-start transfer:
    /// the deviation of each parent point is grafted onto its dependents'
    /// product form, and transfer_wins decides which of the two is the
    /// point's one start. Every (query, point) is one wave-0 task, in grid
    /// order with the queries interleaved; a parent always has the lower
    /// index, so at one thread each parent settles before its dependents
    /// start. Each point solves on its task's thread (the points are the
    /// parallelism), and idle seats help with its sweep groups. Wider, a
    /// dependent may start before its parent settles; it still settles to
    /// the point the serial order gives (GridState), so output is bitwise
    /// invariant to num_threads, to the task order and to merging.
    GridPlan plan_grids(std::span<const ScenarioQuery> queries,
                        std::span<const double> rates,
                        const GridOptions& options) override;

private:
    class GridState;

    /// The one chain-point computation behind evaluate() and every task of
    /// the grid plan: builds the model, solves on the calling thread, and
    /// fills the evaluation. A root point (parent < 0) starts from the
    /// product form. A dependent applies transfer_wins once `poll` returns
    /// its parent's deviation, and then sets *decided: before it sweeps,
    /// when the parent has already settled, it solves once from the winner;
    /// otherwise it solves from the product form and decides at the first
    /// residual checkpoint after the parent settles, restarting from the
    /// transfer where it wins. A solve that ends undecided is the
    /// product-form outcome. `product`, when given, is such an outcome
    /// (its deviation already in *deviation): it stands where the transfer
    /// loses. When `deviation` is non-null it receives the solved
    /// distribution divided by the product form, for this point's own
    /// dependents.
    common::Result<PointEvaluation> solve_point(
        const ScenarioQuery& query, int parent, const Poll& poll,
        std::vector<double>* deviation, bool* decided,
        common::Result<PointEvaluation>* product = nullptr) const {
        return guarded(query, [&]() -> common::Result<PointEvaluation> {
            Transfer transfer = parent >= 0 ? poll() : nullptr;
            const core::Parameters p = query.resolved_parameters();
            core::GprsModel model(p);
            const auto product_form = [&] {
                return core::product_form_initial(p, model.balanced(), model.space());
            };
            // The start transfer_wins picks, raw: the product form, with the
            // parent's deviation grafted into it where the transfer wins.
            bool warm = false;
            const auto pick = [&](const std::vector<double>& from) {
                *decided = true;
                std::vector<double> start = product_form();
                warm = transfer_wins(model, start, from);
                if (warm) {
                    for (std::size_t s = 0; s < start.size(); ++s) {
                        start[s] *= from[s];
                    }
                }
                return start;
            };
            std::vector<double> start;
            if (transfer) {
                start = pick(*transfer);
                transfer = nullptr;
                if (product != nullptr && !warm) {
                    return std::move(*product);
                }
                if (deviation != nullptr) {
                    *deviation = std::vector<double>();  // the stale one
                }
            } else {
                start = product_form();
            }
            struct Restart {};
            const auto checkpoint = [&](common::index_type, double) {
                if (*decided) {
                    return;
                }
                if (const Transfer from = poll()) {
                    std::vector<double> picked = pick(*from);
                    if (warm) {
                        start = std::move(picked);
                        throw Restart{};
                    }
                }
            };
            // validated() (via guarded) already vetted the spelling.
            const ctmc::SolveMethod method = *ctmc::method_from_name(query.solver.method);
            while (true) {
                ctmc::SolveOptions solve;
                solve.tolerance = query.solver.tolerance;
                solve.max_iterations = query.solver.max_iterations;
                solve.method = method;
                // One thread: idle seats of the wave may still help with
                // the sweeps.
                solve.num_threads = 1;
                solve.initial = std::move(start);
                if (parent >= 0 && !*decided) {
                    solve.progress = checkpoint;
                }
                try {
                    auto solved = model.try_solve(std::move(solve), ctmc::default_engine());
                    if (!solved.ok()) {
                        return solved.error();
                    }
                    const ctmc::SolveResult& result = solved.value().get();
                    if (deviation != nullptr) {
                        // The product form again (a few ms): the solve
                        // consumed its start.
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
                    point.warm_started = warm;
                    point.wall_seconds = result.seconds;
                    return point;
                } catch (const Restart&) {
                    // `start` now holds the transfer: solve again from it.
                }
            }
        });
    }
};

/// One ctmc grid plan's state: every query's points and how they settle. A
/// point settles once its outcome is final; its dependents then take its
/// deviation. A dependent whose task starts before that solves from its
/// product form and decides at a residual checkpoint (solve_point); if its
/// solve ends first, the task leaves its outcome here, and the parent's
/// task decides it when the parent settles. A point whose parent failed or
/// was skipped is skipped and records no error, so the recorded errors,
/// like every point, are the serial order's whatever order the tasks run
/// in, and no task ever waits on another. The nodes are guarded by mutex_;
/// solves run outside it.
class CtmcEvaluator::GridState {
public:
    GridState(const CtmcEvaluator& backend, std::span<const ScenarioQuery> queries,
              std::span<const double> rates,
              std::function<void(std::size_t, const PointEvaluation&)> progress)
        : errors(queries.size()),
          backend_(backend),
          base_(queries.begin(), queries.end()),
          rates_(rates.begin(), rates.end()),
          parent_(bisection_schedule(rates.size())),
          children_(rates.size()),
          nodes_(queries.size(), std::vector<Node>(rates.size())),
          points_(queries.size(), std::vector<PointEvaluation>(rates.size())),
          progress_(std::move(progress)) {
        for (std::size_t i = 0; i < parent_.size(); ++i) {
            if (parent_[i] >= 0) {
                children_[static_cast<std::size_t>(parent_[i])].push_back(i);
            }
        }
    }

    /// [q][i]: the point's error; the probe fills a query's first slot
    /// before any task runs.
    std::vector<std::vector<std::unique_ptr<EvalError>>> errors;

    /// The task of query q's point i.
    void run(std::size_t q, std::size_t i) {
        Outcome outcome;
        try {
            bool decided = false;
            outcome = solve(q, i, [this, q, i] { return poll(q, i); }, &decided);
            if (parent_[i] >= 0 && !decided) {
                Transfer transfer = take_or_leave(q, outcome);
                if (!transfer) {
                    return;  // left for the parent's task
                }
                outcome = decide(q, std::move(transfer), std::move(outcome));
            }
        } catch (const Skip&) {
            outcome = Outcome{i, std::nullopt, {}};
        }
        settle(q, std::move(outcome));
    }

    std::vector<GridOutcome> collect() {
        std::vector<GridOutcome> outcomes;
        outcomes.reserve(base_.size());
        for (std::size_t q = 0; q < base_.size(); ++q) {
            if (const EvalError* failed = first_error(errors[q])) {
                outcomes.push_back(*failed);
            } else {
                outcomes.push_back(std::move(points_[q]));
            }
        }
        return outcomes;
    }

private:
    /// A point's outcome on its way to settling; no point = skipped.
    struct Outcome {
        std::size_t index = 0;
        std::optional<common::Result<PointEvaluation>> point;
        std::vector<double> deviation;  ///< for the point's dependents
    };
    struct Node {
        bool failed = false;  ///< settled with an error, or skipped
        Transfer transfer;    ///< the parent's, until the point takes it
        std::optional<Outcome> left;  ///< an undecided outcome, until the parent settles
    };

    /// The parent's deviation, if it has settled; mutex_ held.
    Transfer take(std::size_t q, std::size_t i) {
        if (nodes_[q][static_cast<std::size_t>(parent_[i])].failed) {
            throw Skip{};
        }
        return std::move(nodes_[q][i].transfer);
    }

    Transfer poll(std::size_t q, std::size_t i) {
        std::lock_guard<std::mutex> lock(mutex_);
        return take(q, i);
    }

    /// The parent's deviation for an undecided outcome, if the parent has
    /// settled by now; else leaves the outcome for the parent's task.
    Transfer take_or_leave(std::size_t q, Outcome& outcome) {
        std::lock_guard<std::mutex> lock(mutex_);
        Transfer transfer = take(q, outcome.index);
        if (!transfer) {
            nodes_[q][outcome.index].left = std::move(outcome);
        }
        return transfer;
    }

    Outcome solve(std::size_t q, std::size_t i, const Poll& poll, bool* decided,
                  common::Result<PointEvaluation>* product = nullptr,
                  std::vector<double> deviation = {}) const {
        ScenarioQuery query = base_[q];
        query.call_arrival_rate = rates_[i];
        Outcome outcome{i, std::nullopt, std::move(deviation)};
        outcome.point = backend_.solve_point(
            query, parent_[i], poll, children_[i].empty() ? nullptr : &outcome.deviation,
            decided, product);
        return outcome;
    }

    /// Applies transfer_wins to an undecided outcome: it stands where the
    /// transfer loses, else the point solves again from the transfer.
    Outcome decide(std::size_t q, Transfer transfer, Outcome undecided) {
        bool decided = false;
        return solve(q, undecided.index, [&transfer] { return std::move(transfer); }, &decided,
                     &*undecided.point, std::move(undecided.deviation));
    }

    /// Makes `outcome` its point's final one and hands the point's deviation
    /// to its dependents. A dependent that left an outcome is decided here,
    /// on this task's seat, and settles in turn; below a point that failed
    /// or was skipped, a left outcome is dropped and its point skipped.
    void settle(std::size_t q, Outcome outcome) {
        std::vector<Outcome> settling;
        settling.push_back(std::move(outcome));
        while (!settling.empty()) {
            Outcome done = std::move(settling.back());
            settling.pop_back();
            const std::size_t i = done.index;
            const bool ok = done.point && done.point->ok();
            Transfer transfer;
            if (ok && !children_[i].empty()) {
                transfer = std::make_shared<const std::vector<double>>(std::move(done.deviation));
            }
            std::vector<Outcome> left;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                nodes_[q][i].failed = !ok;
                for (const std::size_t c : children_[i]) {
                    Node& child = nodes_[q][c];
                    if (child.left) {
                        left.push_back(std::move(*child.left));
                        child.left.reset();
                    } else {
                        child.transfer = transfer;
                    }
                }
            }
            if (ok) {
                points_[q][i] = done.point->take();
                if (progress_) {
                    std::lock_guard<std::mutex> lock(progress_mutex_);
                    progress_(q * rates_.size() + i, points_[q][i]);
                }
            } else if (done.point) {
                errors[q][i] = std::make_unique<EvalError>(done.point->error());
            }
            for (Outcome& undecided : left) {
                settling.push_back(ok ? decide(q, transfer, std::move(undecided))
                                      : Outcome{undecided.index, std::nullopt, {}});
            }
        }
    }

    const CtmcEvaluator& backend_;
    std::vector<ScenarioQuery> base_;
    std::vector<double> rates_;
    std::vector<int> parent_;
    std::vector<std::vector<std::size_t>> children_;  ///< by grid index
    std::mutex mutex_;                                 ///< guards nodes_
    std::vector<std::vector<Node>> nodes_;             ///< [q][i]
    /// [q][i], each written once, by the task that settles the point.
    std::vector<std::vector<PointEvaluation>> points_;
    std::mutex progress_mutex_;  ///< serializes progress_ calls
    std::function<void(std::size_t, const PointEvaluation&)> progress_;
};

GridPlan CtmcEvaluator::plan_grids(std::span<const ScenarioQuery> queries,
                                   std::span<const double> rates, const GridOptions& options) {
    if (common::Status g = check_grid(rates); !g.ok()) {
        return failed_plan(queries.size(), g.error());
    }
    auto state = std::make_shared<GridState>(*this, queries, rates, options.progress);
    // A failing probe only disables ITS query; no tasks are emitted for it
    // and the other slots plan normally.
    const std::vector<bool> planned = probe_queries(queries, rates, state->errors);
    GridPlan plan;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        for (std::size_t q = 0; q < queries.size(); ++q) {
            if (planned[q]) {
                plan.tasks.push_back({0, [state, q, i] { state->run(q, i); }});
            }
        }
    }
    plan.collect = [state] { return state->collect(); };
    return plan;
}

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
