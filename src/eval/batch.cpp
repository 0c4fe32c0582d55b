#include "eval/batch.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/crew.hpp"
#include "common/thread_pool.hpp"

namespace gprsim::eval {

BatchStats execute_plans(std::span<GridPlan> plans, const GridOptions& options) {
    BatchStats stats;
    // The merged depth is 1 + the largest wave tag of any plan's tasks.
    for (const GridPlan& plan : plans) {
        for (const BatchTask& task : plan.tasks) {
            stats.waves = std::max(stats.waves, task.wave + 1);
        }
    }

    // Bucket by wave, keeping (plan, insertion) order inside each bucket so
    // the serial path executes in one deterministic order.
    std::vector<std::vector<std::function<void()>>> waves(stats.waves);
    for (GridPlan& plan : plans) {
        for (BatchTask& task : plan.tasks) {
            waves[task.wave].push_back(std::move(task.run));
        }
        plan.tasks.clear();
    }

    const int width = options.pool != nullptr
                          ? common::ThreadPool::resolve_thread_count(options.num_threads)
                          : 1;
    for (const std::vector<std::function<void()>>& wave : waves) {
        stats.tasks += wave.size();
        stats.max_wave_width = std::max(stats.max_wave_width, wave.size());
        if (width <= 1) {
            for (const std::function<void()>& task : wave) {
                task();
            }
        } else {
            stats.helped_groups += common::Crew::run_tasks(*options.pool, wave, width);
        }
    }
    return stats;
}

common::Result<CampaignEvaluation> evaluate_campaign(BackendRegistry& registry,
                                                     const CampaignRequest& request,
                                                     const GridOptions& options) {
    // Resolve every backend before planning anything: an unknown name is a
    // request-level error, not a per-slot one.
    std::vector<Evaluator*> backends;
    backends.reserve(request.backends.size());
    for (const std::string& name : request.backends) {
        common::Result<Evaluator*> backend = registry.find(name);
        if (!backend.ok()) {
            return backend.error();
        }
        backends.push_back(backend.value());
    }

    // Each plan serializes its OWN progress calls; merged execution can
    // finish points of different plans at once, so the batch adds one more
    // lock around the caller's callback.
    GridOptions shared = options;
    if (options.progress) {
        auto mutex = std::make_shared<std::mutex>();
        shared.progress = [mutex, inner = options.progress](
                              std::size_t index, const PointEvaluation& point) {
            std::lock_guard<std::mutex> lock(*mutex);
            inner(index, point);
        };
    }

    std::vector<GridPlan> plans;
    plans.reserve(backends.size());
    for (Evaluator* backend : backends) {
        plans.push_back(backend->plan_grids(request.queries, request.rates, shared));
    }

    CampaignEvaluation evaluation;
    evaluation.stats = execute_plans(plans, options);
    evaluation.outcomes.reserve(plans.size());
    for (GridPlan& plan : plans) {
        evaluation.outcomes.push_back(plan.collect());
    }
    return evaluation;
}

}  // namespace gprsim::eval
