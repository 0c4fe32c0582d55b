#include "eval/batch.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/thread_pool.hpp"

namespace gprsim::eval {

BatchStats execute_plans(std::span<GridPlan> plans, const GridOptions& options) {
    BatchStats stats;
    for (const GridPlan& plan : plans) {
        stats.tasks += plan.tasks.size();
        // Trust the tasks' wave tags over the plan's self-reported depth:
        // a third-party plan that forgets to set `waves` must not index
        // past the bucket array.
        std::size_t depth = plan.waves;
        for (const BatchTask& task : plan.tasks) {
            depth = std::max(depth, task.wave + 1);
        }
        stats.waves = std::max(stats.waves, depth);
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

    const int width = common::ThreadPool::resolve_thread_count(options.num_threads);
    for (const std::vector<std::function<void()>>& wave : waves) {
        stats.max_wave_width = std::max(stats.max_wave_width, wave.size());
        const int wave_width = std::min<int>(width, static_cast<int>(wave.size()));
        if (wave_width <= 1 || options.pool == nullptr) {
            for (const std::function<void()>& task : wave) {
                task();
            }
        } else {
            options.pool->run_tasks(wave, wave_width);
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
