#include "ctmc/engine.hpp"

#include <algorithm>

namespace gprsim::ctmc {

int SolverEngine::resolve_thread_count(int requested) {
    return common::ThreadPool::resolve_thread_count(requested);
}

common::ThreadPool& SolverEngine::pool(int min_threads) {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    const int want = std::max(min_threads, 1);
    if (!pool_ || pool_->size() < want) {
        pool_.reset();  // join the old workers before spawning the new pool
        pool_ = std::make_unique<common::ThreadPool>(want);
    }
    return *pool_;
}

SolverEngine& default_engine() {
    static SolverEngine engine;
    return engine;
}

}  // namespace gprsim::ctmc
