#include "ctmc/engine.hpp"

#include <algorithm>

namespace gprsim::ctmc {

double QtMatrix::gauss_seidel_sweeps(double* x, index_type count, bool want_sum) const {
    return detail::gauss_seidel_sweeps(detail::csr_view(*this), x, count, want_sum);
}

double QtMatrix::fused_normalize_residual(double* x, double sum,
                                          double uniformization_rate) const {
    return detail::fused_normalize_residual(detail::csr_view(*this), x, sum,
                                            uniformization_rate);
}

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
