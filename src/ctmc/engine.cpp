#include "ctmc/engine.hpp"

#include <algorithm>
#include <sstream>

namespace gprsim::ctmc {

AutoSelection auto_select_method(index_type n, int threads) {
    // Cost model, measured on the Fig. 10 M = 10 chain (126k states; see
    // docs/benchmarks.md). All costs are per-sweep, relative to one
    // sequential Gauss-Seidel sweep; the iteration ratios are the observed
    // sweeps-to-tolerance of each method against serial Gauss-Seidel with
    // the product-form warm start.
    constexpr double kCostSerialSweep = 0.55;    // wavefront-pipelined kernel
    constexpr double kCostRedBlackSweep = 2.1;   // two colored phases + commit
    constexpr double kIterRatioRedBlack = 1.85;  // 1830 / 990 sweeps
    constexpr double kParallelEfficiency = 0.8;  // pool dispatch + memory bw
    constexpr index_type kSmallChain = 50000;

    AutoSelection pick;
    std::ostringstream why;
    why << "auto_select(n=" << n << ", threads=" << threads << "): ";
    if (threads <= 1) {
        pick.method = SolveMethod::gauss_seidel;
        why << "serial budget -> pipelined serial Gauss-Seidel";
        pick.reason = why.str();
        return pick;
    }
    if (n < kSmallChain) {
        pick.method = SolveMethod::gauss_seidel;
        why << "chain below " << kSmallChain
            << " states -> serial Gauss-Seidel (parallel dispatch overhead dominates)";
        pick.reason = why.str();
        return pick;
    }
    const double width = static_cast<double>(threads) * kParallelEfficiency;
    const double serial_cost = kCostSerialSweep;
    const double red_black_cost = kCostRedBlackSweep * kIterRatioRedBlack / width;
    if (serial_cost <= red_black_cost) {
        pick.method = SolveMethod::gauss_seidel;
        why << "serial cost " << serial_cost << " beats red-black " << red_black_cost
            << " at this width";
    } else {
        pick.method = SolveMethod::red_black_gauss_seidel;
        why << "red-black cost " << red_black_cost << " beats serial " << serial_cost;
    }
    pick.reason = why.str();
    return pick;
}

double QtMatrix::gauss_seidel_sweeps(double* x, index_type count, bool want_sum) const {
    return detail::gauss_seidel_sweeps(detail::csr_view(*this), x, count, want_sum);
}

double QtMatrix::fused_normalize_residual(double* x, double sum,
                                          double uniformization_rate) const {
    return detail::fused_normalize_residual(detail::csr_view(*this), x, sum,
                                            uniformization_rate);
}

SolverEngine::SolverEngine(int prewarm_threads) {
    if (prewarm_threads > 1) {
        pool_ = std::make_unique<common::ThreadPool>(prewarm_threads);
    }
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
