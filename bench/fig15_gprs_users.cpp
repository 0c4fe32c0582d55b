// Reproduces paper Fig. 15: average number of GPRS users in the cell and
// GPRS session blocking probability vs call arrival rate, for 2%/5%/10%
// GPRS users (traffic model 3, M = 20).
//
// Both measures are Erlang closed forms over the balanced flows (Eq. 3, 5,
// 7), exactly as the paper computes them — one method-"erlang" campaign
// over the GPRS-fraction axis.
//
// Paper findings: at 2% the limit of 20 sessions is never reached (blocking
// < 1e-5); at 10% the average session count approaches M and users are
// rejected.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

    campaign::ScenarioSpec spec;
    spec.named("fig15_gprs_users")
        .with_methods({"erlang"})
        .over_traffic_models({3})
        .over_gprs_fractions({0.02, 0.05, 0.10})
        .with_rate_grid(0.05, 1.0, args.grid(20, 20));
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, bench::campaign_options(args));

    bench::print_header(
        "Fig. 15 -- Average GPRS users in cell and GPRS user blocking "
        "(traffic model 3, M = 20)");

    const auto table = [&](const char* title, auto measure, const char* fmt) {
        std::printf("\n%s:\n", title);
        std::printf("%10s  %12s %12s %12s\n", "calls/s", "2% GPRS", "5% GPRS", "10% GPRS");
        for (std::size_t r = 0; r < result.rates.size(); ++r) {
            std::printf("%10.3f", result.rates[r]);
            for (std::size_t v = 0; v < result.variants.size(); ++v) {
                std::printf(fmt, measure(bench::measures_at(result, v, r)));
            }
            std::printf("\n");
        }
    };
    table("Average number of GPRS sessions (AGS)",
          [](const core::Measures& m) { return m.average_gprs_sessions; }, "  %12.4f");
    table("GPRS session blocking probability",
          [](const core::Measures& m) { return m.gprs_blocking; }, "  %12.4e");

    double blocking_2pct_max = 0.0;
    double ags_10pct_max = 0.0;
    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        blocking_2pct_max =
            std::max(blocking_2pct_max, bench::measures_at(result, 0, r).gprs_blocking);
        ags_10pct_max =
            std::max(ags_10pct_max, bench::measures_at(result, 2, r).average_gprs_sessions);
    }
    std::printf("\nPaper checks:\n");
    std::printf("  2%% GPRS: max blocking over sweep = %.2e (paper: stays below 1e-5)\n",
                blocking_2pct_max);
    std::printf("  10%% GPRS: max AGS = %.2f of M = 20 (paper: approaches the maximum)\n",
                ags_10pct_max);
    return 0;
}
