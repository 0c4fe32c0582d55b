// Reproduces paper Fig. 10: how many PDCHs are needed to satisfy (almost)
// all GPRS session requests — CDT and GPRS session blocking probability for
// M in {50, 100, 150} (traffic model 1, 2 reserved PDCHs, 5% GPRS users).
//
// Two campaigns over the session-cap axis: the blocking series is an Erlang
// closed form (Eq. 3/5, method "erlang") printed at full resolution; the
// CDT series requires full chain solves (method "ctmc") — M = 100 gives a
// ~10-million-state chain and M = 150 a ~22-million-state chain, so by
// default CDT is solved for M = 50 and the larger M under --full only.
//
// Paper findings: with M = 150 the maximal blocking stays below 1e-5 while
// only ~1.8 PDCHs are used on average: reserving 2 PDCHs satisfies nearly
// all session requests up to 1 call/s.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

    bench::print_header(
        "Fig. 10 -- CDT and GPRS session blocking vs M "
        "(traffic model 1, 2 reserved PDCHs, 5% GPRS)");

    // --- blocking probability: closed form, full resolution ----------------
    campaign::ScenarioSpec blocking_spec;
    blocking_spec.named("fig10_blocking")
        .with_methods({"erlang"})
        .over_reserved_pdch({2})
        .over_session_limits({50, 100, 150})
        .with_rate_grid(0.05, 1.0, 20);
    const campaign::CampaignResult blocking =
        campaign::run_campaign(blocking_spec, bench::campaign_options(args));

    std::printf("\nGPRS session blocking probability (Erlang closed form, Eq. 3/5):\n");
    std::printf("%10s  %12s %12s %12s\n", "calls/s", "M = 50", "M = 100", "M = 150");
    double max_blocking_150 = 0.0;
    for (std::size_t r = 0; r < blocking.rates.size(); ++r) {
        std::printf("%10.3f", blocking.rates[r]);
        for (std::size_t v = 0; v < blocking.variants.size(); ++v) {
            const double p = bench::measures_at(blocking, v, r).gprs_blocking;
            std::printf("  %12.4e", p);
            if (blocking.variants[v].max_gprs_sessions == 150) {
                max_blocking_150 = std::max(max_blocking_150, p);
            }
        }
        std::printf("\n");
    }

    // --- carried data traffic: full chain solves ----------------------------
    std::vector<int> solved_limits{50};
    if (args.full) {
        solved_limits = {50, 100, 150};
    }
    campaign::ScenarioSpec cdt_spec;
    cdt_spec.named("fig10_cdt")
        .over_reserved_pdch({2})
        .over_session_limits(solved_limits)
        .with_rate_grid(0.25, 1.0, args.grid(3, 8))
        .with_tolerance(1e-10);
    campaign::CampaignOptions options = bench::campaign_options(args);
    bench::attach_solve_progress(options);
    const campaign::CampaignResult cdt = campaign::run_campaign(cdt_spec, options);

    std::printf("\nCarried data traffic [PDCHs]");
    if (!args.full) {
        std::printf(" (M = 50 by default; pass --full for M = 100/150 — the\n"
                    "M = 150 chain has ~22 million states)");
    }
    std::printf(":\n%10s", "calls/s");
    for (const campaign::Variant& variant : cdt.variants) {
        std::printf("  %6s M=%-3d", "", variant.max_gprs_sessions);
    }
    std::printf("\n");
    for (std::size_t r = 0; r < cdt.rates.size(); ++r) {
        std::printf("%10.3f", cdt.rates[r]);
        for (std::size_t v = 0; v < cdt.variants.size(); ++v) {
            std::printf("  %12.4f", bench::measures_at(cdt, v, r).carried_data_traffic);
        }
        std::printf("\n");
    }

    const std::size_t last_rate = cdt.rates.size() - 1;
    std::printf("\nPaper checks:\n");
    std::printf("  max blocking at M = 150: %.2e (paper: below 1e-5)\n", max_blocking_150);
    if (args.full) {
        std::printf("  CDT at 1 call/s, M = 150: %.2f PDCHs (paper: ~1.8)\n",
                    bench::measures_at(cdt, cdt.variants.size() - 1, last_rate)
                        .carried_data_traffic);
    } else {
        std::printf("  CDT at 1 call/s, M = 50: %.2f PDCHs (paper, M = 150: ~1.8)\n",
                    bench::measures_at(cdt, 0, last_rate).carried_data_traffic);
    }
    campaign::print_campaign_summary(cdt, stdout);
    return 0;
}
