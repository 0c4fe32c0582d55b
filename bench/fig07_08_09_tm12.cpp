// Reproduces paper Figs. 7, 8 and 9 from a single campaign:
//   Fig. 7: carried data traffic (CDT),
//   Fig. 8: packet loss probability (PLP),
//   Fig. 9: queueing delay (QD),
// each versus the GSM/GPRS call arrival rate for traffic models 1 and 2 and
// 1/2/4 reserved PDCHs (M = 50, 5% GPRS users).
//
// The three figures use the same six Markov-chain sweeps (~2.7 million
// states per solve), declared as one campaign over the traffic-model and
// reserved-PDCH axes: the runner claims all solves from one pool and
// warm-starts each from its nearest solved grid neighbor.
//
// Paper findings: CDT is nearly independent of the reservation and stays
// around 0.6 PDCHs at 1 call/s (one PDCH suffices); more reserved PDCHs
// reduce PLP and QD; the burstier model 2 has higher PLP and longer delays.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

    campaign::ScenarioSpec spec;
    spec.named("fig07_08_09")
        .over_traffic_models({1, 2})
        .over_reserved_pdch({1, 2, 4})
        .with_rate_grid(0.25, 1.0, args.grid(3, 9))
        .with_tolerance(1e-10);

    campaign::CampaignOptions options = bench::campaign_options(args);
    bench::attach_solve_progress(options);
    const campaign::CampaignResult result = campaign::run_campaign(spec, options);

    // Variant-major order: traffic model outermost, then reserved PDCHs —
    // variant t * 3 + c is (model t+1, pdch_options[c]).
    const int pdch_options[] = {1, 2, 4};
    const auto print_figure = [&](const char* title, auto measure, const char* fmt) {
        bench::print_header(title);
        for (std::size_t t = 0; t < 2; ++t) {
            std::printf("\nTraffic model %zu (%s):\n%10s", t + 1,
                        t == 0 ? "8 kbit/s" : "32 kbit/s", "calls/s");
            for (int pdch : pdch_options) {
                std::printf("  %7d PDCH", pdch);
            }
            std::printf("\n");
            for (std::size_t r = 0; r < result.rates.size(); ++r) {
                std::printf("%10.3f", result.rates[r]);
                for (std::size_t c = 0; c < 3; ++c) {
                    std::printf(fmt, measure(bench::measures_at(result, t * 3 + c, r)));
                }
                std::printf("\n");
            }
        }
    };

    print_figure("Fig. 7 -- Carried data traffic [PDCHs], traffic models 1 and 2",
                 [](const core::Measures& m) { return m.carried_data_traffic; },
                 "  %12.4f");
    print_figure("Fig. 8 -- Packet loss probability, traffic models 1 and 2",
                 [](const core::Measures& m) { return m.packet_loss_probability; },
                 "  %12.4e");
    print_figure("Fig. 9 -- Queueing delay [s], traffic models 1 and 2",
                 [](const core::Measures& m) { return m.queueing_delay; },
                 "  %12.4f");

    // Paper checks.
    const std::size_t last = result.rates.size() - 1;
    std::printf("\nPaper checks:\n");
    std::printf("  CDT at 1 call/s, TM1, 1 PDCH: %.3f (paper: ~0.6 PDCHs)\n",
                bench::measures_at(result, 0, last).carried_data_traffic);
    std::printf("  PLP(TM2) >= PLP(TM1) at matching configs: ");
    bool burstier_worse = true;
    for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t r = 0; r < result.rates.size(); ++r) {
            if (bench::measures_at(result, 3 + c, r).packet_loss_probability + 1e-12 <
                bench::measures_at(result, c, r).packet_loss_probability) {
                burstier_worse = false;
            }
        }
    }
    std::printf("%s\n", burstier_worse ? "yes" : "NO (check)");
    std::printf("  QD falls as PDCHs are reserved (TM2 @ 1 call/s): %.3f / %.3f / %.3f s\n",
                bench::measures_at(result, 3, last).queueing_delay,
                bench::measures_at(result, 4, last).queueing_delay,
                bench::measures_at(result, 5, last).queueing_delay);
    campaign::print_campaign_summary(result, stdout);
    return 0;
}
