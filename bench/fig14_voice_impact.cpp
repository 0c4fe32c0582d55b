// Reproduces paper Fig. 14: influence of GPRS on the GSM voice service.
//
// Carried voice traffic (CVT) and voice blocking probability versus the
// GSM/GPRS call arrival rate, for 0/1/2/4 reserved PDCHs (95% GSM users).
// Both measures are Erlang closed forms after handover balancing (Eq. 2-6),
// declared as one method-"erlang" campaign over the reserved-PDCH axis, so
// this bench runs in milliseconds at full paper resolution.
//
// Paper finding: the capacity loss from reserving PDCHs is negligible
// compared to the benefit for GPRS.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

    campaign::ScenarioSpec spec;
    spec.named("fig14_voice_impact")
        .with_methods({"erlang"})
        .over_reserved_pdch({0, 1, 2, 4})
        .with_rate_grid(0.05, 1.0, args.grid(20, 20));
    const campaign::CampaignResult result =
        campaign::run_campaign(spec, bench::campaign_options(args));

    bench::print_header(
        "Fig. 14 -- Influence of GPRS on GSM voice service (95% GSM calls)");

    const auto table = [&](const char* title, auto measure, const char* fmt) {
        std::printf("\n%s:\n%10s", title, "calls/s");
        for (const campaign::Variant& variant : result.variants) {
            std::printf("  %7d PDCH", variant.reserved_pdch);
        }
        std::printf("\n");
        for (std::size_t r = 0; r < result.rates.size(); ++r) {
            std::printf("%10.3f", result.rates[r]);
            for (std::size_t v = 0; v < result.variants.size(); ++v) {
                std::printf(fmt, measure(bench::measures_at(result, v, r)));
            }
            std::printf("\n");
        }
    };
    table("Carried voice traffic [channels]",
          [](const core::Measures& m) { return m.carried_voice_traffic; }, "  %12.4f");
    table("GSM voice blocking probability",
          [](const core::Measures& m) { return m.gsm_blocking; }, "  %12.4e");

    // Paper's qualitative claim: reserving up to 4 PDCHs costs little voice
    // capacity. Quantify the worst-case relative CVT loss over the sweep
    // (variant 0 reserves no PDCH, the last variant reserves 4).
    const std::size_t four = result.variants.size() - 1;
    double worst_loss = 0.0;
    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        const double cvt0 = bench::measures_at(result, 0, r).carried_voice_traffic;
        const double cvt4 = bench::measures_at(result, four, r).carried_voice_traffic;
        worst_loss = std::max(worst_loss, (cvt0 - cvt4) / cvt0);
    }
    std::printf("\nWorst-case relative CVT loss when reserving 4 PDCHs: %.2f%%\n",
                100.0 * worst_loss);
    std::printf("Paper: \"the decrease in channel capacity ... is negligible\"\n");
    return 0;
}
