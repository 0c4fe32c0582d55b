// Shared implementation of paper Figs. 11, 12 and 13: carried data traffic
// and throughput per user vs call arrival rate for 0/1/2/4 reserved PDCHs
// (traffic model 3), at a given percentage of GPRS users.
//
// Since the campaign refactor the whole figure is ONE declarative campaign
// (the reserved-PDCH axis times the arrival-rate grid) executed by
// campaign::CampaignRunner: every chain solve is claimed from one pool and
// warm-started from its nearest solved grid neighbor, and the tables below
// index straight into the campaign's variant-major point order.
#pragma once

#include <cstdio>

#include "bench/bench_util.hpp"

namespace gprsim::bench {

inline int run_cdt_atu_figure(const char* figure_name, double gprs_fraction, int argc,
                              char** argv) {
    const BenchArgs args = BenchArgs::parse(argc, argv);

    campaign::ScenarioSpec spec;
    spec.named(figure_name)
        .over_traffic_models({3})
        .over_reserved_pdch({0, 1, 2, 4})
        .over_gprs_fractions({gprs_fraction})
        .with_rate_grid(0.2, 1.0, args.grid(2, 9))
        .with_tolerance(1e-9);

    char title[160];
    std::snprintf(title, sizeof(title),
                  "%s -- CDT and throughput per user for %.0f%% GPRS users "
                  "(traffic model 3, M = 20)",
                  figure_name, 100.0 * gprs_fraction);
    print_header(title);

    campaign::CampaignOptions options = campaign_options(args);
    attach_solve_progress(options);
    const campaign::CampaignResult result = campaign::run_campaign(spec, options);

    std::printf("\nCarried data traffic [PDCHs]:\n%10s", "calls/s");
    for (const campaign::Variant& variant : result.variants) {
        std::printf("  %7d PDCH", variant.reserved_pdch);
    }
    std::printf("\n");
    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        std::printf("%10.3f", result.rates[r]);
        for (std::size_t c = 0; c < result.variants.size(); ++c) {
            std::printf("  %12.4f", measures_at(result, c, r).carried_data_traffic);
        }
        std::printf("\n");
    }

    std::printf("\nThroughput per user [kbit/s]:\n%10s", "calls/s");
    for (const campaign::Variant& variant : result.variants) {
        std::printf("  %7d PDCH", variant.reserved_pdch);
    }
    std::printf("\n");
    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        std::printf("%10.3f", result.rates[r]);
        for (std::size_t c = 0; c < result.variants.size(); ++c) {
            std::printf("  %12.4f", measures_at(result, c, r).throughput_per_user_kbps);
        }
        std::printf("\n");
    }

    // The paper's QoS example: a profile tolerating at most 50% throughput
    // degradation. Report the largest arrival rate at which 4 reserved
    // PDCHs still meet it (degradation measured from the lightest load).
    const std::size_t four = result.variants.size() - 1;
    const double reference = measures_at(result, four, 0).throughput_per_user_kbps;
    double sustained = result.rates.front();
    for (std::size_t r = 0; r < result.rates.size(); ++r) {
        if (measures_at(result, four, r).throughput_per_user_kbps >= 0.5 * reference) {
            sustained = result.rates[r];
        }
    }
    std::printf("\nQoS profile check (<= 50%% throughput degradation, 4 PDCHs):\n");
    std::printf("  sustained up to ~%.2f calls/s (paper: 1.0 / 0.5 / 0.3 calls/s\n", sustained);
    std::printf("  for 2%% / 5%% / 10%% GPRS users)\n");
    campaign::print_campaign_summary(result, stdout);
    return 0;
}

}  // namespace gprsim::bench
