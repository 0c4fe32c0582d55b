// Reproduces paper Fig. 5: calibrating the flow-control threshold eta so the
// Markov model's packet loss probability tracks the simulator's real TCP.
//
// Traffic model 3, 1 reserved PDCH, 5% GPRS users. The Markov model is
// solved for eta in {0.5 ... 1.0}; the detailed simulator runs TCP Reno and
// reports PLP with 95% confidence intervals.
//
// Paper findings: eta = 0.7 approximates TCP flow control best; smaller eta
// throttles traffic even without congestion; eta = 1.0 (no flow control)
// drives PLP toward 1 under load.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "sim/simulator.hpp"
#include "traffic/threegpp.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const std::vector<double> rates =
        campaign::arrival_rate_grid(0.2, 1.0, args.grid(4, 9));
    const double etas[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};

    bench::print_header(
        "Fig. 5 -- Calibrating eta to represent TCP flow control "
        "(traffic model 3, 1 PDCH, 5% GPRS)");

    core::Parameters base = core::Parameters::with_traffic_model(traffic::traffic_model_3());
    base.reserved_pdch = 1;
    base.gprs_fraction = 0.05;

    // --- Markov model: PLP for each eta (one ctmc campaign per eta) -------
    std::vector<std::vector<double>> plp(std::size(etas));
    for (std::size_t e = 0; e < std::size(etas); ++e) {
        campaign::ScenarioSpec spec;
        spec.named("fig05_model")
            .over_traffic_models({3})
            .over_reserved_pdch({1})
            .over_gprs_fractions({0.05})
            .with_rates(rates)
            .with_tolerance(1e-9);
        spec.flow_control_threshold = etas[e];
        const campaign::CampaignResult result =
            campaign::run_campaign(spec, bench::campaign_options(args));
        for (std::size_t r = 0; r < rates.size(); ++r) {
            plp[e].push_back(bench::measures_at(result, 0, r).packet_loss_probability);
        }
        std::fprintf(stderr, "  [model] eta = %.1f done\n", etas[e]);
    }

    // --- Simulator with real TCP ------------------------------------------
    std::vector<sim::SimulationResults> simulated;
    for (double rate : rates) {
        sim::SimulationConfig config;
        config.cell = base;
        config.cell.call_arrival_rate = rate;
        config.tcp_enabled = true;
        config.seed = 50u + static_cast<std::uint64_t>(rate * 1000.0);
        config.warmup_time = args.full ? 3000.0 : 1500.0;
        config.batch_count = args.full ? 20 : 10;
        config.batch_duration = args.full ? 3000.0 : 1500.0;
        simulated.push_back(sim::NetworkSimulator(config).run());
        std::fprintf(stderr, "  [sim] rate = %.2f done (%.1fs wall)\n", rate,
                     simulated.back().wall_seconds);
    }

    // --- Figure data --------------------------------------------------------
    std::printf("\nPacket loss probability:\n%10s", "calls/s");
    for (double eta : etas) {
        std::printf("   eta=%4.1f", eta);
    }
    std::printf("   sim (TCP)    sim CI half\n");
    for (std::size_t r = 0; r < rates.size(); ++r) {
        std::printf("%10.3f", rates[r]);
        for (std::size_t e = 0; e < std::size(etas); ++e) {
            std::printf("  %9.2e", plp[e][r]);
        }
        std::printf("   %9.2e    %9.2e\n", simulated[r].packet_loss_probability.mean,
                    simulated[r].packet_loss_probability.half_width);
    }

    // --- Which eta tracks the simulator best? ------------------------------
    std::printf("\nMean |model - sim| over the sweep:\n");
    double best = 1e300;
    double best_eta = 0.0;
    for (std::size_t e = 0; e < std::size(etas); ++e) {
        double err = 0.0;
        for (std::size_t r = 0; r < rates.size(); ++r) {
            err += std::fabs(plp[e][r] - simulated[r].packet_loss_probability.mean);
        }
        err /= static_cast<double>(rates.size());
        std::printf("  eta = %.1f : %.3e\n", etas[e], err);
        if (err < best) {
            best = err;
            best_eta = etas[e];
        }
    }
    std::printf("\nBest-matching eta: %.1f (paper: 0.7 is optimal; eta below 0.7\n", best_eta);
    std::printf("throttles an uncongested network, eta = 1.0 lets PLP grow toward 1)\n");
    return 0;
}
