// Reproduces paper Fig. 6: validation of the Markov model against the
// detailed network simulator — carried data traffic and throughput per user
// for 2%/5%/10% GPRS users (traffic model 3, 1 reserved PDCH).
//
// Since the campaign refactor the whole figure is one declarative campaign
// (campaigns/fig06_validation.json carries the same spec for the CLI):
// methods ctmc + des run, for every (GPRS fraction, arrival rate) point,
// one warm-started chain solve plus R simulator replications, all claimed
// from one thread pool; the simulator columns are replication-level 95%
// confidence intervals and the delta columns are the per-point model-minus-
// simulator differences. Output is bitwise identical for every thread
// count. Perf records land in BENCH_simulator.json.
//
// Paper findings: the model's curves lie within the simulator's 95%
// confidence intervals; CDT rises to ~4.8 PDCHs for 10% GPRS users at
// moderate load, then falls as voice traffic claims the on-demand channels.
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

    campaign::ScenarioSpec spec;
    spec.named("fig06_validation")
        .with_methods({"ctmc", "des"})
        .over_traffic_models({3})
        .over_reserved_pdch({1})
        .over_gprs_fractions({0.02, 0.05, 0.10})
        .with_rate_grid(0.1, 1.0, args.grid(4, 10))
        .with_tolerance(1e-9);
    spec.flow_control_threshold = 0.7;  // the calibrated value of Fig. 5
    spec.simulation.replications = args.replication_count(4, 8);
    spec.simulation.seed = 600u;
    spec.simulation.warmup_time = args.full ? 3000.0 : 1500.0;
    spec.simulation.batch_count = args.full ? 20 : 10;
    spec.simulation.batch_duration = args.full ? 3000.0 : 1500.0;
    spec.simulation.tcp = true;

    bench::print_header(
        "Fig. 6 -- Validation of the Markov model with the detailed simulator "
        "(traffic model 3, 1 reserved PDCH)");
    std::printf("replications per point: %d, threads: %d\n",
                spec.simulation.replications, args.threads);

    campaign::CampaignOptions options = bench::campaign_options(args);
    bench::attach_solve_progress(options);
    bench::WallTimer timer;
    const campaign::CampaignResult result = campaign::run_campaign(spec, options);

    int inside = 0;
    int total = 0;
    for (std::size_t v = 0; v < result.variants.size(); ++v) {
        const campaign::Variant& variant = result.variants[v];
        std::printf("\n--- %.0f%% GPRS users ---\n", 100.0 * variant.gprs_fraction);
        std::printf("%8s | %10s %22s %9s | %10s %22s %9s\n", "calls/s", "CDT model",
                    "CDT sim [95% CI]", "delta", "ATU model", "ATU sim [95% CI]", "delta");
        for (std::size_t r = 0; r < result.rates.size(); ++r) {
            const campaign::CampaignPoint& point = result.at(v, r);
            const core::Measures& model = point.evaluations[0].measures;
            const auto& cdt = point.evaluations[1].sim.carried_data_traffic;
            const auto& atu = point.evaluations[1].sim.throughput_per_user_kbps;
            std::printf(
                "%8.3f | %10.3f [%8.3f, %8.3f]%s %+9.3f | %10.3f [%8.3f, %8.3f]%s %+9.3f\n",
                point.call_arrival_rate, model.carried_data_traffic, cdt.lower(), cdt.upper(),
                cdt.covers(model.carried_data_traffic) ? " in " : " OUT", point.deltas[1].cdt,
                model.throughput_per_user_kbps, atu.lower(), atu.upper(),
                atu.covers(model.throughput_per_user_kbps) ? " in " : " OUT",
                point.deltas[1].atu);
            inside += cdt.covers(model.carried_data_traffic) ? 1 : 0;
            inside += atu.covers(model.throughput_per_user_kbps) ? 1 : 0;
            total += 2;
        }
    }

    std::printf("\nModel points inside the simulator's 95%% CI: %d / %d\n", inside, total);
    std::printf("Paper: \"almost all performance curves ... lie in the confidence\n");
    std::printf("intervals\"; exact counts vary with seeds and replication settings.\n");
    campaign::print_campaign_summary(result, stdout);

    double sim_seconds = 0.0;
    for (const campaign::CampaignPoint& point : result.points) {
        sim_seconds += point.evaluations[1].sim.simulated_time;
    }
    bench::SimJsonWriter json;
    json.add({"fig06_campaign", args.threads, spec.simulation.replications,
              static_cast<long long>(result.summary.backends[1].events), sim_seconds,
              timer.seconds()});
    json.write(args.json.empty() ? "BENCH_simulator.json" : args.json);
    return 0;
}
