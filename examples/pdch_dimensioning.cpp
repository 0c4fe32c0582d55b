// PDCH dimensioning: the paper's headline use case.
//
// "How many packet data channels should be allocated for GPRS under a given
// amount of traffic in order to guarantee appropriate quality of service?"
//
// Given a traffic mix and QoS targets (maximum packet loss probability and
// maximum queueing delay), finds the smallest number of reserved PDCHs that
// meets both, scanning the arrival-rate range of interest.
//
//   $ ./pdch_dimensioning [max_plp] [max_delay_s] [gprs_percent]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/model.hpp"
#include "traffic/threegpp.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    const double max_plp = argc > 1 ? std::atof(argv[1]) : 1e-2;
    const double max_delay = argc > 2 ? std::atof(argv[2]) : 2.0;
    const double gprs_percent = argc > 3 ? std::atof(argv[3]) : 5.0;

    std::printf("PDCH dimensioning for traffic model 3 (heavy WWW load)\n");
    std::printf("QoS targets: PLP <= %.1e, queueing delay <= %.2f s, %.0f%% GPRS users\n\n",
                max_plp, max_delay, gprs_percent);

    const std::vector<double> rates{0.2, 0.4, 0.6, 0.8, 1.0};
    std::printf("%10s  %14s  %14s  %14s\n", "calls/s", "required PDCH", "PLP @ choice",
                "QD @ choice");

    for (double rate : rates) {
        int chosen = -1;
        core::Measures chosen_measures;
        for (int pdch = 0; pdch <= 8; ++pdch) {
            core::Parameters p =
                core::Parameters::with_traffic_model(traffic::traffic_model_3());
            p.reserved_pdch = pdch;
            p.gprs_fraction = gprs_percent / 100.0;
            p.call_arrival_rate = rate;
            core::GprsModel model(p);
            ctmc::SolveOptions options;
            options.tolerance = 1e-9;
            model.solve(options);
            const core::Measures m = model.measures();
            if (m.packet_loss_probability <= max_plp && m.queueing_delay <= max_delay) {
                chosen = pdch;
                chosen_measures = m;
                break;
            }
        }
        if (chosen >= 0) {
            std::printf("%10.2f  %14d  %14.3e  %12.3f s\n", rate, chosen,
                        chosen_measures.packet_loss_probability,
                        chosen_measures.queueing_delay);
        } else {
            std::printf("%10.2f  %14s  (QoS unreachable with <= 8 reserved PDCHs)\n", rate,
                        "-");
        }
    }

    std::printf("\nNote: the paper reaches the analogous conclusion qualitatively\n");
    std::printf("(Figs. 8-13): reserving PDCHs trades idle channels for QoS; beyond\n");
    std::printf("the load where GSM voice saturates the cell, reservation is the\n");
    std::printf("only way to protect GPRS throughput.\n");
    return 0;
}
