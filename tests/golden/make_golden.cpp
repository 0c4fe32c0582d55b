// Writes the golden records (golden.hpp layout) of every campaign in
// golden::campaigns() into <out_dir>/<name>.csv. Run it from a build of
// the code whose numbers the records should pin:
//
//   ./build/tests/gprsim_make_golden tests/golden
//
// The records are a regression fence, not a reference to regenerate
// freely: golden_test.cpp compares every later build against them.
#include <cstdio>
#include <string>

#include "campaign/runner.hpp"
#include "golden.hpp"

int main(int argc, char** argv) {
    using namespace gprsim;
    if (argc != 2) {
        std::fprintf(stderr, "usage: gprsim_make_golden <out_dir>\n");
        return 1;
    }
    for (const std::string& name : golden::campaigns()) {
        const campaign::ScenarioSpec spec = campaign::parse_spec_file(
            std::string(GPRSIM_SOURCE_DIR) + "/campaigns/" + name + ".json");
        campaign::CampaignOptions options;
        options.num_threads = 4;
        const campaign::CampaignResult result = campaign::run_campaign(spec, options);

        const std::string path = std::string(argv[1]) + "/" + name + ".csv";
        std::FILE* out = std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(out, "variant,call_arrival_rate,backend");
        for (const auto& [column, value] : golden::measure_fields({})) {
            std::fprintf(out, ",%s", column.c_str());
        }
        for (const auto& [column, value] : golden::half_width_fields({})) {
            std::fprintf(out, ",%s", column.c_str());
        }
        std::fprintf(out, "\n");
        for (const campaign::CampaignPoint& point : result.points) {
            for (const eval::PointEvaluation& evaluation : point.evaluations) {
                std::fprintf(out, "%zu,%.17g,%s", point.variant, point.call_arrival_rate,
                             evaluation.backend.c_str());
                for (const auto& [column, value] :
                     golden::measure_fields(evaluation.measures)) {
                    std::fprintf(out, ",%.17g", value);
                }
                for (const auto& [column, value] :
                     golden::half_width_fields(evaluation.sim)) {
                    if (evaluation.has_confidence) {
                        std::fprintf(out, ",%.17g", value);
                    } else {
                        std::fprintf(out, ",");
                    }
                }
                std::fprintf(out, "\n");
            }
        }
        std::fclose(out);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}
