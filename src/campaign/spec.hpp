// Declarative scenario campaigns (the batched front end of the paper's
// evaluation): a ScenarioSpec names a cartesian product of cell
// configurations — traffic model x reserved PDCHs x GPRS fraction x coding
// scheme x session cap — crossed with an arrival-rate grid, and names the
// eval backends each point runs through: any list of names registered in
// eval::BackendRegistry ("erlang", "ctmc", "des", "mm1k-approx", or an
// out-of-tree backend). Specs come from a small JSON-ish text format
// (parse_spec, with line-numbered errors) or from the chainable builder
// methods; CampaignRunner (runner.hpp) expands and executes them.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coding_scheme.hpp"
#include "core/parameters.hpp"
#include "eval/evaluator.hpp"

namespace gprsim::campaign {

/// Spec-level error (parse or validation) with the 1-based line of the
/// offending construct; line() is 0 for programmatically built specs.
class SpecError : public std::invalid_argument {
public:
    /// `annotate` appends " (line N)" to the message; pass false when the
    /// message already carries its position (e.g. a rethrown JsonError).
    SpecError(const std::string& message, int line, bool annotate = true)
        : std::invalid_argument(annotate && line > 0
                                    ? message + " (line " + std::to_string(line) + ")"
                                    : message),
          line_(line) {}

    int line() const { return line_; }

private:
    int line_ = 0;
};

/// Multi-cell network block (the "network-fp" / "network-des" evaluators).
/// `enabled` gates everything: a spec without a "network" block expands to
/// the classic single-cell campaign. The three vectors are variant axes
/// crossed into the cartesian product (innermost, after max_gprs_sessions);
/// `knobs` holds the settings shared by every variant — its lattice shape,
/// speed and reuse fields are filled per variant from the axes.
struct NetworkSpec {
    bool enabled = false;
    /// Cell-count axis; each count n becomes the most-square w x h lattice
    /// with w <= h (largest divisor of n at most sqrt(n)).
    std::vector<int> cell_counts{4};
    std::vector<double> speeds_kmh{3.0};  ///< mobility axis [km/h]
    std::vector<int> reuse_factors{1};    ///< frequency-reuse pattern axis
    eval::NetworkKnobs knobs;
};

/// One resolved cell configuration of the cartesian product. `parameters`
/// is complete except for call_arrival_rate, which the runner sets per grid
/// point.
struct Variant {
    std::string label;  ///< e.g. "tm3 pdch=1 gprs=5% CS-2"
    int traffic_model = 1;      ///< Table 3 preset id; 0 for trace variants
    /// Trace file path when this variant's traffic came from a fitted
    /// arrival trace ("traffic_model": "trace:<file>"); empty for presets.
    std::string traffic_trace;
    int reserved_pdch = 1;
    double gprs_fraction = 0.05;
    core::CodingScheme coding_scheme = core::CodingScheme::cs2;
    int max_gprs_sessions = 0;  ///< 0 = the traffic-model preset's M
    core::Parameters parameters;

    // --- network axes (meaningful only when NetworkSpec::enabled) --------
    int network_cells = 0;  ///< 0 = single-cell campaign (no network block)
    int cells_x = 0;        ///< lattice shape resolved from network_cells
    int cells_y = 0;
    double speed_kmh = 0.0;
    int reuse_factor = 0;
};

struct ScenarioSpec {
    std::string name = "campaign";
    /// Registered backend names each point is evaluated with, in order.
    /// The first backend is the delta reference (runner.hpp); duplicates
    /// are rejected.
    std::vector<std::string> methods{"ctmc"};

    // --- variant axes (cartesian product, outermost first) ---------------
    std::vector<int> traffic_models{1};
    /// Trace-workload extension of the traffic axis: arrival-trace files,
    /// each fitted to an IPP/3GPP model during expand() (traffic/trace.hpp)
    /// and crossed into the product after the integer presets. Spec files
    /// spell these as "traffic_model": "trace:<file>" entries.
    std::vector<std::string> traffic_traces;
    std::vector<int> reserved_pdch{1};
    std::vector<double> gprs_fractions{0.05};
    std::vector<core::CodingScheme> coding_schemes{core::CodingScheme::cs2};
    /// Session-cap axis; 0 keeps the preset M of the traffic model.
    std::vector<int> max_gprs_sessions{0};

    // --- scalar overrides shared by every variant ------------------------
    int total_channels = 20;
    int buffer_capacity = 100;
    double flow_control_threshold = 0.7;
    double block_error_rate = 0.0;

    /// Arrival-rate grid (the x-axis); required, ascending.
    std::vector<double> rates;

    /// Knob blocks shared by every point; each becomes the matching block
    /// of every variant's eval::ScenarioQuery.
    eval::SolverKnobs solver;
    eval::SimulationKnobs simulation;
    eval::ApproxKnobs approx;
    NetworkSpec network;

    // --- chainable builders ----------------------------------------------
    ScenarioSpec& named(std::string value);
    ScenarioSpec& with_methods(std::vector<std::string> values);
    ScenarioSpec& over_traffic_models(std::vector<int> values);
    /// Trace-workload axis: arrival-trace file paths (fitted in expand()).
    ScenarioSpec& over_traffic_traces(std::vector<std::string> values);
    ScenarioSpec& over_reserved_pdch(std::vector<int> values);
    ScenarioSpec& over_gprs_fractions(std::vector<double> values);
    ScenarioSpec& over_coding_schemes(std::vector<core::CodingScheme> values);
    ScenarioSpec& over_session_limits(std::vector<int> values);
    /// Evenly spaced grid [first, last] with count >= 2 points.
    ScenarioSpec& with_rate_grid(double first, double last, int count);
    ScenarioSpec& with_rates(std::vector<double> values);
    ScenarioSpec& with_tolerance(double value);
    /// Multi-cell network block; sets enabled = true.
    ScenarioSpec& with_network(NetworkSpec value);

    /// Number of variants (product of the axis sizes) and grid points.
    std::size_t variant_count() const;
    std::size_t point_count() const { return variant_count() * rates.size(); }

    /// Whether `backend` appears in `methods`.
    bool uses_backend(const std::string& backend) const;

    /// Throws SpecError when the spec is inconsistent (empty axes, empty or
    /// unsorted grid, bad ranges, a method name missing from the global
    /// BackendRegistry). Axis entries are validated individually; the
    /// per-variant Parameters::validate runs during expand().
    void validate() const;

    /// Validates, then materializes the cartesian product in deterministic
    /// order: the traffic axis (integer presets first, then traces, each in
    /// listed order, outermost) > reserved_pdch > gprs_fractions >
    /// coding_schemes > max_gprs_sessions > [network.cell_counts >
    /// network.speeds_kmh > network.reuse_factors] (innermost; network axes
    /// only when the network block is enabled). The runner's point order,
    /// the sinks' row order, and the benches' table indexing all rely on
    /// this order.
    std::vector<Variant> expand() const;
};

/// Parses the JSON-ish spec format. Top-level keys:
///   "name"               string
///   "methods"            registered backend name or array of names,
///                        e.g. ["ctmc", "des", "mm1k-approx"]
///   "traffic_model"      1|2|3 or "trace:<file>" (an arrival trace fitted
///                        to an IPP/3GPP model), or an array mixing both;
///                        presets expand before traces regardless of the
///                        listed order
///   "reserved_pdch"      int or array
///   "gprs_fraction"      number in (0,1) or array
///   "coding_scheme"      "cs1".."cs4" (or "CS-1".."CS-4"), or an array
///   "max_gprs_sessions"  int or array (0 = preset M)
///   "channels"           int        "buffer"   int
///   "eta"                number     "bler"     number
///   "rates"              array of numbers, or {"first","last","count"}
///   "solver"             {"tolerance", "method"}
///   "simulation"         {"replications","seed","warmup","batch_count",
///                         "batch_duration","tcp"}
///   "approx"             {"fp_tolerance","fp_damping","fp_max_iterations",
///                         "ode_rel_tol","ode_abs_tol","ode_max_steps",
///                         "ode_stationary_rate"}
///   "network"            {"cells" int or array, "speeds_kmh" number or
///                         array, "reuse" int or array, "topology","wrap",
///                         "ra_block","reference_speed_kmh","drift",
///                         "inner","tolerance","damping",
///                         "max_outer_iterations"}; presence of the block
///                         enables multi-cell expansion
/// Unknown keys are rejected; the removed spellings "method",
/// "solver.warm_start" and the "both" alias name their replacement. All
/// errors — syntax and semantic alike — are thrown as SpecError carrying
/// the offending 1-based line.
ScenarioSpec parse_spec(const std::string& text);

/// Evenly spaced arrival-rate grid [first, last] with `count` points (the
/// "rates": {"first", "last", "count"} form). Throws std::invalid_argument
/// unless count >= 2 and last >= first.
std::vector<double> arrival_rate_grid(double first, double last, int count);

/// Reads and parses a spec file; throws SpecError when unreadable.
/// Relative "trace:<file>" paths are resolved against the spec file's
/// directory, so campaign specs can ship next to their captures.
ScenarioSpec parse_spec_file(const std::string& path);

}  // namespace gprsim::campaign
