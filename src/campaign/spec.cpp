#include "campaign/spec.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/json.hpp"
#include "eval/registry.hpp"
#include "traffic/threegpp.hpp"
#include "traffic/trace.hpp"

namespace gprsim::campaign {

namespace {

traffic::TrafficModelPreset preset_for_model(int model_id, int line) {
    switch (model_id) {
        case 1: return traffic::traffic_model_1();
        case 2: return traffic::traffic_model_2();
        case 3: return traffic::traffic_model_3();
        default:
            throw SpecError("traffic_model must be 1, 2 or 3, got " +
                                std::to_string(model_id),
                            line);
    }
}

int require_int(const JsonValue& value, const std::string& key) {
    const double number = value.as_number();
    if (number != std::floor(number) || number < static_cast<double>(INT_MIN) ||
        number > static_cast<double>(INT_MAX)) {
        throw SpecError("\"" + key + "\" must be an integer", value.line());
    }
    return static_cast<int>(number);
}

/// Seeds are uint64-valued; doubles represent integers exactly up to 2^53,
/// which is the precision the JSON number syntax can deliver anyway.
std::uint64_t require_seed(const JsonValue& value, const std::string& key) {
    const double number = value.as_number();
    if (number != std::floor(number) || number < 0.0 || number > 9.007199254740992e15) {
        throw SpecError("\"" + key + "\" must be a non-negative integer <= 2^53",
                        value.line());
    }
    return static_cast<std::uint64_t>(number);
}

/// Scalar-or-array convention of the axis keys: 2 and [2, 4] are both valid.
std::vector<double> number_axis(const JsonValue& value, const std::string& key) {
    std::vector<double> out;
    if (value.is_array()) {
        if (value.items().empty()) {
            throw SpecError("\"" + key + "\" must not be an empty array", value.line());
        }
        for (const JsonValue& item : value.items()) {
            out.push_back(item.as_number());
        }
    } else {
        out.push_back(value.as_number());
    }
    return out;
}

std::vector<int> int_axis(const JsonValue& value, const std::string& key) {
    std::vector<int> out;
    if (value.is_array()) {
        if (value.items().empty()) {
            throw SpecError("\"" + key + "\" must not be an empty array", value.line());
        }
        for (const JsonValue& item : value.items()) {
            out.push_back(require_int(item, key));
        }
    } else {
        out.push_back(require_int(value, key));
    }
    return out;
}

core::CodingScheme parse_scheme(const JsonValue& value) {
    const std::string& name = value.as_string();
    for (const auto& [scheme, spellings] :
         {std::pair{core::CodingScheme::cs1, std::pair{"cs1", "CS-1"}},
          std::pair{core::CodingScheme::cs2, std::pair{"cs2", "CS-2"}},
          std::pair{core::CodingScheme::cs3, std::pair{"cs3", "CS-3"}},
          std::pair{core::CodingScheme::cs4, std::pair{"cs4", "CS-4"}}}) {
        if (name == spellings.first || name == spellings.second) {
            return scheme;
        }
    }
    throw SpecError("unknown coding scheme \"" + name + "\" (use \"cs1\"..\"cs4\")",
                    value.line());
}

/// Throws the line-carrying SpecError for names missing from the registry
/// or duplicated in the list.
void check_method_names(const std::vector<std::string>& methods, int line) {
    for (std::size_t i = 0; i < methods.size(); ++i) {
        const std::string& name = methods[i];
        if (name == "both") {
            throw SpecError(
                "the \"both\" alias was removed: list the backends, \"methods\": "
                "[\"ctmc\", \"des\"]",
                line);
        }
        if (!eval::BackendRegistry::global().contains(name)) {
            std::string known;
            for (const eval::BackendInfo& info : eval::BackendRegistry::global().list()) {
                known += known.empty() ? "" : ", ";
                known += "\"" + info.name + "\"";
            }
            throw SpecError("unknown method \"" + name + "\" (registered backends: " +
                                known + ")",
                            line);
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (methods[j] == name) {
                throw SpecError("method \"" + name + "\" listed twice", line);
            }
        }
    }
}

std::vector<std::string> parse_methods(const JsonValue& value) {
    std::vector<std::string> methods;
    if (value.is_array()) {
        if (value.items().empty()) {
            throw SpecError("\"methods\" must not be an empty array", value.line());
        }
        for (const JsonValue& item : value.items()) {
            methods.push_back(item.as_string());
        }
    } else {
        methods.push_back(value.as_string());
    }
    check_method_names(methods, value.line());
    return methods;
}

/// The traffic axis accepts integers (Table 3 presets), "trace:<file>"
/// strings (arrival traces fitted during expand()), or an array mixing
/// both. Fills the spec's two traffic vectors; any string without the
/// "trace:" prefix is rejected with the key's line.
void parse_traffic_axis(const JsonValue& value, ScenarioSpec& spec) {
    spec.traffic_models.clear();
    spec.traffic_traces.clear();
    const auto add_entry = [&spec](const JsonValue& item) {
        if (item.is_string()) {
            const std::string& text = item.as_string();
            if (text.rfind("trace:", 0) != 0 || text.size() <= 6) {
                throw SpecError(
                    "\"traffic_model\" strings must be \"trace:<file>\", got \"" + text +
                        "\"",
                    item.line());
            }
            spec.traffic_traces.push_back(text.substr(6));
        } else {
            spec.traffic_models.push_back(require_int(item, "traffic_model"));
        }
    };
    if (value.is_array()) {
        if (value.items().empty()) {
            throw SpecError("\"traffic_model\" must not be an empty array", value.line());
        }
        for (const JsonValue& item : value.items()) {
            add_entry(item);
        }
    } else {
        add_entry(value);
    }
}

std::vector<double> parse_rates(const JsonValue& value) {
    if (value.is_array()) {
        return number_axis(value, "rates");
    }
    if (!value.is_object()) {
        throw SpecError("\"rates\" must be an array or {\"first\",\"last\",\"count\"}",
                        value.line());
    }
    double first = 0.0;
    double last = 0.0;
    int count = 0;
    for (const JsonValue::Member& member : value.members()) {
        const auto& [key, v] = member;
        if (key == "first") {
            first = v.as_number();
        } else if (key == "last") {
            last = v.as_number();
        } else if (key == "count") {
            count = require_int(v, key);
        } else {
            throw SpecError("unknown \"rates\" key \"" + key + "\"", v.line());
        }
    }
    try {
        return arrival_rate_grid(first, last, count);
    } catch (const std::invalid_argument&) {
        throw SpecError("\"rates\" needs count >= 2 and last >= first", value.line());
    }
}

eval::SolverKnobs parse_solver(const JsonValue& value) {
    eval::SolverKnobs solver;
    for (const JsonValue::Member& member : value.members()) {
        const auto& [key, v] = member;
        if (key == "tolerance") {
            solver.tolerance = v.as_number();
        } else if (key == "warm_start") {
            throw SpecError(
                "\"solver.warm_start\" was removed: ctmc grids always use the bisection "
                "warm-start schedule; delete the key",
                v.line());
        } else if (key == "method") {
            solver.method = v.as_string();
        } else {
            throw SpecError("unknown \"solver\" key \"" + key + "\"", v.line());
        }
    }
    return solver;
}

eval::SimulationKnobs parse_simulation(const JsonValue& value) {
    eval::SimulationKnobs simulation;
    for (const JsonValue::Member& member : value.members()) {
        const auto& [key, v] = member;
        if (key == "replications") {
            simulation.replications = require_int(v, key);
        } else if (key == "seed") {
            simulation.seed = require_seed(v, key);
        } else if (key == "warmup") {
            simulation.warmup_time = v.as_number();
        } else if (key == "batch_count") {
            simulation.batch_count = require_int(v, key);
        } else if (key == "batch_duration") {
            simulation.batch_duration = v.as_number();
        } else if (key == "tcp") {
            simulation.tcp = v.as_bool();
        } else {
            throw SpecError("unknown \"simulation\" key \"" + key + "\"", v.line());
        }
    }
    return simulation;
}

NetworkSpec parse_network(const JsonValue& value) {
    NetworkSpec network;
    network.enabled = true;
    for (const JsonValue::Member& member : value.members()) {
        const auto& [key, v] = member;
        if (key == "cells") {
            network.cell_counts = int_axis(v, key);
        } else if (key == "speeds_kmh") {
            network.speeds_kmh = number_axis(v, key);
        } else if (key == "reuse") {
            network.reuse_factors = int_axis(v, key);
        } else if (key == "topology") {
            network.knobs.topology = v.as_string();
        } else if (key == "wrap") {
            network.knobs.wrap = v.as_bool();
        } else if (key == "ra_block") {
            network.knobs.ra_block = require_int(v, key);
        } else if (key == "reference_speed_kmh") {
            network.knobs.reference_speed_kmh = v.as_number();
        } else if (key == "drift") {
            network.knobs.drift = v.as_number();
        } else if (key == "inner") {
            network.knobs.inner_backend = v.as_string();
        } else if (key == "tolerance") {
            network.knobs.outer_tolerance = v.as_number();
        } else if (key == "damping") {
            network.knobs.outer_damping = v.as_number();
        } else if (key == "max_outer_iterations") {
            network.knobs.outer_max_iterations = require_int(v, key);
        } else {
            throw SpecError("unknown \"network\" key \"" + key + "\"", v.line());
        }
    }
    return network;
}

/// Most-square factorization of a cell count: the largest divisor at most
/// sqrt(n) becomes the width (so width <= height); primes fall back to the
/// 1 x n strip. Keeps the "cells" axis a single number in specs.
std::pair<int, int> lattice_shape(int cells) {
    int width = 1;
    for (int d = 1; d * d <= cells; ++d) {
        if (cells % d == 0) {
            width = d;
        }
    }
    return {width, cells / width};
}

eval::ApproxKnobs parse_approx(const JsonValue& value) {
    eval::ApproxKnobs approx;
    for (const JsonValue::Member& member : value.members()) {
        const auto& [key, v] = member;
        if (key == "fp_tolerance") {
            approx.fp_tolerance = v.as_number();
        } else if (key == "fp_damping") {
            approx.fp_damping = v.as_number();
        } else if (key == "fp_max_iterations") {
            approx.fp_max_iterations = require_int(v, key);
        } else if (key == "ode_rel_tol") {
            approx.ode_rel_tol = v.as_number();
        } else if (key == "ode_abs_tol") {
            approx.ode_abs_tol = v.as_number();
        } else if (key == "ode_max_steps") {
            approx.ode_max_steps = require_int(v, key);
        } else if (key == "ode_stationary_rate") {
            approx.ode_stationary_rate = v.as_number();
        } else {
            throw SpecError("unknown \"approx\" key \"" + key + "\"", v.line());
        }
    }
    return approx;
}

}  // namespace

ScenarioSpec& ScenarioSpec::named(std::string value) {
    name = std::move(value);
    return *this;
}

ScenarioSpec& ScenarioSpec::with_methods(std::vector<std::string> values) {
    methods = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_traffic_models(std::vector<int> values) {
    traffic_models = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_traffic_traces(std::vector<std::string> values) {
    traffic_traces = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_reserved_pdch(std::vector<int> values) {
    reserved_pdch = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_gprs_fractions(std::vector<double> values) {
    gprs_fractions = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_coding_schemes(std::vector<core::CodingScheme> values) {
    coding_schemes = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::over_session_limits(std::vector<int> values) {
    max_gprs_sessions = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::with_rate_grid(double first, double last, int count) {
    try {
        rates = arrival_rate_grid(first, last, count);
    } catch (const std::invalid_argument&) {
        throw SpecError("with_rate_grid: need count >= 2 and last >= first", 0);
    }
    return *this;
}

ScenarioSpec& ScenarioSpec::with_rates(std::vector<double> values) {
    rates = std::move(values);
    return *this;
}

ScenarioSpec& ScenarioSpec::with_tolerance(double value) {
    solver.tolerance = value;
    return *this;
}

ScenarioSpec& ScenarioSpec::with_network(NetworkSpec value) {
    network = std::move(value);
    network.enabled = true;
    return *this;
}

std::size_t ScenarioSpec::variant_count() const {
    const std::size_t network_axes =
        network.enabled ? network.cell_counts.size() * network.speeds_kmh.size() *
                              network.reuse_factors.size()
                        : 1;
    return (traffic_models.size() + traffic_traces.size()) * reserved_pdch.size() *
           gprs_fractions.size() * coding_schemes.size() * max_gprs_sessions.size() *
           network_axes;
}

bool ScenarioSpec::uses_backend(const std::string& backend) const {
    return std::find(methods.begin(), methods.end(), backend) != methods.end();
}

void ScenarioSpec::validate() const {
    if (name.empty()) {
        throw SpecError("campaign needs a non-empty name", 0);
    }
    if (methods.empty()) {
        throw SpecError("campaign needs at least one method (a registered backend name)",
                        0);
    }
    check_method_names(methods, 0);
    for (const char c : name) {
        // The name is the only user-controlled string reaching the CSV/JSON
        // sinks; control characters would corrupt their row/escape framing.
        if (static_cast<unsigned char>(c) < 0x20) {
            throw SpecError("campaign name must not contain control characters", 0);
        }
    }
    if ((traffic_models.empty() && traffic_traces.empty()) || reserved_pdch.empty() ||
        gprs_fractions.empty() || coding_schemes.empty() || max_gprs_sessions.empty()) {
        throw SpecError("every variant axis needs at least one value", 0);
    }
    for (const int model_id : traffic_models) {
        preset_for_model(model_id, 0);  // throws on an unknown id
    }
    for (std::size_t i = 0; i < traffic_traces.size(); ++i) {
        if (traffic_traces[i].empty()) {
            throw SpecError("traffic trace path must not be empty", 0);
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (traffic_traces[j] == traffic_traces[i]) {
                throw SpecError("traffic trace \"" + traffic_traces[i] + "\" listed twice",
                                0);
            }
        }
    }
    for (const double fraction : gprs_fractions) {
        if (fraction <= 0.0 || fraction >= 1.0) {
            throw SpecError("gprs_fraction must be in (0, 1), got " +
                                std::to_string(fraction),
                            0);
        }
    }
    if (rates.empty()) {
        throw SpecError("campaign needs a non-empty arrival-rate grid", 0);
    }
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (rates[i] <= 0.0) {
            throw SpecError("arrival rates must be positive", 0);
        }
        if (i > 0 && rates[i] <= rates[i - 1]) {
            throw SpecError("arrival rates must be strictly ascending", 0);
        }
    }
    if (solver.tolerance <= 0.0) {
        throw SpecError("solver tolerance must be positive", 0);
    }
    if (const std::string reason = approx.invalid_reason(); !reason.empty()) {
        throw SpecError(reason, 0);
    }
    if (network.enabled) {
        if (network.cell_counts.empty() || network.speeds_kmh.empty() ||
            network.reuse_factors.empty()) {
            throw SpecError("every network axis needs at least one value", 0);
        }
        for (const int cells : network.cell_counts) {
            if (cells < 1) {
                throw SpecError("network cells must be at least 1", 0);
            }
        }
        for (const double speed : network.speeds_kmh) {
            if (speed <= 0.0) {
                throw SpecError("network speeds_kmh must be positive", 0);
            }
        }
        for (const int reuse : network.reuse_factors) {
            if (reuse < 1) {
                throw SpecError("network reuse factors must be at least 1", 0);
            }
        }
        if (const std::string reason = network.knobs.invalid_reason(); !reason.empty()) {
            throw SpecError(reason, 0);
        }
        check_method_names({network.knobs.inner_backend}, 0);
    }
    if (uses_backend("des")) {
        if (const std::string reason = simulation.invalid_reason(); !reason.empty()) {
            throw SpecError(reason, 0);
        }
    }
}

std::vector<Variant> ScenarioSpec::expand() const {
    validate();
    // Unified traffic axis: the Table 3 presets, then each trace file
    // fitted once per expand() (traffic/trace.hpp). A fit failure —
    // unreadable file, degenerate trace — is a SpecError naming the path.
    struct TrafficEntry {
        int model_id = 0;  ///< 0 for trace entries
        std::string trace;
        traffic::TrafficModelPreset preset;
    };
    std::vector<TrafficEntry> traffic_axis;
    traffic_axis.reserve(traffic_models.size() + traffic_traces.size());
    for (const int model_id : traffic_models) {
        traffic_axis.push_back({model_id, {}, preset_for_model(model_id, 0)});
    }
    for (const std::string& path : traffic_traces) {
        auto fitted = traffic::fit_trace_file(path);
        if (!fitted.ok()) {
            throw SpecError("traffic trace \"" + path + "\": " + fitted.error().message,
                            0);
        }
        traffic_axis.push_back({0, path, std::move(fitted.value().preset)});
    }
    std::vector<Variant> variants;
    variants.reserve(variant_count());
    for (const TrafficEntry& entry : traffic_axis) {
        const int model_id = entry.model_id;
        const traffic::TrafficModelPreset& preset = entry.preset;
        for (const int pdch : reserved_pdch) {
            for (const double fraction : gprs_fractions) {
                for (const core::CodingScheme scheme : coding_schemes) {
                    for (const int sessions : max_gprs_sessions) {
                        Variant variant;
                        variant.traffic_model = model_id;
                        variant.traffic_trace = entry.trace;
                        variant.reserved_pdch = pdch;
                        variant.gprs_fraction = fraction;
                        variant.coding_scheme = scheme;
                        variant.max_gprs_sessions = sessions;

                        core::Parameters p = core::Parameters::with_traffic_model(preset);
                        p.reserved_pdch = pdch;
                        p.gprs_fraction = fraction;
                        p.total_channels = total_channels;
                        p.buffer_capacity = buffer_capacity;
                        p.flow_control_threshold = flow_control_threshold;
                        p.block_error_rate = block_error_rate;
                        p = core::with_coding_scheme(std::move(p), scheme);
                        if (sessions > 0) {
                            p.max_gprs_sessions = sessions;
                        }
                        p.call_arrival_rate = rates.front();
                        p.validate();  // std::invalid_argument names the field
                        variant.parameters = p;

                        char label[160];
                        if (entry.trace.empty()) {
                            std::snprintf(label, sizeof(label),
                                          "tm%d pdch=%d gprs=%g%% %s M=%d", model_id,
                                          pdch, 100.0 * fraction,
                                          core::coding_scheme_name(scheme),
                                          p.max_gprs_sessions);
                        } else {
                            // Trace variants label by the fitted preset's name
                            // ("trace:<basename>") in place of the tm id.
                            std::snprintf(label, sizeof(label),
                                          "%s pdch=%d gprs=%g%% %s M=%d",
                                          preset.name.c_str(), pdch, 100.0 * fraction,
                                          core::coding_scheme_name(scheme),
                                          p.max_gprs_sessions);
                        }
                        variant.label = label;
                        if (!network.enabled) {
                            variants.push_back(std::move(variant));
                            continue;
                        }
                        // Network axes, innermost: cells > speed > reuse.
                        for (const int cells : network.cell_counts) {
                            for (const double speed : network.speeds_kmh) {
                                for (const int reuse : network.reuse_factors) {
                                    Variant cell_variant = variant;
                                    cell_variant.network_cells = cells;
                                    const auto [nx, ny] = lattice_shape(cells);
                                    cell_variant.cells_x = nx;
                                    cell_variant.cells_y = ny;
                                    cell_variant.speed_kmh = speed;
                                    cell_variant.reuse_factor = reuse;
                                    char suffix[64];
                                    std::snprintf(suffix, sizeof(suffix),
                                                  " cells=%d v=%gkm/h reuse=%d", cells,
                                                  speed, reuse);
                                    cell_variant.label += suffix;
                                    variants.push_back(std::move(cell_variant));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return variants;
}

namespace {

ScenarioSpec interpret_spec(const JsonValue& root) {
    if (!root.is_object()) {
        throw SpecError("campaign spec must be a JSON object", root.line());
    }

    ScenarioSpec spec;
    bool have_rates = false;
    for (const JsonValue::Member& member : root.members()) {
        const auto& [key, value] = member;
        if (key == "name") {
            spec.name = value.as_string();
        } else if (key == "methods") {
            spec.methods = parse_methods(value);
        } else if (key == "method") {
            throw SpecError(
                "\"method\" was replaced by \"methods\", a list of backend names, "
                "e.g. \"methods\": [\"ctmc\", \"des\"]",
                value.line());
        } else if (key == "traffic_model") {
            parse_traffic_axis(value, spec);
        } else if (key == "reserved_pdch") {
            spec.reserved_pdch = int_axis(value, key);
        } else if (key == "gprs_fraction") {
            spec.gprs_fractions = number_axis(value, key);
        } else if (key == "coding_scheme") {
            spec.coding_schemes.clear();
            if (value.is_array()) {
                for (const JsonValue& item : value.items()) {
                    spec.coding_schemes.push_back(parse_scheme(item));
                }
                if (spec.coding_schemes.empty()) {
                    throw SpecError("\"coding_scheme\" must not be an empty array",
                                    value.line());
                }
            } else {
                spec.coding_schemes.push_back(parse_scheme(value));
            }
        } else if (key == "max_gprs_sessions") {
            spec.max_gprs_sessions = int_axis(value, key);
        } else if (key == "channels") {
            spec.total_channels = require_int(value, key);
        } else if (key == "buffer") {
            spec.buffer_capacity = require_int(value, key);
        } else if (key == "eta") {
            spec.flow_control_threshold = value.as_number();
        } else if (key == "bler") {
            spec.block_error_rate = value.as_number();
        } else if (key == "rates") {
            spec.rates = parse_rates(value);
            have_rates = true;
        } else if (key == "solver") {
            spec.solver = parse_solver(value);
        } else if (key == "simulation") {
            spec.simulation = parse_simulation(value);
        } else if (key == "approx") {
            spec.approx = parse_approx(value);
        } else if (key == "network") {
            spec.network = parse_network(value);
        } else {
            throw SpecError("unknown campaign key \"" + key + "\"", value.line());
        }
    }
    if (!have_rates) {
        throw SpecError("campaign spec needs a \"rates\" key", root.line());
    }
    spec.validate();
    return spec;
}

}  // namespace

std::vector<double> arrival_rate_grid(double first, double last, int count) {
    if (count < 2 || last < first) {
        throw std::invalid_argument("arrival_rate_grid: need count >= 2 and last >= first");
    }
    std::vector<double> grid(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        grid[static_cast<std::size_t>(i)] =
            first + (last - first) * static_cast<double>(i) / static_cast<double>(count - 1);
    }
    return grid;
}

ScenarioSpec parse_spec(const std::string& text) {
    // Both parse failures and typed-accessor mismatches during
    // interpretation surface as JsonError; re-throw every one as SpecError
    // so callers have a single line-carrying exception type.
    try {
        return interpret_spec(parse_json(text));
    } catch (const JsonError& e) {
        throw SpecError(e.what(), e.line(), /*annotate=*/false);
    }
}

ScenarioSpec parse_spec_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw SpecError("cannot read campaign spec file: " + path, 0);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ScenarioSpec spec = parse_spec(buffer.str());
    // Relative trace paths resolve against the spec file's directory, so a
    // campaign and its captures travel together.
    const auto slash = path.find_last_of('/');
    if (slash != std::string::npos) {
        const std::string dir = path.substr(0, slash + 1);
        for (std::string& trace : spec.traffic_traces) {
            if (!trace.empty() && trace.front() != '/') {
                trace = dir + trace;
            }
        }
    }
    return spec;
}

}  // namespace gprsim::campaign
