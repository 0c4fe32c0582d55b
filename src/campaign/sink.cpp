#include "campaign/sink.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace gprsim::campaign {

namespace {

/// Shortest decimal that round-trips the exact double (max_digits10).
std::string number_cell(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    return buffer;
}

std::string quoted_cell(const std::string& value) {
    if (value.find_first_of(",\"") == std::string::npos) {
        return value;
    }
    std::string out = "\"";
    for (const char c : value) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

/// JSON string escape for labels/names (the only free-form strings here).
std::string json_string(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default: out += c;
        }
    }
    out += '"';
    return out;
}

const char* const kCsvColumns[] = {
    "scenario", "variant", "label", "traffic_model", "reserved_pdch", "gprs_fraction",
    "coding_scheme", "max_gprs_sessions", "call_arrival_rate", "backend",
    "cdt", "plp", "qd", "atu", "mql", "offered_packet_rate", "data_throughput_kbps",
    "cvt", "ags", "gsm_blocking", "gprs_blocking",
    "iterations", "residual", "warm_parent",
    "cdt_hw", "plp_hw", "qd_hw", "atu_hw", "mql_hw", "cvt_hw", "ags_hw",
    "gsm_blocking_hw", "gprs_blocking_hw", "replications", "events", "rau_rate",
    "delta_cdt", "delta_plp", "delta_qd", "delta_atu",
    "network_cells", "speed_kmh", "reuse_factor",
};

/// Cells of backend b's row of one point, in kCsvColumns order.
std::vector<std::string> row_cells(const CampaignResult& result, const CampaignPoint& point,
                                   std::size_t b) {
    const Variant& variant = result.variants[point.variant];
    const eval::PointEvaluation& evaluation = point.evaluations[b];
    const core::Measures& m = evaluation.measures;
    std::vector<std::string> cells;
    cells.reserve(std::size(kCsvColumns));
    cells.push_back(result.name);
    cells.push_back(std::to_string(point.variant));
    cells.push_back(variant.label);
    cells.push_back(std::to_string(variant.traffic_model));
    cells.push_back(std::to_string(variant.reserved_pdch));
    cells.push_back(number_cell(variant.gprs_fraction));
    cells.push_back(core::coding_scheme_name(variant.coding_scheme));
    cells.push_back(std::to_string(variant.parameters.max_gprs_sessions));
    cells.push_back(number_cell(point.call_arrival_rate));
    cells.push_back(evaluation.backend);
    for (const double value :
         {m.carried_data_traffic, m.packet_loss_probability, m.queueing_delay,
          m.throughput_per_user_kbps, m.mean_queue_length, m.offered_packet_rate,
          m.data_throughput_kbps, m.carried_voice_traffic, m.average_gprs_sessions,
          m.gsm_blocking, m.gprs_blocking}) {
        cells.push_back(number_cell(value));
    }
    const bool iterative = evaluation.iterations > 0;
    cells.push_back(iterative ? std::to_string(evaluation.iterations) : std::string());
    cells.push_back(iterative ? number_cell(evaluation.residual) : std::string());
    cells.push_back(evaluation.warm_parent >= 0 ? std::to_string(evaluation.warm_parent)
                                                : std::string());
    if (evaluation.has_confidence) {
        const sim::ExperimentResults& s = evaluation.sim;
        for (const sim::MetricEstimate* e :
             {&s.carried_data_traffic, &s.packet_loss_probability, &s.queueing_delay,
              &s.throughput_per_user_kbps, &s.mean_queue_length, &s.carried_voice_traffic,
              &s.average_gprs_sessions, &s.gsm_blocking, &s.gprs_blocking}) {
            cells.push_back(number_cell(e->half_width));
        }
        cells.push_back(std::to_string(s.replications.size()));
        cells.push_back(std::to_string(s.events_executed));
    } else {
        cells.insert(cells.end(), 11, std::string());
    }
    cells.push_back(evaluation.cell_measures.empty() ? std::string()
                                                     : number_cell(evaluation.rau_rate));
    const MeasureDeltas& d = point.deltas[b];
    for (const double value : {d.cdt, d.plp, d.qd, d.atu}) {
        cells.push_back(number_cell(value));
    }
    if (variant.network_cells > 0) {
        cells.push_back(std::to_string(variant.network_cells));
        cells.push_back(number_cell(variant.speed_kmh));
        cells.push_back(std::to_string(variant.reuse_factor));
    } else {
        cells.insert(cells.end(), 3, std::string());
    }
    return cells;
}

}  // namespace

void write_campaign_csv(const CampaignResult& result, std::ostream& out) {
    for (std::size_t c = 0; c < std::size(kCsvColumns); ++c) {
        out << (c > 0 ? "," : "") << kCsvColumns[c];
    }
    out << '\n';
    for (const CampaignPoint& point : result.points) {
        for (std::size_t b = 0; b < point.evaluations.size(); ++b) {
            const std::vector<std::string> cells = row_cells(result, point, b);
            for (std::size_t c = 0; c < cells.size(); ++c) {
                out << (c > 0 ? "," : "") << quoted_cell(cells[c]);
            }
            out << '\n';
        }
    }
}

bool write_campaign_csv(const CampaignResult& result, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
        return false;
    }
    write_campaign_csv(result, out);
    return static_cast<bool>(out);
}

void write_campaign_json(const CampaignResult& result, std::ostream& out) {
    const CampaignSummary& s = result.summary;
    out << "{\n  \"name\": " << json_string(result.name) << ",\n  \"methods\": [";
    for (std::size_t m = 0; m < result.methods.size(); ++m) {
        out << (m > 0 ? ", " : "") << json_string(result.methods[m]);
    }
    out << "],\n  \"summary\": {\"variants\": " << s.variants
        << ", \"points\": " << s.points << ", \"backends\": [";
    for (std::size_t b = 0; b < s.backends.size(); ++b) {
        const BackendTotals& t = s.backends[b];
        out << (b > 0 ? ", " : "") << "{\"backend\": " << json_string(t.backend)
            << ", \"points\": " << t.points << ", \"iterations\": " << t.iterations
            << ", \"replications\": " << t.replications << ", \"events\": " << t.events
            << ", \"warm_offered\": " << t.warm_offered
            << ", \"warm_won\": " << t.warm_won << "}";
    }
    out << "], \"batch_tasks\": " << s.batch_tasks << ", \"batch_waves\": " << s.batch_waves
        << ", \"wall_seconds\": " << number_cell(s.wall_seconds)
        << ", \"threads\": " << s.threads << "},\n"
        << "  \"rows\": [";
    bool first_row = true;
    for (const CampaignPoint& point : result.points) {
        for (std::size_t b = 0; b < point.evaluations.size(); ++b) {
            const std::vector<std::string> cells = row_cells(result, point, b);
            out << (first_row ? "\n" : ",\n") << "    {";
            first_row = false;
            bool first = true;
            for (std::size_t c = 0; c < cells.size(); ++c) {
                if (cells[c].empty()) {
                    continue;  // omit cells the backend did not produce
                }
                // Numeric columns are emitted bare; the four string columns
                // are quoted.
                const std::string name = kCsvColumns[c];
                const bool is_string = name == "scenario" || name == "label" ||
                                       name == "coding_scheme" || name == "backend";
                out << (first ? "" : ", ") << '"' << name << "\": "
                    << (is_string ? json_string(cells[c]) : cells[c]);
                first = false;
            }
            const std::vector<core::Measures>& per_cell = point.evaluations[b].cell_measures;
            if (!per_cell.empty()) {
                // Per-cell detail (the CSV keeps only the network
                // aggregate): the four paper measures per cell.
                out << ", \"cells\": [";
                for (std::size_t c = 0; c < per_cell.size(); ++c) {
                    const core::Measures& m = per_cell[c];
                    out << (c > 0 ? ", " : "") << "{\"cdt\": "
                        << number_cell(m.carried_data_traffic)
                        << ", \"plp\": " << number_cell(m.packet_loss_probability)
                        << ", \"qd\": " << number_cell(m.queueing_delay)
                        << ", \"atu\": " << number_cell(m.throughput_per_user_kbps)
                        << "}";
                }
                out << "]";
            }
            out << "}";
        }
    }
    out << "\n  ]\n}\n";
}

bool write_campaign_json(const CampaignResult& result, const std::string& path) {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "campaign: cannot write %s\n", path.c_str());
        return false;
    }
    write_campaign_json(result, out);
    return static_cast<bool>(out);
}

std::size_t CsvTable::column(const std::string& name) const {
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (columns[c] == name) {
            return c;
        }
    }
    throw std::out_of_range("CsvTable: no column named " + name);
}

const std::string& CsvTable::cell(std::size_t row, const std::string& name) const {
    return rows.at(row).at(column(name));
}

CsvTable read_csv(std::istream& in) {
    CsvTable table;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        std::vector<std::string> cells;
        std::string cell;
        bool quoted = false;
        for (std::size_t i = 0; i < line.size(); ++i) {
            const char c = line[i];
            if (quoted) {
                if (c == '"') {
                    if (i + 1 < line.size() && line[i + 1] == '"') {
                        cell += '"';
                        ++i;
                    } else {
                        quoted = false;
                    }
                } else {
                    cell += c;
                }
            } else if (c == '"') {
                quoted = true;
            } else if (c == ',') {
                cells.push_back(std::move(cell));
                cell.clear();
            } else {
                cell += c;
            }
        }
        cells.push_back(std::move(cell));
        if (table.columns.empty()) {
            table.columns = std::move(cells);
        } else {
            if (cells.size() != table.columns.size()) {
                throw std::runtime_error("read_csv: row " +
                                         std::to_string(table.rows.size() + 1) + " has " +
                                         std::to_string(cells.size()) + " cells, expected " +
                                         std::to_string(table.columns.size()));
            }
            table.rows.push_back(std::move(cells));
        }
    }
    return table;
}

void print_campaign_summary(const CampaignResult& result, std::FILE* out) {
    const CampaignSummary& s = result.summary;
    std::string methods;
    for (const std::string& method : result.methods) {
        methods += methods.empty() ? "" : "+";
        methods += method;
    }
    std::fprintf(out, "\ncampaign '%s' (%s): %zu variants x %zu rates = %zu points\n",
                 result.name.c_str(), methods.c_str(), s.variants, result.rates.size(),
                 s.points);
    for (const BackendTotals& t : s.backends) {
        std::fprintf(out, "  %s: %zu points", t.backend.c_str(), t.points);
        if (t.iterations > 0) {
            std::fprintf(out, ", %lld iterations", t.iterations);
        }
        if (t.replications > 0) {
            std::fprintf(out, ", %lld replications (%.2e events)", t.replications,
                         static_cast<double>(t.events));
        }
        if (t.warm_offered > 0) {
            std::fprintf(out, ", %zu of %zu offered warm-start transfers won", t.warm_won,
                         t.warm_offered);
        }
        std::fprintf(out, "\n");
    }
    if (s.batch_waves > 0) {
        std::fprintf(out, "  task set: %zu tasks in %zu merged wave%s", s.batch_tasks,
                     s.batch_waves, s.batch_waves == 1 ? "" : "s");
        if (s.batch_helped_groups > 0) {
            std::fprintf(out, ", %zu sweep groups run by helper seats",
                         s.batch_helped_groups);
        }
        std::fprintf(out, "\n");
    }
    std::fprintf(out, "  wall %.2f s on %d thread%s\n", s.wall_seconds, s.threads,
                 s.threads == 1 ? "" : "s");
}

}  // namespace gprsim::campaign
