// Result sinks for campaign runs: a flat CSV table (one row per point,
// doubles at full round-trip precision), a JSON document (points +
// summary), and the human-readable summary block every campaign consumer
// prints. A small CSV reader ships alongside the writer so downstream
// tooling — and the round-trip tests — can consume the files without a
// spreadsheet dependency.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace gprsim::campaign {

/// Writes one row per (variant, rate, backend) — points in variant-major,
/// rate-minor order, backends in CampaignResult::methods order — under one
/// fixed header that depends on nothing in the result:
///
///   scenario, variant, label, traffic_model, reserved_pdch, gprs_fraction,
///   coding_scheme, max_gprs_sessions, call_arrival_rate, backend,
///   cdt, plp, qd, atu, mql, offered_packet_rate, data_throughput_kbps,
///   cvt, ags, gsm_blocking, gprs_blocking,                 (core::Measures)
///   iterations, residual, warm_parent,
///   cdt_hw, plp_hw, qd_hw, atu_hw, mql_hw, cvt_hw, ags_hw, gsm_blocking_hw,
///   gprs_blocking_hw, replications, events, rau_rate,      (provenance)
///   delta_cdt, delta_plp, delta_qd, delta_atu,    (methods.front() - row)
///   network_cells, speed_kmh, reuse_factor        (network axes)
///
/// Provenance cells are empty where the backend has none: iterations and
/// residual without an iterative solve, warm_parent for a cold start, the
/// 95% half-widths, replications and events without a simulator, rau_rate
/// without a cell lattice; the network axes are empty for single-cell
/// campaigns. No timing, thread-count or free-text column appears, so the
/// bytes are a pure function of the spec. Doubles are printed with
/// max_digits10 precision, so reading a cell back with strtod reproduces
/// the exact bits.
void write_campaign_csv(const CampaignResult& result, std::ostream& out);

/// Writes to a file; returns false (with a message on stderr) on I/O error.
bool write_campaign_csv(const CampaignResult& result, const std::string& path);

/// JSON mirror of the CSV: {"name", "methods": [...], "summary": {...},
/// "rows": [...]} with one object per CSV row (empty cells omitted, network
/// rows adding their per-cell "cells" detail) and the summary's
/// per-backend totals.
void write_campaign_json(const CampaignResult& result, std::ostream& out);
bool write_campaign_json(const CampaignResult& result, const std::string& path);

/// Parsed CSV: a header plus rows of raw cells (no type coercion).
struct CsvTable {
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;

    /// Index of a named column; throws std::out_of_range when absent.
    std::size_t column(const std::string& name) const;
    /// Cell by (row, column name); empty cells return "".
    const std::string& cell(std::size_t row, const std::string& name) const;
};

/// Reads a CSV document produced by write_campaign_csv (quoted cells with
/// embedded commas/quotes are handled; newlines inside cells are not).
/// Throws std::runtime_error on ragged rows.
CsvTable read_csv(std::istream& in);

/// The campaign summary block: one line of totals per backend (points,
/// iterations, replications and events, ctmc's warm-start transfers won
/// and offered), the merged task set, wall clock, threads.
void print_campaign_summary(const CampaignResult& result, std::FILE* out);

}  // namespace gprsim::campaign
