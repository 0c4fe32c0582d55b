"""Per-layer metrics derived from a native trace (perfbench traced/replay).

Every function returns a dict of metric name -> value for the layers its
spans cover. A layer that did no work in the traced run reports zero work:
zero counts and zero time.
"""

import math

import spans as sp

LAYERS = ("campaign", "eval", "ctmc", "core", "sim", "network", "queueing", "service")


def _ms(seconds):
    return seconds * 1e3


def _named(spans, name):
    return [s for s in spans if s.name == name]


def campaign_metrics(spans):
    """campaign.*: parse, expand, assemble and sink times (summed over the
    traced campaigns), and the CSV size."""
    return {
        "campaign.parse_ms": _ms(sum(s.duration for s in _named(spans, "parse_spec_file"))),
        "campaign.expand_ms": _ms(sum(s.duration
                                      for s in _named(spans, "build_campaign_workload"))),
        "campaign.assemble_ms": _ms(sum(s.duration for s in _named(spans, "assemble_campaign"))),
        "campaign.sink_ms": _ms(sum(s.duration for s in _named(spans, "write_campaign_csv"))),
        "campaign.csv_bytes": float(sum(s.args.get("csv_bytes", 0)
                                        for s in _named(spans, "write_campaign_csv"))),
    }


def tasks_of(spans, backends=None):
    """Task spans (one per BatchTask::run), optionally of given backends."""
    return [s for s in spans if s.name.startswith("task:")
            and (backends is None or s.name[5:] in backends)]


def eval_metrics(spans):
    """eval.*: planning, the merged task set's shape, task time spread, the
    critical path, pool utilisation and collect time."""
    executes = _named(spans, "execute_plans")
    tasks = tasks_of(spans)
    durations = [t.duration for t in tasks]
    by_execute = {}
    for t in tasks:
        by_execute.setdefault(t.parent, []).append(t)
    critical = 0.0
    for members in by_execute.values():
        longest = {}
        for t in members:
            wave = int(t.args.get("wave", 0))
            longest[wave] = max(longest.get(wave, 0.0), t.duration)
        critical += sum(longest.values())
    capacity = sum(e.duration * e.args.get("threads", 1) for e in executes)
    busy = sum(durations)
    return {
        "eval.plan_ms": _ms(sum(s.duration for s in _named(spans, "plan_grids"))),
        "eval.tasks": float(sum(e.args.get("tasks", 0) for e in executes)),
        "eval.waves": float(sum(e.args.get("waves", 0) for e in executes)),
        "eval.max_wave_width": float(max((e.args.get("max_wave_width", 0) for e in executes),
                                         default=0)),
        "eval.task_s_p50": sp.median(durations),
        "eval.task_s_max": max(durations, default=0.0),
        "eval.critical_path_s": critical,
        "eval.pool_busy_frac": busy / capacity if capacity > 0 else 0.0,
        "eval.idle_thread_s": max(0.0, capacity - busy),
        "eval.collect_ms": _ms(sum(s.duration for s in _named(spans, "collect"))),
    }


def chain_metrics(spans, points):
    """ctmc.* at campaign level: solves, sweeps, the slowest chain task and
    the concurrent cost per sweep (task time, model build included)."""
    chain = [p for p in points if p["backend"] == "ctmc"]
    sweeps = [p["iterations"] for p in chain]
    task_time = [t.duration for t in tasks_of(spans, ("ctmc",))]
    total = sum(sweeps)
    return {
        "ctmc.solves": float(len(chain)),
        "ctmc.sweeps_total": float(total),
        "ctmc.sweeps_max": float(max(sweeps, default=0)),
        "ctmc.point_s_max": max(task_time, default=0.0),
        "ctmc.sweep_ms_concurrent": _ms(sum(task_time) / total) if total else 0.0,
    }


def _decades_per_ksweep(checkpoints):
    """Residual decay in decades per 1,000 sweeps between the first and the
    last residual checkpoint of one solve."""
    usable = [(c["values"]["sweeps"], c["values"]["residual"]) for c in checkpoints
              if c["values"].get("residual", 0) > 0]
    if len(usable) < 2 or usable[-1][0] <= usable[0][0]:
        return 0.0
    (s0, r0), (s1, r1) = usable[0], usable[-1]
    return (math.log10(r0) - math.log10(r1)) / (s1 - s0) * 1e3


def probe_metrics(spans, counters, stream_gbps):
    """core.* and ctmc.* from the standalone re-solve of the slowest chain
    point (plus the fastest point's solve time and decay rate)."""
    result = {name: 0.0 for name in (
        "core.states", "core.model_ms", "ctmc.csr_build_ms", "ctmc.csr_mb", "core.initial_ms",
        "core.measures_ms", "ctmc.solve_s", "ctmc.sweep_ms_solo", "ctmc.residual_passes",
        "ctmc.sweep_gbps", "ctmc.sweep_bw_frac", "ctmc.decades_per_ksweep",
        "ctmc.solve_s_fastest", "ctmc.decades_per_ksweep_fastest")}
    for which, suffix in (("slowest", ""), ("fastest", "_fastest")):
        roots = _named(spans, "probe:" + which)
        if not roots:
            continue
        children = {s.name: s for s in spans if s.parent == roots[0].id}
        solve = children["SolverEngine::solve"]
        checkpoints = sorted((c for c in counters if c["span"] == solve.id),
                             key=lambda c: c["values"]["sweeps"])
        result["ctmc.solve_s" + suffix] = solve.duration
        result["ctmc.decades_per_ksweep" + suffix] = _decades_per_ksweep(checkpoints)
        if suffix:
            continue
        csr = children["to_qt_matrix"]
        sweeps = solve.args.get("sweeps", 0)
        result["core.states"] = float(children["GprsModel"].args.get("states", 0))
        result["core.model_ms"] = _ms(children["GprsModel"].duration)
        result["ctmc.csr_build_ms"] = _ms(csr.duration)
        result["ctmc.csr_mb"] = csr.args.get("csr_bytes", 0) / 1e6
        result["core.initial_ms"] = _ms(children["product_form_initial"].duration)
        result["core.measures_ms"] = _ms(children["compute_measures"].duration)
        result["ctmc.residual_passes"] = float(solve.args.get("residual_passes", 0))
        if sweeps > 0 and solve.duration > 0:
            result["ctmc.sweep_ms_solo"] = _ms(solve.duration / sweeps)
            gbps = csr.args.get("bytes_per_sweep", 0) * sweeps / solve.duration / 1e9
            result["ctmc.sweep_gbps"] = gbps
            result["ctmc.sweep_bw_frac"] = gbps / stream_gbps if stream_gbps > 0 else 0.0
    return result


def sim_metrics(spans, points):
    """sim.*: replications and events of the simulating backend, event and
    simulated-time rates per replication second, replication spread, and
    the mean relative CDT half-width."""
    sims = [p for p in points if p["backend"] == "des"]
    reps = [t.duration for t in tasks_of(spans, ("des",))]
    busy = sum(reps)
    events = sum(p["events"] for p in sims)
    simulated = sum(p["simulated_time"] for p in sims)
    widths = [p["cdt_hw"] / p["cdt"] for p in sims if p["cdt"] > 0]
    return {
        "sim.replications": float(sum(p["replications"] for p in sims)),
        "sim.events": float(events),
        "sim.events_per_s": events / busy if busy > 0 else 0.0,
        "sim.sim_s_per_wall_s": simulated / busy if busy > 0 else 0.0,
        "sim.replication_s_p50": sp.median(reps),
        "sim.replication_s_max": max(reps, default=0.0),
        "sim.ci_rel_hw": sum(widths) / len(widths) if widths else 0.0,
    }


def network_queueing_metrics(spans, points):
    """network.* (network-fp outer iterations, task time per point) and
    queueing.* (fixed-point iterations, fluid steps, task time per point)."""
    def mean_iterations(backend):
        its = [p["iterations"] for p in points if p["backend"] == backend]
        return sum(its) / len(its) if its else 0.0

    def ms_per_point(backends):
        count = sum(1 for p in points if p["backend"] in backends)
        busy = sum(t.duration for t in tasks_of(spans, backends))
        return _ms(busy / count) if count else 0.0

    approx = ("fixed-point", "fluid", "erlang", "mm1k-approx")
    return {
        "network.outer_iterations": mean_iterations("network-fp"),
        "network.point_ms": ms_per_point(("network-fp", "network-des")),
        "queueing.fp_iterations": mean_iterations("fixed-point"),
        "queueing.fluid_steps": mean_iterations("fluid"),
        "queueing.point_ms": ms_per_point(approx),
    }


def self_metrics(spans):
    """<layer>.self_s: summed self time of each layer's spans."""
    totals = sp.self_time_by_layer(spans)
    return {layer + ".self_s": totals.get(layer, 0.0) for layer in LAYERS}


def native_metrics(trace_path, stream_gbps):
    """Every per-layer metric a native trace supports."""
    spans, counters, other = sp.load_chrome(trace_path)
    points = other.get("points", [])
    metrics = {}
    metrics.update(campaign_metrics(spans))
    metrics.update(eval_metrics(spans))
    metrics.update(chain_metrics(spans, points))
    metrics.update(probe_metrics(spans, counters, stream_gbps))
    metrics.update(sim_metrics(spans, points))
    metrics.update(network_queueing_metrics(spans, points))
    return metrics, spans
