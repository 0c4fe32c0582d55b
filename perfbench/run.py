#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (perfbench/README.md says why each exists, and why the planned
fig06_des workload is not among them):
  fig06_chain  the Fig. 6 cell through the chain backend only, 4 threads
  service_mix  gprsim_serve under a seeded closed-loop request mix

Run from the root of a gprsim checkout. The first run configures and builds
perfbench/ (the gprsim library, perfbench and gprsim_serve) under
.bench_build/. Every run prints a machine record, a readable report, and as
its last stdout line one JSON object {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
(from a separate traced pass, written to a Chrome trace file) with
--trace 1. metrics.json is the dictionary of every metric. The exit code is
0 only when every output check passed.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import service_mix  # noqa: E402
import spans as sp  # noqa: E402

THREADS = 4
SETUPS_PER_CAMPAIGN = 10
MIN_REPS = 3


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


class Tools:
    """The built binaries plus the machine record."""

    def __init__(self):
        build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        self._build(build_dir)
        self.perfbench = os.path.join(build_dir, "perfbench")
        self.serve = os.path.join(build_dir, "gprsim", "examples", "gprsim_serve")
        self.machine = self._machine()

    @staticmethod
    def _build(build_dir):
        if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
                and os.path.isdir(os.path.join(ROOT, "src"))):
            raise BenchError(f"no gprsim sources at {ROOT} (CMakeLists.txt and src/ expected)")
        jobs = str(len(os.sched_getaffinity(0)))
        steps = [["cmake", "--build", build_dir, "--target", "perfbench", "gprsim_serve",
                  "-j", jobs]]
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                raise BenchError("build failed: " + " ".join(step))

    def call(self, *args):
        """Runs perfbench; returns its JSON output."""
        done = subprocess.run([self.perfbench, *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def _machine(self):
        """nproc, LLC, compiler, build type, 1-minute load average before the
        run, and triad bandwidth over arrays whose total is >= 4x the LLC."""
        with open("/proc/loadavg") as handle:
            load1 = float(handle.read().split()[0])
        llc_mib = 32.0
        cache = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
            path = os.path.join(cache, index)
            try:
                with open(os.path.join(path, "level")) as lv, open(
                        os.path.join(path, "size")) as sz:
                    level, size = int(lv.read()), sz.read().strip()
            except OSError:
                continue
            if level >= 3 and size.endswith("K"):
                llc_mib = int(size[:-1]) / 1024.0
        array_mib = int(-(-4 * llc_mib // 3))  # three arrays, >= 4x LLC in total
        info = self.call("info")
        nproc = len(os.sched_getaffinity(0))
        return {
            "nproc": nproc,
            "llc_mib": llc_mib,
            "compiler": info["compiler"],
            "build_type": info["build_type"],
            "load1_before": load1,
            "triad_array_mib": array_mib,
            "triad_total_mib": 3 * array_mib,
            "stream_gbps": self.call("triad", str(array_mib), str(nproc))["gbps"],
            "stream_gbps_1t": self.call("triad", str(array_mib), "1")["gbps"],
        }


def load_dictionary():
    with open(os.path.join(HERE, "metrics.json")) as handle:
        return json.load(handle)["metrics"]


# --- campaign workloads ----------------------------------------------------


def write_spec(workload, seed, run_dir):
    """The workload's spec with its seeded input applied: the GPRS-fraction
    axis in a seeded order."""
    with open(os.path.join(HERE, "workloads", workload + ".json")) as handle:
        text = handle.read()
    fractions = ["0.02", "0.10"]
    random.Random(seed).shuffle(fractions)
    text = text.replace('"gprs_fraction": [0.02, 0.10]',
                        '"gprs_fraction": [' + ", ".join(fractions) + "]")
    path = os.path.join(run_dir, workload + ".json")
    with open(path, "w") as handle:
        handle.write(text)
    return path


def setup_seconds(tools, spec):
    """Process launch until parse_spec_file + build_campaign_workload return."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([tools.perfbench, "setup", spec], stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or not line:
        raise BenchError("perfbench setup failed")
    return elapsed


def run_campaign(tools, workload, seed, seconds, trace, run_dir):
    spec = write_spec(workload, seed, run_dir)
    reps_dir = os.path.join(run_dir, "reps")
    os.makedirs(reps_dir, exist_ok=True)
    # One campaign per perfbench process, started again while time is left.
    # Set-up samples are taken before each campaign, so that they spread
    # over the run instead of catching the host in one moment.
    setups, reps = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        setups += [setup_seconds(tools, spec) for _ in range(SETUPS_PER_CAMPAIGN)]
        reps.append(tools.call("run", spec, str(THREADS),
                               os.path.join(reps_dir, f"rep{len(reps)}")))

    with open(os.path.join(HERE, "reference", workload + ".measures.csv")) as handle:
        reference = checks.read_rows(handle.read())
    attempted, failures, csvs = 0, [], []
    for k in range(len(reps)):
        with open(os.path.join(reps_dir, f"rep{k}.csv")) as handle:
            csvs.append(handle.read())
        with open(os.path.join(reps_dir, f"rep{k}.measures.csv")) as handle:
            rows = checks.read_rows(handle.read())
        attempted += len(rows)
        failures += [f"rep {k}: {f}" for f in checks.check_chain(rows, reference)]
        if csvs[-1] != csvs[0]:
            failures.append(f"rep {k}: CSV differs from rep 0 (same spec)")
    walls = [r["wall_s"] for r in reps]
    outcome = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "e2e": {
            "setup_s": sp.median(setups),
            "wall_s": sp.median(walls),
            "cpu_s": sp.median([r["cpu_s"] for r in reps]),
            "peak_rss_mb": sp.median([r["peak_rss_mb"] for r in reps]),
        },
        "report": [f"{len(reps)} campaigns of {attempted // len(reps)} points; wall_s per "
                   f"campaign: " + ", ".join(f"{w:.3f}" for w in walls),
                   "peak_rss_mb per campaign: "
                   + ", ".join(f"{r['peak_rss_mb']:.2f}" for r in reps)],
    }
    outcome["report"].append(f"failed_frac {len(failures) / attempted:.4f} ratio")
    if trace:
        traced = tools.call("traced", spec, str(THREADS), run_dir)
        points = attempted // len(reps)
        outcome["attempted"] += points
        with open(os.path.join(run_dir, "traced.csv")) as handle:
            if handle.read() != csvs[0]:
                outcome["failed"] += points
                outcome["failures"].append("traced CSV differs from the untraced CSV")
        metrics, native = layers.native_metrics(os.path.join(run_dir, "trace_native.json"),
                                                tools.machine["stream_gbps_1t"])
        metrics["trace.overhead_frac"] = traced["wall_s"] / sp.median(walls) - 1.0
        outcome["layer"], outcome["spans"] = metrics, native
    return outcome


# --- reporting -------------------------------------------------------------


def complete_layer_metrics(metrics, spans, machine):
    """Adds the per-layer self times and machine figures, and zero for every
    per-layer metric of a layer the workload does not exercise."""
    metrics.update(layers.self_metrics(spans))
    metrics["machine.stream_gbps"] = machine["stream_gbps"]
    metrics["machine.stream_gbps_1t"] = machine["stream_gbps_1t"]
    for name in [m["name"] for m in load_dictionary() if m["kind"] == "per_layer"]:
        metrics.setdefault(name, 0.0)
    return metrics


def write_trace(run_dir, spans, machine, workload, seed):
    """The run's Chrome trace file: the native trace (pid 1) plus the wire
    spans of the service workload (pid 2, its own clock) and the machine
    record. Returns its path."""
    with open(os.path.join(run_dir, "trace_native.json")) as handle:
        document = json.load(handle)
    wire = [s for s in spans if s.layer == "service"]
    document["traceEvents"] += sp.chrome_events(wire, 2)
    document["otherData"].update(workload=workload, seed=seed, machine=machine)
    path = os.path.join(run_dir, "trace.json")
    with open(path, "w") as handle:
        json.dump(document, handle)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("fig06_chain", "service_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args()

    try:
        tools = Tools()
        run_dir = os.path.join(ROOT, ".bench_build", "runs",
                               f"{options.workload}-s{options.seed}-t{options.trace}")
        os.makedirs(run_dir, exist_ok=True)
        if options.workload == "service_mix":
            outcome = service_mix.run(tools, options.seed, options.seconds, options.trace,
                                      run_dir)
        else:
            outcome = run_campaign(tools, options.workload, options.seed, options.seconds,
                                   options.trace, run_dir)
    except (BenchError, RuntimeError, OSError, ValueError) as error:
        log(f"perfbench: {error}")
        return 2

    dictionary = {m["name"]: m for m in load_dictionary()}
    machine = tools.machine
    print("machine: " + json.dumps(machine))
    print(f"workload {options.workload}, seed {options.seed}, {options.seconds:g} s, "
          f"{THREADS if options.workload != 'service_mix' else 'daemon default'} threads")
    for line in outcome["report"] + outcome.get("failures", [])[:20]:
        print("  " + line)
    for name, value in outcome["e2e"].items():
        print(f"  {name:<36} {value:>16.6f} {dictionary[name]['unit']}")
    if options.trace:
        metrics = complete_layer_metrics(outcome["layer"], outcome["spans"], machine)
        trace_path = write_trace(run_dir, outcome["spans"], machine, options.workload,
                                 options.seed)
        print(f"  trace written to {os.path.relpath(trace_path)}")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6f} {dictionary[name]['unit']}")
    else:
        metrics = outcome["e2e"]
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": dictionary[name]["unit"]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
