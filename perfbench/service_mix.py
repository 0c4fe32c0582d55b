"""service_mix: the shipped gprsim_serve daemon under a seeded closed-loop
request mix, checked byte for byte against in-process campaign runs.

Requests are generated here from the workload seed; the daemon only ever
sees spec text. A request is either fresh (a new spec drawn from the
catalogue below, so its slices miss the daemon's result store) or an exact
repeat of one of the last REPEAT_WINDOW fresh specs (so they hit, as long
as the store still holds them).
"""

import json
import os
import random
import signal
import socket
import subprocess
import threading
import time

import layers
import spans as sp

CONNECTIONS = 4
REPEAT_SHARE = 0.5
REPEAT_WINDOW = 16
SETUP_SAMPLES = 20  # daemon spawns timed before the load window, and again after it
# The daemon's RSS grows with every request it serves, so its peak is read
# when this many requests have completed; a faster daemon, which serves more
# requests in the window, then does not read as a memory regression.
RSS_AT_REQUESTS = 1000

# Smoke-sized campaign templates, one per backend family. Each entry maps a
# seeded random.Random to the JSON body of a spec (without its name).
SMOKE_CELL = '"channels": {ch}, "buffer": {buf}, "max_gprs_sessions": {m}'


def _rates(rng, count):
    first = round(rng.uniform(0.15, 0.35), 4)
    last = round(rng.uniform(0.6, 0.9), 4)
    return f'"rates": {{"first": {first}, "last": {last}, "count": {count}}}'


def _ctmc(rng):
    return (f'"methods": ["ctmc"], "traffic_model": {rng.choice((1, 2, 3))}, '
            f'"reserved_pdch": 1, "gprs_fraction": {rng.choice((0.05, 0.1, 0.15))}, '
            + SMOKE_CELL.format(ch=rng.choice((6, 7, 8)), buf=rng.choice((10, 15)),
                                m=rng.choice((6, 8)))
            + ", " + _rates(rng, rng.choice((3, 4))) + ', "solver": {"tolerance": 1e-9}')


def _des(rng):
    return (f'"methods": ["des"], "traffic_model": {rng.choice((1, 3))}, "reserved_pdch": 1, '
            f'"gprs_fraction": {rng.choice((0.05, 0.1, 0.15))}, '
            + SMOKE_CELL.format(ch=6, buf=10, m=6) + ", " + _rates(rng, 3)
            + f', "simulation": {{"replications": {rng.choice((2, 4))}, '
            f'"seed": {rng.randrange(1, 1 << 30)}, "warmup": 100, "batch_count": 3, '
            f'"batch_duration": 150, "tcp": {rng.choice(("true", "false"))}}}')


def _approx(rng):
    # The fluid backend reaches stationarity on the smoke cell of
    # campaigns/smoke_large.json; other cells can leave it just short of its
    # drift bound (a typed non_convergence), so only the load varies here.
    return (f'"methods": ["fixed-point", "fluid"], "traffic_model": 1, "reserved_pdch": 1, '
            f'"gprs_fraction": {rng.choice((0.05, 0.1))}, '
            + SMOKE_CELL.format(ch=6, buf=10, m=6) + ", " + _rates(rng, 4))


def _network(rng):
    topology, reuse = rng.choice((("grid4", 1), ("hex", 2)))
    return (f'"methods": ["network-fp"], "traffic_model": 1, "reserved_pdch": 1, '
            f'"gprs_fraction": {rng.choice((0.05, 0.1))}, '
            + SMOKE_CELL.format(ch=6, buf=10, m=6) + ", " + _rates(rng, 3)
            + ', "solver": {"tolerance": 1e-9}, '
            f'"network": {{"cells": [4], "speeds_kmh": [{rng.choice((3, 30, 120))}], '
            f'"reuse": [{reuse}], "topology": "{topology}", "wrap": true, "ra_block": 1, '
            f'"inner": "ctmc"}}')


CATALOGUE = (("ctmc", _ctmc), ("des", _des), ("approx", _approx), ("network", _network))


class RequestGenerator:
    """The seeded request sequence. next() is thread-safe; the sequence of
    (spec text, repeat flag) pairs depends only on the seed.

    The draws are stratified so that seeds differ in which requests they
    send, not in how many of each: every block of BLOCK requests holds
    exactly REPEAT_SHARE * BLOCK repeats, and every len(CATALOGUE) fresh
    specs hold one of each template, each block in a seeded order."""

    BLOCK = 10

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._seed = seed
        self._lock = threading.Lock()
        self._repeats = []  # repeat flags of the current block, popped
        self._kinds = []    # templates of the current fresh block, popped
        self.fresh = []     # distinct spec texts, in first-use order

    def next(self):
        with self._lock:
            if not self._repeats:
                repeats = round(REPEAT_SHARE * self.BLOCK)
                self._repeats = [True] * repeats + [False] * (self.BLOCK - repeats)
                self._rng.shuffle(self._repeats)
            if self._repeats.pop() and self.fresh:
                window = self.fresh[-REPEAT_WINDOW:]
                return window[self._rng.randrange(len(window))], True
            if not self._kinds:
                self._kinds = list(CATALOGUE)
                self._rng.shuffle(self._kinds)
            kind, make = self._kinds.pop()
            name = f"svc-{self._seed}-{len(self.fresh)}-{kind}"
            text = "{" + f'"name": "{name}", ' + make(self._rng) + "}\n"
            self.fresh.append(text)
            return text, False


class Connection:
    """One GPRS/1 client connection (docs/service.md frame grammar)."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60.0)  # a wedged daemon fails the run instead of hanging it
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")
        frame = self.receive()
        if frame is None or frame[0] != "hello":
            raise RuntimeError(f"expected a hello frame, got {frame}")

    def send(self, ftype, fid, payload=b""):
        if isinstance(payload, str):
            payload = payload.encode()
        self.sock.sendall(f"GPRS/1 {ftype} {fid} {len(payload)}\n".encode() + payload)

    def receive(self):
        """(type, id, payload) or None at end of stream."""
        line = self.reader.readline()
        if not line:
            return None
        magic, ftype, fid, length = line.decode().split()
        if magic != "GPRS/1":
            raise RuntimeError(f"bad frame header {line!r}")
        payload = self.reader.read(int(length))
        if len(payload) != int(length):
            raise RuntimeError("end of stream inside a payload")
        return ftype, int(fid), payload

    def close(self):
        self.reader.close()
        self.sock.close()


def _short_socket_path(path):
    """Unix socket paths are limited to ~108 bytes; connect relative to the
    working directory when the absolute path is long."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


class Daemon:
    """A gprsim_serve child on a unix socket (default options)."""

    def __init__(self, binary, socket_path):
        self.path = socket_path
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.log = open(socket_path + ".log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([binary, f"--socket={_short_socket_path(socket_path)}"],
                                     stdout=subprocess.DEVNULL, stderr=self.log)

    def wait_ready(self, timeout=30.0):
        """Seconds from spawn until the daemon answers a ping."""
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gprsim_serve exited, see {self.log.name}")
            try:
                conn = Connection(_short_socket_path(self.path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise RuntimeError("gprsim_serve did not come up")
                time.sleep(0.0001)
        conn.send("ping", 0, "setup")
        frame = conn.receive()
        ready = time.perf_counter() - self.started
        conn.close()
        if frame is None or frame[0] != "pong":
            raise RuntimeError(f"expected pong, got {frame}")
        return ready

    def stats(self):
        conn = Connection(_short_socket_path(self.path))
        conn.send("stats", 0)
        frame = conn.receive()
        conn.close()
        return json.loads(frame[2])

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


class Record:
    """One request's wire timeline (perf_counter seconds)."""

    __slots__ = ("index", "spec", "repeat", "sent", "accepted", "first_csv", "done",
                 "error", "csv")

    def __init__(self, index, spec, repeat):
        self.index, self.spec, self.repeat = index, spec, repeat
        self.sent = self.accepted = self.first_csv = self.done = None
        self.error = None
        self.csv = b""


def drive(socket_path, generator, seconds, on_done):
    """Closed loop over CONNECTIONS connections for `seconds`: each
    connection sends its next request after the previous one's done (or
    error) frame. Requests in flight at the deadline run to completion.
    on_done(n) is called as the n-th request completes. Returns the records
    in send order."""
    deadline = time.perf_counter() + seconds
    records, lock, failures = [], threading.Lock(), []
    completed = [0]  # guarded by lock

    def client():
        try:
            conn = Connection(_short_socket_path(socket_path))
            while time.perf_counter() < deadline:
                spec, repeat = generator.next()
                with lock:
                    record = Record(len(records), spec, repeat)
                    records.append(record)
                record.sent = time.perf_counter()
                conn.send("campaign", record.index + 1, spec)
                while True:
                    frame = conn.receive()
                    now = time.perf_counter()
                    if frame is None:
                        raise RuntimeError("daemon closed the connection")
                    ftype, _, payload = frame
                    if ftype == "accepted":
                        record.accepted = now
                    elif ftype == "csv":
                        record.first_csv = record.first_csv or now
                        record.csv += payload
                    elif ftype == "done":
                        record.done = now
                        with lock:
                            completed[0] += 1
                            on_done(completed[0])
                        break
                    elif ftype == "error":
                        record.error = payload.decode().partition("\n")[0]
                        break
            conn.close()
        except Exception as error:  # reported by the caller
            failures.append(repr(error))

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise RuntimeError("client failed: " + failures[0])
    return records


def wire_spans(records, first_id):
    """Per-request wire spans: request > accept, compute-and-wait, stream."""
    result, next_id = [], first_id
    for r in records:
        if r.done is None:
            continue
        root = sp.Span("request", "service", r.sent, r.done, next_id, 0, 0, r.index,
                       {"repeat": int(r.repeat)})
        phases = [("accept", r.sent, r.accepted or r.sent),
                  ("wait+compute", r.accepted or r.sent, r.first_csv or r.done),
                  ("stream", r.first_csv or r.done, r.done)]
        result.append(root)
        for offset, (name, start, end) in enumerate(phases, 1):
            result.append(sp.Span(name, "service", start, end, next_id + offset, next_id, 0,
                                  r.index))
        next_id += 1 + len(phases)
    return result


def _p50_ms(samples):
    return sp.median(samples) * 1e3


def _hit_rate(before, after):
    hits = after["store"]["hits"] - before["store"]["hits"]
    misses = after["store"]["misses"] - before["store"]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _setup_samples(binary, socket_path):
    """Spawn-to-pong seconds of SETUP_SAMPLES fresh daemons."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        daemon = Daemon(binary, socket_path)
        try:
            samples.append(daemon.wait_ready())
        finally:
            daemon.stop()
    return samples


def run(tools, seed, seconds, trace, run_dir):
    """The service_mix workload; returns the outcome dict run.py reports."""
    socket_path = os.path.join(run_dir, "serve.sock")
    setups = _setup_samples(tools.serve, socket_path)

    generator = RequestGenerator(seed)
    daemon = Daemon(tools.serve, socket_path)
    rss = {}

    def read_rss(completed):
        if completed == RSS_AT_REQUESTS:
            rss["mb"] = daemon.peak_rss_mb()

    try:
        setups.append(daemon.wait_ready())
        before, cpu0 = daemon.stats(), daemon.cpu_seconds()
        records = drive(socket_path, generator, seconds, read_rss)
        cpu = daemon.cpu_seconds() - cpu0
        after = daemon.stats()
        rss.setdefault("mb", daemon.peak_rss_mb())
    finally:
        daemon.stop()
    setups += _setup_samples(tools.serve, socket_path)

    # In-process references: every distinct spec through CampaignRunner::run
    # + write_campaign_csv, one thread per campaign, CONNECTIONS at a time.
    spec_dir = os.path.join(run_dir, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    manifest = os.path.join(run_dir, "manifest.tsv")
    with open(manifest, "w") as handle:
        for i, text in enumerate(generator.fresh):
            with open(os.path.join(spec_dir, f"{i}.json"), "w") as spec:
                spec.write(text)
            handle.write(f"{spec_dir}/{i}.json\t{spec_dir}/{i}.csv\t{i}\n")
    replay = tools.call("replay", manifest, str(CONNECTIONS))
    index = {text: i for i, text in enumerate(generator.fresh)}
    references = []
    for i in range(len(generator.fresh)):
        with open(os.path.join(spec_dir, f"{i}.csv"), "rb") as handle:
            references.append(handle.read())

    completed = [r for r in records if r.done is not None]
    refused = {}
    for r in records:
        if r.error is not None:
            refused[r.error] = refused.get(r.error, 0) + 1
    mismatched = sum(1 for r in completed if r.csv != references[index[r.spec]])
    failed = len(records) - len(completed) + mismatched
    latencies = [r.done - r.sent for r in completed]
    window = max(r.done for r in completed) - min(r.sent for r in records) if completed else 0.0
    q, tail, samples = sp.tail_percentile(latencies)
    realised = sum(r.repeat for r in records) / max(1, len(records))
    summary = {
        "service.store_hit_rate": _hit_rate(before, after),
        "service.points_evaluated": float(after["points"]["evaluated"]
                                          - before["points"]["evaluated"]),
        "service.req_per_s": len(completed) / window if window else 0.0,
        "service.latency_p90_ms": sp.percentile(latencies, 90) * 1e3 if latencies else 0.0,
        "service.latency_samples": float(len(completed)),
        "service.requests_attempted": float(len(records)),
        "service.requests_completed": float(len(completed)),
        "service.requests_refused": float(sum(refused.values())),
    }
    outcome = {
        "attempted": len(records),
        "failed": failed,
        "e2e": {
            "setup_s": sp.median(setups),
            "wall_s": sp.median(latencies),
            "cpu_s": cpu / len(completed) if completed else 0.0,
            "peak_rss_mb": rss["mb"],
        },
        "report": [
            f"requests: {len(records)} attempted, {len(completed)} completed, refused "
            f"{refused or 'none'}, {mismatched} CSV mismatches against "
            f"{len(generator.fresh)} distinct specs run in process; "
            f"failed_frac {failed / max(1, len(records)):.4f} ratio",
            f"repeat share: intended {REPEAT_SHARE:.2f}, realised {realised:.3f}; "
            f"store hit rate {summary['service.store_hit_rate']:.3f}; peak_rss_mb read "
            f"after {min(len(completed), RSS_AT_REQUESTS)} completed requests",
            f"req_per_s {summary['service.req_per_s']:.3f} 1/s, latency_p50_ms "
            f"{_p50_ms(latencies):.3f} ms, latency_p90_ms "
            f"{summary['service.latency_p90_ms']:.3f} ms, mean "
            f"{sum(latencies) / max(1, len(latencies)) * 1e3:.3f} ms (n={samples}; highest percentile "
            f"with >=10 samples beyond it: p{q} = "
            f"{tail * 1e3 if tail is not None else float('nan'):.3f} ms)",
        ],
    }
    if trace:
        traced, metrics, spans = _traced_replay(tools, generator, references, run_dir)
        outcome["failed"] += traced["mismatched"]
        outcome["attempted"] += len(references)
        metrics.update(summary)
        metrics.update(_phase_metrics(records, index, spans))
        metrics["trace.overhead_frac"] = traced["wall_s"] / replay["wall_s"] - 1.0
        first_wire_id = max((s.id for s in spans), default=0) + 1
        outcome["layer"], outcome["spans"] = metrics, spans + wire_spans(records, first_wire_id)
    return outcome


def _traced_replay(tools, generator, references, run_dir):
    """Replays every distinct spec along the traced path; its CSVs must equal
    the plain replay's. Returns (replay result with a mismatch count,
    per-layer metrics, native spans)."""
    spec_dir = os.path.join(run_dir, "specs")
    manifest = os.path.join(run_dir, "manifest_traced.tsv")
    with open(manifest, "w") as handle:
        for i in range(len(generator.fresh)):
            handle.write(f"{spec_dir}/{i}.json\t{spec_dir}/{i}.traced.csv\t{i}\n")
    trace_path = os.path.join(run_dir, "trace_native.json")
    traced = tools.call("replay", manifest, str(CONNECTIONS), trace_path)
    traced["mismatched"] = 0
    for i, reference in enumerate(references):
        with open(os.path.join(spec_dir, f"{i}.traced.csv"), "rb") as handle:
            traced["mismatched"] += handle.read() != reference
    metrics, spans = layers.native_metrics(trace_path, tools.machine["stream_gbps_1t"])
    return traced, metrics, spans


def _phase_metrics(records, index, spans):
    """Latency split by phase and by repeat, against the in-process compute
    time of each request's spec (the span union of its replay)."""
    compute = {request: sp.covered([(s.start, s.end) for s in group])
               for request, group in sp.group_by_request(spans).items()}
    completed = [r for r in records if r.done is not None]
    misses = [r for r in completed if not r.repeat]
    miss_latency = sp.median([r.done - r.sent for r in misses])
    miss_compute = sp.median([compute[index[r.spec]] for r in misses])
    stream = sp.median([r.done - r.first_csv for r in completed])
    return {
        "service.accept_ms_p50": _p50_ms([r.accepted - r.sent for r in completed]),
        "service.latency_hit_ms_p50": _p50_ms([r.done - r.sent for r in completed
                                               if r.repeat]),
        "service.latency_miss_ms_p50": miss_latency * 1e3,
        "service.stream_ms_p50": stream * 1e3,
        "service.compute_ms_p50": miss_compute * 1e3,
        "service.wait_ms_p50": (miss_latency - miss_compute - stream) * 1e3,
    }
