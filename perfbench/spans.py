"""Span model of the benchmark's traces: loading, self time, grouping by
request, percentiles, and Chrome trace-event output.

A span is one timed call into a layer: name, layer, start and end (seconds),
its own id, its parent's id (0 for a root), the thread it ran on, the
request it belongs to, and numeric args. The native perfbench program
writes its spans as Chrome "X" events whose args carry
id/parent/request/layer; wire-level spans of the service workload are made
here in Python.
"""

import json
import math
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    id: int
    parent: int = 0
    thread: int = 0
    request: int = -1
    args: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


# Span.args keys that are part of the span record itself, not numeric args.
_RESERVED = ("id", "parent", "request", "layer")


def load_chrome(path):
    """Returns (spans, counters, other_data) of a Chrome trace-event file.

    Counters are ("C" events) dicts with name, time (s), span id and the
    sampled values.
    """
    with open(path) as handle:
        document = json.load(handle)
    spans, counters = [], []
    for event in document.get("traceEvents", []):
        args = event.get("args", {})
        if event.get("ph") == "X":
            spans.append(Span(
                name=event["name"],
                layer=args.get("layer", event.get("cat", "")),
                start=event["ts"] / 1e6,
                end=(event["ts"] + event["dur"]) / 1e6,
                id=int(args["id"]),
                parent=int(args.get("parent", 0)),
                thread=int(event.get("tid", 0)),
                request=int(args.get("request", -1)),
                args={k: v for k, v in args.items() if k not in _RESERVED},
            ))
        elif event.get("ph") == "C":
            values = {k: v for k, v in args.items() if k != "span"}
            counters.append({"name": event["name"], "time": event["ts"] / 1e6,
                             "span": int(args.get("span", 0)), "values": values})
    return spans, counters, document.get("otherData", {})


def chrome_events(spans, pid):
    """Chrome "X" events for `spans` under process id `pid`."""
    events = []
    for s in spans:
        args = dict(s.args)
        args.update(id=s.id, parent=s.parent, request=s.request, layer=s.layer)
        events.append({"name": s.name, "cat": s.layer, "ph": "X", "pid": pid,
                       "tid": s.thread, "ts": s.start * 1e6,
                       "dur": s.duration * 1e6, "args": args})
    return events


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Self time of every span (by id): its duration minus the part of its
    interval that its children cover. Children running in parallel on other
    threads count once, so a parent never goes negative."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children.get(s.id, ()) if c.end > s.start and c.start < s.end]
        result[s.id] = s.duration - covered(inside)
    return result


def self_time_by_layer(spans):
    """Summed self time per layer name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.id]
    return totals


def group_by_request(spans):
    """Spans keyed by request id, each list in start order."""
    groups = {}
    for s in sorted(spans, key=lambda s: s.start):
        groups.setdefault(s.request, []).append(s)
    return groups


def _rank(q, n):
    """1-based nearest rank of percentile q among n samples (rounded before
    the ceiling so that e.g. 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. Raises ValueError on an empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(q, len(samples)) - 1]


TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples):
    """The highest of TAIL_CANDIDATES with at least ten samples beyond its
    nearest rank, as (q, value, sample count); (None, None, n) when even the
    median has fewer than ten samples above it."""
    n = len(samples)
    for q in TAIL_CANDIDATES:
        if n - _rank(q, n) >= 10:
            return q, percentile(samples, q), n
    return None, None, n


def median(samples, default=0.0):
    if not samples:
        return default
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
