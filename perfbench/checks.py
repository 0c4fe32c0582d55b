"""Output check of the chain workload: every evaluation's measures, as
`perfbench run` writes them from PointEvaluation::measures
(<prefix>.measures.csv, the benchmark's own columns), against the reference
kept with the benchmark, read by column name (never by position).

Chain measures must match to CHAIN_RTOL relative: the solver stops at a
1e-9 residual, so a legitimately different solver lands well inside 1e-6,
while a wrong one misses by orders of magnitude.
"""

import csv
import io

CHAIN_RTOL = 1e-6
CHAIN_ATOL = 1e-12
MEASURE_COLUMNS = ("cdt", "plp", "qd", "atu", "mql", "cvt", "ags", "gsm_blocking",
                   "gprs_blocking")


def read_rows(text):
    """CSV text -> list of dicts keyed by column name."""
    return list(csv.DictReader(io.StringIO(text)))


def point_key(row):
    """A row's identity independent of row order: (backend, GPRS fraction,
    rate)."""
    return (row["backend"], round(float(row["gprs_fraction"]), 9), round(float(row["rate"]), 9))


def check_chain(rows, reference):
    """Returns a list of failure messages, one per failing point."""
    by_key = {point_key(r): r for r in reference}
    failures = []
    if len(rows) != len(reference):
        failures.append(f"{len(rows)} rows, reference has {len(reference)}")
    for row in rows:
        ref = by_key.get(point_key(row))
        problem = "no reference point" if ref is None else _compare(row, ref)
        if problem:
            failures.append(f"point {point_key(row)}: {problem}")
    return failures


def _compare(row, ref):
    for column in MEASURE_COLUMNS:
        got, want = float(row[column]), float(ref[column])
        if abs(got - want) > CHAIN_RTOL * abs(want) + CHAIN_ATOL:
            return f"{column} = {got!r}, reference {want!r}"
    return None
