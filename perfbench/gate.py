"""Correctness gate applied to the output of every benchmark job.

A sweep table passes when every value is finite, the three exact routes
(oracle, spectral, dsf) agree for each family and sweep point, and every
value, series routes included, matches the recorded reference.  A verify
report passes when the command exited 0 and the report equals the
recorded one.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import csv
import json
import math

# The four-route standard: exact routes agree to this relative distance.
ROUTE_TOL = 1e-10
# Distance allowed from the values recorded when the benchmark was defined.
REFERENCE_TOL = 1e-10
EXACT_ROUTES = ("oracle", "spectral", "dsf")


def row_key(family: str, parameter: str, method: str) -> str:
    return f"{family}|{parameter}|{method}"


def read_table(path) -> dict[str, float]:
    """Metric table CSV as ``{row_key: value}``; ``#`` warning lines skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {
        row_key(row["family"], row["parameter"], row["method"]): float(row["value"])
        for row in csv.DictReader(lines)
    }


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def check_table(exit_code: int, table: dict[str, float], reference: dict[str, float]) -> list[str]:
    problems = [] if exit_code == 0 else [f"sweep exited {exit_code}"]
    missing = sorted(set(reference) - set(table))
    extra = sorted(set(table) - set(reference))
    if missing:
        problems.append(f"{len(missing)} rows missing, first {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected rows, first {extra[0]}")
    by_point: dict[str, dict[str, float]] = {}
    for key, value in table.items():
        if not math.isfinite(value):
            problems.append(f"{key}: non-finite value {value!r}")
            continue
        family, parameter, method = key.split("|")
        if method in EXACT_ROUTES:
            by_point.setdefault(f"{family}|{parameter}", {})[method] = value
        expected = reference.get(key)
        if expected is not None and _relative(value, expected) > REFERENCE_TOL:
            problems.append(f"{key}: {value!r} differs from reference {expected!r}")
    for point, routes in by_point.items():
        values = list(routes.values())
        spread = max(_relative(a, b) for a in values for b in values)
        if spread > ROUTE_TOL:
            problems.append(f"{point}: exact routes disagree by {spread:.3e} ({routes})")
    return problems


def check_verify(exit_code: int, report: dict, reference: dict) -> list[str]:
    problems = [] if exit_code == 0 else [f"verify exited {exit_code}"]
    for key in sorted(set(report) | set(reference)):
        if report.get(key) != reference.get(key):
            problems.append(f"report {key}: {report.get(key)!r} != reference {reference.get(key)!r}")
    return problems
