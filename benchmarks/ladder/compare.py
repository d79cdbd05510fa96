"""``run.py compare A.json B.json``: the two-sets acceptance check.

A and B are files written by ``run.py --runs N --out``.  For every
(workload, end-to-end metric) the medians of the two sets are compared in
the metric's worse direction against its bound from ``BENCHMARK.json``:

* ``unresolved`` - either set's own spread (distance between the first and
  third quartile over its median) is wider than the bound, so the sets
  cannot tell a regression of that size from noise;
* ``regressed`` - B's median is worse than A's by more than the bound;
* ``ok`` - otherwise.

One row per workload; exit status 1 if any cell is not ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def values_of(runs: List[dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run["metrics"]]


def judge(before: List[float], after: List[float], better: str,
          bound: float) -> tuple:
    """``(verdict, relative change in the worse direction)``."""
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base if base else 0.0
    worse = -change if better == "higher" else change
    if max(spread(before), spread(after)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "ok", worse


def main(argv: List[str], spec: dict) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(open(path).read())["results"] for path in argv)
    metrics: Dict[str, dict] = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        cells = []
        for name, metric in metrics.items():
            old = values_of(before.get(workload, []), name)
            new = values_of(after.get(workload, []), name)
            if not old or not new:
                cells.append(f"{name}:missing")
                status = 1
                continue
            verdict, worse = judge(old, new, metric["better"], metric["bound"])
            if verdict != "ok":
                status = 1
            cells.append(f"{name}:{verdict}({worse:+.1%})")
        print(f"{workload:24s} " + "  ".join(cells))
    return status
