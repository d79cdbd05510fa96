"""Auto-selection regret benchmark: the planner scored against the oracle.

Races ``algorithm="auto"`` against every fixed diversity-preserving
algorithm over the standard mixed workload mix
(:data:`paper.autoselect.WORKLOAD_MIX` — autos match-all, narrow
big-k, scored, disjunctive auctions, Zipf-repeated) and reports:

* per-workload **regret tables** — auto seconds, each fixed algorithm's
  seconds, the per-workload oracle, auto's choice tally;
* **win/loss counts** of auto against every fixed run it raced;
* the aggregate ``criteria`` gate: auto's total wall-clock across the mix
  must stay within ``REGRET_RATIO_CEIL`` (1.05x) of the best *single*
  fixed algorithm — the deployment auto replaces — and auto must adapt
  (pick at least two different algorithms across the mix).

Timing methodology matches the repo's other benchmarks: repeats are
interleaved round-robin across runners keeping the min per runner, and
auto's timed region includes its own planning work.  The measured regret
is also exported through the metrics registry (``repro_plan_regret_ms``
histogram, ``repro_plan_races_total`` counters) — the snapshot lands in
the JSON report.

Run under pytest (``pytest benchmarks/bench_autoselect.py``) or directly
(``python benchmarks/bench_autoselect.py --rows 20000 --queries 60
--out BENCH_autoselect.json``).  Scale follows ``REPRO_BENCH_ROWS`` /
``REPRO_BENCH_QUERIES`` / ``REPRO_BENCH_REPEATS``.
"""

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from paper.autoselect import mixed_workloads, race_mix, summarise
from paper.harness import env_int
from paper.regret import RACED
from repro.observability import MetricsRegistry
from repro.planner import DEFAULT_CANDIDATES

DEFAULT_ROWS = 5000
DEFAULT_QUERIES = 30
DEFAULT_REPEATS = 3

#: The acceptance gate the report is scored against (mirrors
#: ``tests/test_autoselect_oracle.py``).
REGRET_RATIO_CEIL = 1.05   # auto total ÷ best single fixed algorithm
MIN_DISTINCT_CHOICES = 2   # auto must adapt, not hard-code one algorithm


def measure(rows, queries, repeats):
    """Race the whole mix; returns a JSON-able report dict."""
    registry = MetricsRegistry(enabled=True)
    workloads = mixed_workloads(rows=rows, queries=queries, seed=1)
    reports = race_mix(workloads, repeats=repeats, registry=registry)
    summary = summarise(reports)
    distinct_choices = len(summary["choices_total"])
    return {
        "benchmark": "autoselect",
        "rows": rows,
        "queries": queries,
        "k": sorted({w["k"] for w in workloads}),
        "repeats": repeats,
        "candidates": list(DEFAULT_CANDIDATES),
        "raced": list(RACED),
        "python": platform.python_version(),
        **summary,
        "metrics": registry.snapshot(),
        "criteria": {
            "regret_ratio": summary["total"]["regret_ratio"],
            "regret_ratio_ceil": REGRET_RATIO_CEIL,
            "best_fixed": summary["total"]["best_fixed"],
            "distinct_choices": distinct_choices,
            "min_distinct_choices": MIN_DISTINCT_CHOICES,
            "wins": summary["wins"],
            "races": summary["races"],
        },
    }


# ----------------------------------------------------------------------
# pytest entry points (same shape as the other benchmarks)
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - direct script runs without pytest
    pytest = None

if pytest is not None:
    BENCH_ROWS = env_int("REPRO_BENCH_ROWS", DEFAULT_ROWS)
    BENCH_QUERIES = env_int("REPRO_BENCH_QUERIES", DEFAULT_QUERIES)
    BENCH_REPEATS = env_int("REPRO_BENCH_REPEATS", DEFAULT_REPEATS)

    @pytest.fixture(scope="module")
    def autoselect_report():
        return measure(BENCH_ROWS, BENCH_QUERIES, BENCH_REPEATS)

    def test_regret_within_ceiling(autoselect_report):
        criteria = autoselect_report["criteria"]
        assert criteria["regret_ratio"] <= REGRET_RATIO_CEIL, criteria

    def test_auto_adapts_across_mix(autoselect_report):
        criteria = autoselect_report["criteria"]
        assert criteria["distinct_choices"] >= MIN_DISTINCT_CHOICES

    def test_mix_is_not_degenerate(autoselect_report):
        oracles = {
            entry["best_fixed"] for entry in autoselect_report["workloads"]
        }
        assert len(oracles) >= 2, oracles
        assert oracles <= set(RACED), oracles

    def test_regret_exported_to_registry(autoselect_report):
        histograms = [
            h for h in autoselect_report["metrics"]["histograms"]
            if h["name"] == "repro_plan_regret_ms"
        ]
        assert len(histograms) == len(autoselect_report["workloads"])


# ----------------------------------------------------------------------
# Script entry point: print + persist the report
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, default=env_int("REPRO_BENCH_ROWS", DEFAULT_ROWS)
    )
    parser.add_argument(
        "--queries", type=int,
        default=env_int("REPRO_BENCH_QUERIES", DEFAULT_QUERIES),
    )
    parser.add_argument(
        "--repeats", type=int,
        default=env_int("REPRO_BENCH_REPEATS", DEFAULT_REPEATS),
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_autoselect.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = measure(args.rows, args.queries, args.repeats)
    elapsed = time.perf_counter() - started

    fixed = list(RACED)
    print(
        f"autoselect @ {args.rows} rows, {args.queries} queries/workload, "
        f"{args.repeats} repeats:"
    )
    print(
        f"  {'workload':<22} {'auto s':>9} "
        + " ".join(f"{a + ' s':>11}" for a in fixed)
        + f" {'oracle':>9} {'regret':>7}  choices"
    )
    for entry in report["workloads"]:
        choices = ",".join(
            f"{a}:{n}" for a, n in entry["choices"].items()
        )
        print(
            f"  {entry['workload']:<22} {entry['auto_seconds']:>9.4f} "
            + " ".join(
                f"{entry['fixed_seconds'][a]:>11.4f}" for a in fixed
            )
            + f" {entry['best_fixed']:>9} {entry['regret_ratio']:>7.3f}  {choices}"
        )
    criteria = report["criteria"]
    total = report["total"]
    print(
        f"  total: auto {total['auto_seconds']:.4f}s vs best fixed "
        f"({total['best_fixed']}) {total['best_fixed_seconds']:.4f}s "
        f"-> ratio {criteria['regret_ratio']} "
        f"(ceiling {REGRET_RATIO_CEIL})"
    )
    print(
        f"  auto won {criteria['wins']}/{criteria['races']} races; "
        f"choices: {report['choices_total']}"
    )
    print(f"  [measured in {elapsed:.1f}s]")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
