"""Oracle-regret measurement for ``algorithm="auto"``.

The only honest way to score a planner is against the oracle: run every
fixed algorithm in :data:`RACED` over the same workload, take the best
total wall-clock, and charge auto the difference (its *regret*).  The
racers are not auto's candidates: auto plans with its own default (probe
and naive), and one-pass races too, so the gate still notices a workload
where a scan would beat both.  This module is the shared engine behind
``tests/test_autoselect_oracle.py`` (gate: auto within 1.05x of the best
fixed algorithm) and ``benchmarks/bench_autoselect.py`` (per-workload
regret + win/loss tables in ``BENCH_autoselect.json``).

Methodology matches the repo's benchmark harness: each runner (auto plus
every fixed racer) times ``prepare`` + ``execute`` per query — auto is
charged for its own planning work — and the repeats are *interleaved*
round-robin across runners, keeping the min total per runner, so drifting
machine load lands on every runner instead of biasing whichever ran last.

Measured regret is fed back into the metrics registry as the
``repro_plan_regret_ms`` histogram (the planner cannot know its own regret
at serve time — only this harness, which actually runs the counterfactuals,
can), alongside per-workload win/loss counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability import get_registry
from repro.query.query import Query

#: The fixed algorithms auto races: the diversity-preserving ones.
RACED = ("onepass", "probe", "naive")

#: Buckets for the regret histogram: regret is a latency-shaped quantity
#: but small (milliseconds over a whole workload), so the buckets start
#: well under a millisecond.
REGRET_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, float("inf"),
)


@dataclass
class RegretReport:
    """Auto vs every fixed racer over one workload."""

    name: str
    queries: int
    k: int
    scored: bool
    repeats: int
    auto_seconds: float = 0.0
    fixed_seconds: Dict[str, float] = field(default_factory=dict)
    choices: Dict[str, int] = field(default_factory=dict)

    @property
    def best_fixed(self) -> str:
        return min(self.fixed_seconds, key=self.fixed_seconds.get)

    @property
    def best_fixed_seconds(self) -> float:
        return min(self.fixed_seconds.values())

    @property
    def regret_seconds(self) -> float:
        """Auto's loss to the oracle (0 when auto beat every fixed run)."""
        return max(0.0, self.auto_seconds - self.best_fixed_seconds)

    @property
    def regret_ratio(self) -> float:
        """auto seconds / best fixed seconds (1.0 = matched the oracle)."""
        best = self.best_fixed_seconds
        return self.auto_seconds / best if best > 0 else 1.0

    def wins_against(self) -> Dict[str, bool]:
        """Per fixed algorithm: did auto run at least as fast?"""
        return {
            algorithm: self.auto_seconds <= seconds
            for algorithm, seconds in self.fixed_seconds.items()
        }

    def as_dict(self) -> Dict:
        return {
            "workload": self.name,
            "queries": self.queries,
            "k": self.k,
            "scored": self.scored,
            "repeats": self.repeats,
            "auto_seconds": round(self.auto_seconds, 6),
            "fixed_seconds": {
                a: round(s, 6) for a, s in sorted(self.fixed_seconds.items())
            },
            "choices": dict(sorted(self.choices.items())),
            "best_fixed": self.best_fixed,
            "regret_seconds": round(self.regret_seconds, 6),
            "regret_ratio": round(self.regret_ratio, 4),
            "wins": self.wins_against(),
        }


def _run_fixed(engine, queries: Sequence[Query], k: int,
               algorithm: str, scored: bool) -> float:
    """Total prepare+execute seconds for one fixed algorithm."""
    total = 0.0
    for query in queries:
        start = time.perf_counter()
        plan = engine.prepare(query, scored)
        engine.execute(plan, k, algorithm, scored)
        total += time.perf_counter() - start
    return total


def _run_auto(engine, queries: Sequence[Query], k: int,
              scored: bool) -> Tuple[float, Dict[str, int]]:
    """Total prepare+plan+execute seconds for auto, plus its choice tally.

    Auto pays for its own planning: the decision is computed inside the
    timed region, exactly as a serving deployment would."""
    total = 0.0
    choices: Dict[str, int] = {}
    for query in queries:
        start = time.perf_counter()
        plan = engine.prepare(query, scored)
        decision = engine.plan(plan, k, scored)
        result = engine.execute(plan, k, "auto", scored, decision=decision)
        total += time.perf_counter() - start
        selected = result.stats.get("algorithm_selected", result.algorithm)
        choices[selected] = choices.get(selected, 0) + 1
    return total, choices


def measure_regret(
    engine,
    queries: Sequence[Query],
    k: int,
    scored: bool = False,
    repeats: int = 3,
    name: str = "workload",
    registry=None,
) -> RegretReport:
    """Race auto against every fixed algorithm in :data:`RACED` over one
    workload.

    Runs ``repeats`` rounds, interleaving the runners within each round and
    keeping each runner's *minimum* total (the repo's standard defence
    against machine-load drift).  The measured regret is recorded into the
    ``repro_plan_regret_ms`` histogram of ``registry`` (default: the
    process registry) labelled by workload.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    queries = list(queries)
    report = RegretReport(
        name=name, queries=len(queries), k=k, scored=scored, repeats=repeats
    )
    best_auto: Optional[float] = None
    best_fixed: Dict[str, float] = {}
    for _ in range(repeats):
        elapsed, choices = _run_auto(engine, queries, k, scored)
        if best_auto is None or elapsed < best_auto:
            best_auto = elapsed
            report.choices = choices
        for algorithm in RACED:
            elapsed = _run_fixed(engine, queries, k, algorithm, scored)
            if algorithm not in best_fixed or elapsed < best_fixed[algorithm]:
                best_fixed[algorithm] = elapsed
    report.auto_seconds = best_auto or 0.0
    report.fixed_seconds = best_fixed
    _record_regret(registry, report)
    return report


def _record_regret(registry, report: RegretReport) -> None:
    """Export one workload's measured regret through the metrics registry."""
    if registry is None:
        registry = get_registry()
    if not registry.enabled:
        return
    registry.histogram(
        "repro_plan_regret_ms",
        help="Measured auto-vs-oracle regret per workload (regret harness)",
        buckets=REGRET_BUCKETS_MS,
        workload=report.name,
    ).observe(report.regret_seconds * 1000.0)
    for algorithm, won in report.wins_against().items():
        registry.counter(
            "repro_plan_races_total",
            help="Regret-harness races of auto against a fixed algorithm",
            versus=algorithm,
            outcome="win" if won else "loss",
        ).inc()


def total_regret(reports: Sequence[RegretReport]) -> Dict:
    """Aggregate verdict over several workloads.

    ``best_fixed`` here is the *single* fixed algorithm that minimises the
    total across all workloads — the honest counterfactual ("what if we had
    hard-coded one algorithm?"), which is exactly the deployment auto
    replaces.  Per-workload oracles are stricter and reported per
    workload.
    """
    algorithms = set()
    for report in reports:
        algorithms.update(report.fixed_seconds)
    totals = {
        algorithm: sum(r.fixed_seconds.get(algorithm, 0.0) for r in reports)
        for algorithm in sorted(algorithms)
    }
    auto_total = sum(r.auto_seconds for r in reports)
    best = min(totals, key=totals.get) if totals else ""
    best_total = totals.get(best, 0.0)
    return {
        "auto_seconds": round(auto_total, 6),
        "fixed_totals": {a: round(s, 6) for a, s in totals.items()},
        "best_fixed": best,
        "best_fixed_seconds": round(best_total, 6),
        "regret_ratio": round(auto_total / best_total, 4) if best_total > 0 else 1.0,
    }
