"""Timing harness for the Section V experiments.

Runs a workload of queries against one algorithm and reports the total
response time, mimicking the paper's methodology:

* "We report the total time for running a workload of ... different
  queries" — we time query compilation + execution, per query, and sum.
* For ``Naive`` the paper explicitly excludes the diverse-subset selection
  step ("We do not include the time this algorithm takes to choose a
  diverse set of size k from its result"), so the harness times only the
  full evaluation for that algorithm.

Workload sizes and data scales are configurable; the environment variables
``REPRO_BENCH_QUERIES`` and ``REPRO_BENCH_ROWS`` override the defaults so
the full paper scale (5000 queries, 100K rows) is one export away.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.core import baselines
from repro.core.diversify import diverse_subset, scored_diverse_subset
from repro.core.onepass import one_pass_scored, one_pass_unscored
from repro.core.probing import probe_scored, probe_unscored
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.query.query import Query
from repro.resilience import ResilienceError

#: Paper algorithm names (Section V) -> (internal name, scored flag).
ALGORITHM_TAGS = {
    "UNaive": ("naive", False),
    "UBasic": ("basic", False),
    "UOnePass": ("onepass", False),
    "UProbe": ("probe", False),
    "MultQ": ("multq", False),
    "SNaive": ("naive", True),
    "SBasic": ("basic", True),
    "SOnePass": ("onepass", True),
    "SProbe": ("probe", True),
    "SMultQ": ("multq", True),
    # Ablation-only variant: one-pass with skipping disabled.
    "UOnePassNoSkip": ("onepass-noskip", False),
}


@dataclass
class WorkloadTiming:
    """Outcome of one algorithm over one workload."""

    algorithm: str
    total_seconds: float
    queries: int
    results_returned: int
    next_calls: int
    scored_next_calls: int
    queries_issued: int = 0
    shards: int = 1                  # index partitions (1 = unsharded)
    workers: int = 0                 # fan-out worker pool (0 = sequential)
    worker_mode: str = "serial"      # fan-out backend (serial/fork/spawn)

    @property
    def mean_ms(self) -> float:
        if self.queries == 0:
            return 0.0
        return 1000.0 * self.total_seconds / self.queries


@dataclass
class ResilientTiming(WorkloadTiming):
    """A :class:`WorkloadTiming` plus per-query latencies and failure tallies.

    Produced by :func:`run_chaos_workload`.  Under fault injection,
    queries may degrade (answered from surviving shards) or
    fail outright (structured :class:`~repro.resilience.ResilienceError`),
    and tail latency matters as much as the mean — ``latencies_ms`` keeps
    the full per-query distribution for percentile reporting.
    """

    degraded_queries: int = 0     # answers served from surviving shards only
    failed_queries: int = 0       # ResilienceError raised (no answer at all)
    retries: int = 0              # shard-call retries spent across the run
    latencies_ms: List[float] = field(default_factory=list)

    def percentile_ms(self, p: float) -> float:
        """The p-th latency percentile (nearest-rank); 0.0 when empty."""
        if not self.latencies_ms:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ranked = sorted(self.latencies_ms)
        rank = max(0, min(len(ranked) - 1, math.ceil(p * len(ranked) / 100.0) - 1))
        return ranked[rank]


def env_int(name: str, default: int) -> int:
    """Integer environment override with validation."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


def run_one(
    index: InvertedIndex, query: Query, k: int, tag: str
) -> tuple[float, int, Dict[str, int]]:
    """Execute one query; returns (timed seconds, #results, stats)."""
    name, scored = ALGORITHM_TAGS[tag]
    stats: Dict[str, int] = {}
    if name == "multq":
        start = time.perf_counter()
        if scored:
            results, issued = baselines.multq_scored(index, query, k)
        else:
            results, issued = baselines.multq_unscored(index, query, k)
        elapsed = time.perf_counter() - start
        stats["queries_issued"] = issued
        return elapsed, len(results), stats
    start = time.perf_counter()
    merged = MergedList(query, index)
    if name == "naive":
        # Timed: the full evaluation.  Untimed: the diverse selection.
        if scored:
            matches = baselines.collect_all_scored(merged)
        else:
            matches = baselines.collect_all(merged)
        elapsed = time.perf_counter() - start
        if scored:
            results = scored_diverse_subset(matches, k)
        else:
            results = diverse_subset(matches, k)
    else:
        if name == "basic":
            results = (
                baselines.basic_scored(merged, k)
                if scored
                else baselines.basic_unscored(merged, k)
            )
        elif name == "onepass":
            results = (
                one_pass_scored(merged, k) if scored else one_pass_unscored(merged, k)
            )
        elif name == "onepass-noskip":
            results = one_pass_unscored(merged, k, use_skips=False)
        elif name == "probe":
            results = probe_scored(merged, k) if scored else probe_unscored(merged, k)
        else:
            raise ValueError(f"unknown algorithm tag {tag!r}")
        elapsed = time.perf_counter() - start
    stats["next_calls"] = merged.next_calls
    stats["scored_next_calls"] = merged.scored_next_calls
    return elapsed, len(results), stats


def run_workload(
    index: InvertedIndex,
    queries: Sequence[Query],
    k: int,
    tag: str,
) -> WorkloadTiming:
    """Run a whole workload with one algorithm; sums per-query times."""
    if tag not in ALGORITHM_TAGS:
        raise ValueError(
            f"unknown algorithm tag {tag!r}; choose from {sorted(ALGORITHM_TAGS)}"
        )
    total = 0.0
    returned = 0
    next_calls = 0
    scored_next_calls = 0
    issued = 0
    for query in queries:
        elapsed, count, stats = run_one(index, query, k, tag)
        total += elapsed
        returned += count
        next_calls += stats.get("next_calls", 0)
        scored_next_calls += stats.get("scored_next_calls", 0)
        issued += stats.get("queries_issued", 0)
    return WorkloadTiming(
        algorithm=tag,
        total_seconds=total,
        queries=len(queries),
        results_returned=returned,
        next_calls=next_calls,
        scored_next_calls=scored_next_calls,
        queries_issued=issued,
    )


def run_chaos_workload(
    engine,
    queries: Sequence[Query],
    k: int,
    tag: str,
) -> ResilientTiming:
    """Run a workload through an engine, cache-free.

    Accepts any :class:`~repro.core.engine.DiversityEngine` — in particular
    a (possibly chaos-injected) :class:`repro.sharding.ShardedEngine` — and
    times ``prepare`` + ``execute`` per query, mirroring
    :func:`run_workload`'s methodology so sharded and unsharded timings
    compare directly.  Under faults a query may come back *degraded*
    (gather algorithms over surviving shards), raise a structured
    :class:`~repro.resilience.ResilienceError` (scan algorithms with a
    shard down, or an exhausted deadline), or simply take longer because
    of retries.  All three are tallied rather than propagated, and the full
    per-query latency distribution is kept so benchmarks can report tails
    honestly.
    """
    if tag not in ALGORITHM_TAGS:
        raise ValueError(
            f"unknown algorithm tag {tag!r}; choose from {sorted(ALGORITHM_TAGS)}"
        )
    name, scored = ALGORITHM_TAGS[tag]
    if name not in ("naive", "basic", "onepass", "probe", "multq"):
        raise ValueError(f"algorithm tag {tag!r} has no engine-level equivalent")
    total = 0.0
    returned = 0
    next_calls = 0
    scored_next_calls = 0
    issued = 0
    degraded = 0
    failed = 0
    retries = 0
    latencies: List[float] = []
    for query in queries:
        start = time.perf_counter()
        try:
            plan = engine.prepare(query, scored)
            result = engine.execute(plan, k, name, scored)
        except ResilienceError:
            elapsed = time.perf_counter() - start
            failed += 1
        else:
            elapsed = time.perf_counter() - start
            returned += len(result)
            next_calls += result.stats.get("next_calls", 0)
            scored_next_calls += result.stats.get("scored_next_calls", 0)
            issued += result.stats.get("queries_issued", 0)
            retries += result.stats.get("retries", 0)
            if result.stats.get("degraded"):
                degraded += 1
        total += elapsed
        latencies.append(elapsed * 1000.0)
    return ResilientTiming(
        algorithm=tag,
        total_seconds=total,
        queries=len(queries),
        results_returned=returned,
        next_calls=next_calls,
        scored_next_calls=scored_next_calls,
        queries_issued=issued,
        shards=getattr(engine, "num_shards", 1),
        workers=getattr(engine, "workers", 0),
        worker_mode=getattr(engine, "resolved_worker_mode", "serial"),
        degraded_queries=degraded,
        failed_queries=failed,
        retries=retries,
        latencies_ms=latencies,
    )


def run_matrix(
    index: InvertedIndex,
    queries: Sequence[Query],
    k: int,
    tags: Iterable[str],
) -> List[WorkloadTiming]:
    """Run several algorithms over the same workload."""
    return [run_workload(index, queries, k, tag) for tag in tags]
