"""Replication benchmark: what exact-answer failover costs and buys.

Two questions, answered with numbers:

* **Availability through replica loss** — with replica 0 of *every*
  shard crashed, an unreplicated deployment loses scan queries outright
  and degrades gather answers; with R >= 2 every query is answered
  exactly (zero failed, zero degraded) at the cost of one failover per
  shard read.  Availability is reported per replica count.
* **Healthy-path overhead** — the :class:`~repro.replication.ReplicaSet`
  indirection (preference ordering, breaker bookkeeping, per-replica
  health) must be nearly free when nothing fails.  Each cell times the
  same workload on an unreplicated engine and on an R=2 deployment with
  no faults; the target (recorded in the JSON) is <5% overhead.

Correctness rides along: every cell asserts zero probe/onepass bound
violations from the metrics registry.

Run under pytest (``pytest benchmarks/bench_replication.py``) or directly
(``python benchmarks/bench_replication.py --out BENCH_replication.json``).
Scales follow ``REPRO_BENCH_ROWS`` / ``REPRO_BENCH_QUERIES``.
"""

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faults.chaos import ChaosPolicy, inject
from paper.harness import env_int, run_chaos_workload
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.observability import MetricsRegistry, use_registry
from repro.resilience import ResiliencePolicy
from repro.sharding import ShardedEngine

DEFAULT_WORKLOAD_QUERIES = 200
K = 10
SHARDS = 4
TAGS = ("UNaive", "UProbe")
REPLICA_COUNTS = (1, 2, 3)
OVERHEAD_TARGET_PCT = 5.0    # the goal recorded in the JSON report
OVERHEAD_ASSERT_PCT = 25.0   # the test gate (generous: timing noise)

#: Generous retries, breakers disabled (min_calls above the window):
#: replica failover must absorb every fault, so failed or degraded
#: queries in any replicated cell are a correctness bug.
ABSORB_ALL = ResiliencePolicy(
    max_retries=50, backoff_base_ms=0.01, backoff_cap_ms=0.1,
    breaker_window=8, breaker_min_calls=9,
)

_CACHE = {}


def _setup(rows, queries=DEFAULT_WORKLOAD_QUERIES):
    key = (rows, queries)
    if key not in _CACHE:
        relation = generate_autos(AutosSpec(rows=rows, seed=42))
        workload = WorkloadGenerator(
            relation,
            WorkloadSpec(queries=queries, predicates=1, selectivity=0.5, seed=1),
        ).materialise()
        _CACHE[key] = (relation, workload)
    return _CACHE[key]


def _engine(relation, replicas):
    return ShardedEngine.from_relation(
        relation, autos_ordering(), shards=SHARDS, policy=ABSORB_ALL,
        replicas=replicas,
    )


def _assert_no_bound_violations(registry):
    assert registry.value("repro_probe_bound_violations_total") == 0
    assert registry.value("repro_onepass_scan_violations_total") == 0


def _failovers(engine):
    return sum(
        getattr(replica_set, "failovers", 0)
        for replica_set in engine.sharded_index.shards
    )


def _availability_cell(relation, workload, tag, replicas):
    """Crash copy 0 of every shard; measure what survives."""
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = _engine(relation, replicas)
        chaos = inject(engine, ChaosPolicy(seed=7)).policy
        for shard_id in range(SHARDS):
            if replicas > 1:
                chaos.crash(shard_id, replica_id=0)
            else:
                # Unreplicated shards have no replica address: losing
                # "copy 0" means losing the shard itself — total outage.
                chaos.crash(shard_id)
        gc.collect()
        timing = run_chaos_workload(engine, workload, K, tag)
        _assert_no_bound_violations(registry)
        if replicas > 1:
            # Replica failover makes the loss invisible — by contract.
            assert timing.failed_queries == 0, (
                f"{tag} R={replicas}: failover must absorb the crash")
            assert timing.degraded_queries == 0
        answered = timing.queries - timing.failed_queries
        exact = answered - timing.degraded_queries
        cell = {
            "algorithm": tag,
            "replicas": replicas,
            "shards": SHARDS,
            "seconds": round(timing.total_seconds, 6),
            "p50_ms": round(timing.percentile_ms(50), 3),
            "p99_ms": round(timing.percentile_ms(99), 3),
            "failed_queries": timing.failed_queries,
            "degraded_queries": timing.degraded_queries,
            "availability_pct": round(answered / timing.queries * 100.0, 2),
            "exact_pct": round(exact / timing.queries * 100.0, 2),
            "failovers": _failovers(engine),
        }
        engine.close()
        return cell


def _overhead_cell(relation, workload, tag, trials=3):
    """Fault-free R=1 vs R=2 timings; best of ``trials`` each (timeit
    methodology — sub-50ms cells are dominated by scheduler noise)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        bare = _engine(relation, replicas=1)
        replicated = _engine(relation, replicas=2)
        gc.collect()
        base = min(
            (run_chaos_workload(bare, workload, K, tag)
             for _ in range(trials)),
            key=lambda timing: timing.total_seconds,
        )
        doubled = min(
            (run_chaos_workload(replicated, workload, K, tag)
             for _ in range(trials)),
            key=lambda timing: timing.total_seconds,
        )
        assert doubled.results_returned == base.results_returned
        assert _failovers(replicated) == 0  # healthy path: primaries only
        bare.close()
        replicated.close()
        _assert_no_bound_violations(registry)
    overhead = (
        (doubled.total_seconds - base.total_seconds)
        / base.total_seconds * 100.0
        if base.total_seconds > 0 else 0.0
    )
    return {
        "algorithm": tag,
        "shards": SHARDS,
        "unreplicated_seconds": round(base.total_seconds, 6),
        "replicated_seconds": round(doubled.total_seconds, 6),
        "overhead_pct": round(overhead, 2),
        "target_pct": OVERHEAD_TARGET_PCT,
    }


def measure(rows, queries=DEFAULT_WORKLOAD_QUERIES):
    """Time every cell; returns a JSON-able dict."""
    relation, workload = _setup(rows, queries)
    availability = [
        _availability_cell(relation, workload, tag, replicas)
        for tag in TAGS
        for replicas in REPLICA_COUNTS
    ]
    overhead = [_overhead_cell(relation, workload, tag) for tag in TAGS]
    return {
        "benchmark": "replication",
        "rows": rows,
        "queries": queries,
        "k": K,
        "shards": SHARDS,
        "python": platform.python_version(),
        "availability_under_replica_loss": availability,
        "healthy_path_overhead": overhead,
    }


# ----------------------------------------------------------------------
# pytest entry points (same shape as the other benchmarks)
# ----------------------------------------------------------------------
try:
    import pytest
except ImportError:  # pragma: no cover - direct script runs without pytest
    pytest = None

if pytest is not None:
    BENCH_ROWS = env_int("REPRO_BENCH_ROWS", 5000)
    BENCH_QUERIES = env_int("REPRO_BENCH_QUERIES", DEFAULT_WORKLOAD_QUERIES)

    @pytest.mark.parametrize("tag", TAGS)
    def test_replica_failover_keeps_full_availability(tag):
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        cell = _availability_cell(relation, workload, tag, replicas=2)
        assert cell["availability_pct"] == 100.0
        assert cell["exact_pct"] == 100.0
        assert cell["failovers"] > 0  # the crash was actually on the path

    @pytest.mark.parametrize("tag", TAGS)
    def test_healthy_path_overhead_is_small(tag):
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        cell = _overhead_cell(relation, workload, tag)
        assert cell["overhead_pct"] < OVERHEAD_ASSERT_PCT, (
            f"{tag}: replication cost {cell['overhead_pct']:.1f}% on the "
            f"healthy path (gate {OVERHEAD_ASSERT_PCT}%, "
            f"target {OVERHEAD_TARGET_PCT}%)"
        )


# ----------------------------------------------------------------------
# Script entry point: print + persist the report
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=env_int("REPRO_BENCH_ROWS", 5000))
    parser.add_argument(
        "--queries", type=int,
        default=env_int("REPRO_BENCH_QUERIES", DEFAULT_WORKLOAD_QUERIES),
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON report here (e.g. BENCH_replication.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = measure(args.rows, args.queries)
    elapsed = time.perf_counter() - started

    print(f"replication @ {args.rows} rows, {args.queries} queries, "
          f"k={K}, shards={SHARDS}:")
    print("  availability with replica 0 of every shard crashed:")
    for cell in report["availability_under_replica_loss"]:
        print(
            f"    {cell['algorithm']:<8} R={cell['replicas']} "
            f"answered {cell['availability_pct']:6.2f}%  exact "
            f"{cell['exact_pct']:6.2f}%  failovers={cell['failovers']} "
            f"p99 {cell['p99_ms']:.2f}ms"
        )
    print(f"  healthy-path overhead (target <{OVERHEAD_TARGET_PCT:g}%):")
    for cell in report["healthy_path_overhead"]:
        print(
            f"    {cell['algorithm']:<8} bare "
            f"{cell['unreplicated_seconds']:.3f}s  R=2 "
            f"{cell['replicated_seconds']:.3f}s  "
            f"overhead {cell['overhead_pct']:+.1f}%"
        )
    print(f"  [measured in {elapsed:.1f}s]")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
