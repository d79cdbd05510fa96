"""Resilience benchmark: what the failure machinery costs and absorbs.

Two questions, answered with numbers:

* **Zero-fault overhead** — the resilience layer (policy checks, breaker
  bookkeeping, deadline plumbing, and the chaos proxy itself at all-zero
  fault rates) must be nearly free on the healthy path.  Each cell times
  the same workload on a bare sharded engine and on one wrapped in a
  zero-fault :class:`ChaosPolicy` (median of alternating repeats); the
  target (recorded in the JSON) is <5% overhead.
* **Tail latency under faults** — with 10% transient faults injected per
  shard read, bounded retries absorb every fault (no failed queries, no
  degraded answers) at a measurable latency cost; with one shard crashed,
  the gather path keeps answering (degraded wherever it needed that
  shard) while paying only the breaker-gated probe.  Latency distributions are reported as p50/p95/p99
  because resilience is a tail phenomenon.

Answers stay correct throughout: transient-only cells assert zero failed
and zero degraded queries; the crash cell asserts that exactly the answers
that read the crashed shard are flagged degraded and none is lost.

Run under pytest (``pytest benchmarks/bench_resilience.py``) or directly
(``python benchmarks/bench_resilience.py --out BENCH_resilience.json``).
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
from repro.resilience import ResiliencePolicy
from repro.sharding import ShardedEngine

DEFAULT_WORKLOAD_QUERIES = 200
K = 10
SHARD_COUNTS = (2, 4)
TAGS = ("UNaive", "UProbe")
TRANSIENT_RATE = 0.10
OVERHEAD_TARGET_PCT = 5.0    # the goal recorded in the JSON report
OVERHEAD_ASSERT_PCT = 25.0   # the test gate (generous: timing noise)
REPEATS = 7                  # timed runs per side of an overhead cell

#: Generous retries, microscopic backoff, breakers disabled (min_calls
#: above the window): transient faults must be fully absorbed, so failed
#: or degraded queries in the transient cells are a correctness bug.
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


def _engine(relation, shards, policy=None):
    return ShardedEngine.from_relation(
        relation, autos_ordering(), shards=shards, policy=policy
    )


def _reads_of_shard(engine, workload, shard):
    """How many queries' gathers read ``shard``: all but those routed to
    another home shard by an equality on the routing attribute."""
    return sum(engine._home_shard(query) in (None, shard) for query in workload)


def _time_zero_fault(relation, workload, tag, shards):
    """(bare_timing, wrapped_timing, overhead_pct) for one cell.

    One run on a 500-row smoke is a few milliseconds, which a scheduler
    hiccup can move by a third, so each side is warmed up once and then
    timed ``REPEATS`` times, bare and wrapped alternating, and the medians
    are compared.
    """
    bare = _engine(relation, shards)
    wrapped = _engine(relation, shards)
    inject(wrapped, ChaosPolicy())  # all-zero fault plan: pure proxy cost
    runs = ([], [])
    for _ in range(1 + REPEATS):
        for engine, timings in zip((bare, wrapped), runs):
            gc.collect()
            timings.append(run_chaos_workload(engine, workload, K, tag))
    base, proxied = (
        sorted(timings[1:], key=lambda t: t.total_seconds)[REPEATS // 2]
        for timings in runs
    )
    assert proxied.results_returned == base.results_returned
    overhead = (
        (proxied.total_seconds - base.total_seconds) / base.total_seconds * 100.0
        if base.total_seconds > 0 else 0.0
    )
    return base, proxied, overhead


def measure(rows, queries=DEFAULT_WORKLOAD_QUERIES):
    """Time every cell; returns a JSON-able dict."""
    relation, workload = _setup(rows, queries)
    overhead_cells = []
    for tag in TAGS:
        for shards in SHARD_COUNTS:
            base, proxied, overhead = _time_zero_fault(
                relation, workload, tag, shards
            )
            overhead_cells.append(
                {
                    "algorithm": tag,
                    "shards": shards,
                    "bare_seconds": round(base.total_seconds, 6),
                    "zero_fault_chaos_seconds": round(proxied.total_seconds, 6),
                    "overhead_pct": round(overhead, 2),
                    "target_pct": OVERHEAD_TARGET_PCT,
                }
            )

    chaos_cells = []
    for tag in TAGS:
        engine = _engine(relation, 4, policy=ABSORB_ALL)
        chaos = inject(engine, ChaosPolicy.transient(TRANSIENT_RATE, seed=7)).policy
        gc.collect()
        timing = run_chaos_workload(engine, workload, K, tag)
        assert timing.failed_queries == 0, f"{tag}: retries must absorb faults"
        assert timing.degraded_queries == 0
        chaos_cells.append(
            {
                "scenario": f"transient {TRANSIENT_RATE:.0%}",
                "algorithm": tag,
                "shards": 4,
                "seconds": round(timing.total_seconds, 6),
                "p50_ms": round(timing.percentile_ms(50), 3),
                "p95_ms": round(timing.percentile_ms(95), 3),
                "p99_ms": round(timing.percentile_ms(99), 3),
                "retries": timing.retries,
                "degraded_queries": timing.degraded_queries,
                "failed_queries": timing.failed_queries,
                "faults_injected": chaos.injected["transient"],
            }
        )

    engine = _engine(relation, 4)
    inject(engine, ChaosPolicy.crash_shards(3))
    gc.collect()
    timing = run_chaos_workload(engine, workload, K, "UNaive")
    assert timing.failed_queries == 0, "gather must degrade, not fail"
    assert timing.degraded_queries == _reads_of_shard(engine, workload, 3)
    chaos_cells.append(
        {
            "scenario": "one shard crashed",
            "algorithm": "UNaive",
            "shards": 4,
            "seconds": round(timing.total_seconds, 6),
            "p50_ms": round(timing.percentile_ms(50), 3),
            "p95_ms": round(timing.percentile_ms(95), 3),
            "p99_ms": round(timing.percentile_ms(99), 3),
            "retries": timing.retries,
            "degraded_queries": timing.degraded_queries,
            "failed_queries": timing.failed_queries,
            "breaker_opens": sum(b.opens for b in engine.health.breakers),
        }
    )

    return {
        "benchmark": "resilience",
        "rows": rows,
        "queries": queries,
        "k": K,
        "transient_rate": TRANSIENT_RATE,
        "python": platform.python_version(),
        "zero_fault_overhead": overhead_cells,
        "under_faults": chaos_cells,
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
    def test_zero_fault_overhead_is_small(tag):
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        _, _, overhead = _time_zero_fault(relation, workload, tag, 4)
        assert overhead < OVERHEAD_ASSERT_PCT, (
            f"{tag}: zero-fault chaos wrapping cost {overhead:.1f}% "
            f"(gate {OVERHEAD_ASSERT_PCT}%, target {OVERHEAD_TARGET_PCT}%)"
        )

    def test_transient_faults_are_absorbed_without_degradation():
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        engine = _engine(relation, 4, policy=ABSORB_ALL)
        inject(engine, ChaosPolicy.transient(TRANSIENT_RATE, seed=7))
        timing = run_chaos_workload(engine, workload, K, "UNaive")
        assert timing.failed_queries == 0
        assert timing.degraded_queries == 0
        assert timing.retries > 0  # the chaos actually fired

    def test_crashed_shard_degrades_every_gather_answer(benchmark):
        relation, workload = _setup(BENCH_ROWS, BENCH_QUERIES)
        engine = _engine(relation, 4)
        inject(engine, ChaosPolicy.crash_shards(3))
        benchmark.group = f"resilience rows={BENCH_ROWS}"
        timing = benchmark.pedantic(
            run_chaos_workload, args=(engine, workload, K, "UNaive"),
            rounds=2, iterations=1,
        )
        assert timing.failed_queries == 0
        assert timing.degraded_queries == _reads_of_shard(engine, workload, 3)


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
        help="write the JSON report here (e.g. BENCH_resilience.json)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = measure(args.rows, args.queries)
    elapsed = time.perf_counter() - started

    print(f"resilience @ {args.rows} rows, {args.queries} queries, k={K}:")
    print(f"  zero-fault overhead (target <{OVERHEAD_TARGET_PCT:g}%):")
    for cell in report["zero_fault_overhead"]:
        print(
            f"    {cell['algorithm']:<8} shards={cell['shards']} "
            f"bare {cell['bare_seconds']:.3f}s  wrapped "
            f"{cell['zero_fault_chaos_seconds']:.3f}s  "
            f"overhead {cell['overhead_pct']:+.1f}%"
        )
    print("  under faults:")
    for cell in report["under_faults"]:
        print(
            f"    {cell['scenario']:<16} {cell['algorithm']:<8} "
            f"p50 {cell['p50_ms']:.2f}ms p95 {cell['p95_ms']:.2f}ms "
            f"p99 {cell['p99_ms']:.2f}ms  retries={cell['retries']} "
            f"degraded={cell['degraded_queries']} failed={cell['failed_queries']}"
        )
    print(f"  [measured in {elapsed:.1f}s]")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
