"""Replication differential suite: exact answers through replica loss.

The acceptance contract of the replication layer, checked end to end under
deterministic chaos: with R >= 2 bit-identical replicas per shard, killing
any *minority* of the replicas of every shard — by hard crash or by an
open circuit breaker — changes nothing.  All five algorithms, scored and
unscored, across shard counts, return answers bit-identical to a
fault-free *unsharded* engine, with ``stats.degraded == False``: failover
is invisible, not a degraded mode.

A slow replica rides the same contract: latency alone never moves a
read off the primary, and answers stay exact.

Set ``REPRO_REPLICA_MAX_CASES=N`` to cap the per-test (algorithm, scored)
case list (the CI smoke uses this; locally the full matrix runs).
"""

from __future__ import annotations

import os
import random

import pytest

from faults.chaos import ChaosPolicy, ShardFaultSpec, inject
from repro import DiversityEngine
from repro.core.engine import ALGORITHMS
from repro.observability import MetricsRegistry, use_registry
from repro.resilience import ResiliencePolicy
from repro.sharding import ShardedEngine

from .conftest import RANDOM_ORDERING, random_query, random_relation

SHARD_COUNTS = [2, 4]
K_VALUES = [1, 3, 7]

#: Every (algorithm, scored) combination the engines serve.
CASES = [(algorithm, scored)
         for algorithm in ALGORITHMS for scored in (False, True)]
_MAX_CASES = int(os.environ.get("REPRO_REPLICA_MAX_CASES", "0"))
if _MAX_CASES > 0:
    CASES = CASES[:_MAX_CASES]

#: Replica breakers effectively disabled (min_calls above the window): the
#: matrix exercises pure crash-driven failover, deterministic and
#: sequential.
TRANSPARENT = ResiliencePolicy(
    max_retries=10,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.05,
    breaker_window=8,
    breaker_min_calls=9,
)

#: Replica breakers armed and trigger-happy, with a cooldown far beyond
#: the test's lifetime: once opened, a breaker stays open — the
#: "replica killed by open circuit" flavour of the acceptance matrix.
ARMED = ResiliencePolicy(
    max_retries=10,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.05,
    breaker_threshold=0.5,
    breaker_window=4,
    breaker_min_calls=2,
    breaker_cooldown_ms=10_000_000.0,
)


def _payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


def _assert_matrix_exact(engine, reference, rng, trials=3):
    """Every algorithm x scored x k: bit-identical and not degraded."""
    for _ in range(trials):
        query = random_query(rng, weighted=rng.random() < 0.5)
        k = rng.choice(K_VALUES)
        for algorithm, scored in CASES:
            expected = reference.search(query, k, algorithm=algorithm,
                                        scored=scored)
            actual = engine.search(query, k, algorithm=algorithm,
                                   scored=scored)
            assert _payload(actual) == _payload(expected), (
                f"algorithm={algorithm} scored={scored} k={k} query={query!r}"
            )
            assert actual.stats["degraded"] is False


def _assert_no_bound_violations(registry):
    assert registry.value("repro_probe_bound_violations_total") == 0
    assert registry.value("repro_onepass_scan_violations_total") == 0


# ----------------------------------------------------------------------
# 1. Crash-killed minority of replicas: bit-identical, never degraded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("replicas", [2, 3])
def test_minority_replica_crash_is_invisible(shards, replicas):
    registry = MetricsRegistry()
    with use_registry(registry):
        rng = random.Random(900 + 10 * shards + replicas)
        relation = random_relation(rng, max_rows=50)
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=shards,
            policy=TRANSPARENT, replicas=replicas,
        )
        chaos = inject(engine, ChaosPolicy(seed=shards)).policy
        # Kill one replica of EVERY shard — a different one per shard, so
        # both "primary dead" and "follower dead" failover paths run.
        for shard_id in range(shards):
            chaos.crash(shard_id, replica_id=shard_id % replicas)
        _assert_matrix_exact(engine, reference, rng)
        # Failover actually happened wherever the primary copy was killed.
        assert any(
            replica_set.failovers > 0
            for replica_set in engine.sharded_index.shards
        )
        assert chaos.injected["crash"] > 0
        _assert_no_bound_violations(registry)
        engine.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_maximal_minority_crash_with_three_replicas(shards):
    """R=3 with TWO of three copies dead on every shard: still exact."""
    registry = MetricsRegistry()
    with use_registry(registry):
        rng = random.Random(950 + shards)
        relation = random_relation(rng, max_rows=40)
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=shards,
            policy=TRANSPARENT, replicas=3,
        )
        chaos = inject(engine, ChaosPolicy(seed=7)).policy
        survivor = {shard_id: (shard_id + 2) % 3 for shard_id in range(shards)}
        for shard_id in range(shards):
            for replica_id in range(3):
                if replica_id != survivor[shard_id]:
                    chaos.crash(shard_id, replica_id=replica_id)
        _assert_matrix_exact(engine, reference, rng, trials=2)
        _assert_no_bound_violations(registry)
        engine.close()


# ----------------------------------------------------------------------
# 2. Breaker-killed replica (open circuit, no crash): same contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_open_breaker_replica_kill_is_invisible(shards):
    rng = random.Random(1000 + shards)
    relation = random_relation(rng, max_rows=50)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards,
        policy=ARMED, replicas=2,
    )
    # Trip replica 0's breaker on every shard by recording hard failures
    # directly — the replica is healthy, its circuit just says no.
    for replica_set in engine.sharded_index.shards:
        breaker = replica_set.breakers[0]
        while breaker.state != "open":
            breaker.record_failure()
    _assert_matrix_exact(engine, reference, rng)
    for replica_set in engine.sharded_index.shards:
        rows = replica_set.health_rows()
        # The open circuit sorts the copy out of the preference order
        # entirely: it is never probed, and the survivor serves everything.
        assert rows[0]["breaker"] == "open"
        assert rows[0]["requests"] == 0
        assert rows[1]["successes"] > 0
    engine.close()


# ----------------------------------------------------------------------
# 3. Crash + flake mix across shards and replicas
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_mixed_crash_and_transient_replicas(shards):
    """A crashed copy on one shard, an always-flaky copy on another —
    replica failover absorbs both without spending engine retries."""
    rng = random.Random(1100 + shards)
    relation = random_relation(rng, max_rows=50)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards,
        policy=ResiliencePolicy(max_retries=0, breaker_window=8,
                                breaker_min_calls=9),
        replicas=2,
    )
    chaos = inject(engine, ChaosPolicy(seed=3, per_shard={
        (0, 0): ShardFaultSpec(crashed=True),
        (shards - 1, 0): ShardFaultSpec(transient_rate=1.0),
    })).policy
    _assert_matrix_exact(engine, reference, rng)
    assert chaos.injected["crash"] > 0
    assert chaos.injected["transient"] > 0
    engine.close()


# ----------------------------------------------------------------------
# 4. A slow (never failing) primary: exact, served by the primary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_slow_replica_reads_stay_exact_and_bounded(shards):
    registry = MetricsRegistry()
    with use_registry(registry):
        rng = random.Random(1200 + shards)
        relation = random_relation(rng, max_rows=50)
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=shards,
            policy=TRANSPARENT, replicas=2,
        )
        chaos = inject(engine, ChaosPolicy(seed=5)).policy
        # Latency-only chaos on every primary: slow is not failed, so no
        # read fails over and the healthy follower is never read.
        for shard_id in range(shards):
            chaos.set_spec((shard_id, 0), ShardFaultSpec(latency_ms=8.0))
        _assert_matrix_exact(engine, reference, rng, trials=2)
        assert chaos.injected["latency"] > 0
        for replica_set in engine.sharded_index.shards:
            assert replica_set.failovers == 0
            rows = replica_set.health_rows()
            assert rows[0]["transient_failures"] == rows[0]["hard_failures"] == 0
            assert rows[1]["requests"] == 0
        assert registry.value("repro_degraded_queries_total") == 0
        _assert_no_bound_violations(registry)
        engine.close()


# ----------------------------------------------------------------------
# 5. Deterministic replay: same seed, same faults, same failovers
# ----------------------------------------------------------------------
def test_replicated_chaos_is_deterministic():
    """On a fake clock (breaker windows and cooldowns never depend on
    wall time), the whole failure path replays exactly: same faults drawn, same failovers, same answers."""
    from repro.observability import FakeClock

    relation = random_relation(random.Random(71), max_rows=40)
    queries = [random_query(random.Random(90 + i)) for i in range(5)]

    def run():
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2,
            policy=TRANSPARENT, replicas=2, clock=FakeClock(),
        )
        chaos = inject(engine, ChaosPolicy(seed=13, per_shard={
            (0, 0): ShardFaultSpec(transient_rate=0.4),
            (1, 1): ShardFaultSpec(crashed=True),
        })).policy
        payloads = [
            _payload(engine.search(query, 5, algorithm=algorithm))
            for query in queries
            for algorithm in ("naive", "probe")
        ]
        failovers = [
            replica_set.failovers
            for replica_set in engine.sharded_index.shards
        ]
        injected = dict(chaos.injected)
        engine.close()
        return payloads, failovers, injected

    first = run()
    second = run()
    assert first == second
    assert first[2]["transient"] > 0
