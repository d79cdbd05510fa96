"""Unit tests for the resilience subsystem and its serving integration.

Covers the building blocks in isolation (error taxonomy, policy/backoff,
deadline, circuit breaker, chaos injection, the FaultyShard proxy) and the
engine-level satellites: persistent thread-pool lifecycle, typed-error
propagation out of batched fan-outs, and the cache's behaviour when
queries fail or degrade.
"""

from __future__ import annotations

import random

import pytest

from faults.chaos import ChaosPolicy, FaultyShard, ShardFaultSpec, inject
from repro import DiversityEngine, ServingCache, ServingEngine
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceededError,
    ResilienceError,
    ResiliencePolicy,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from repro.sharding import ShardedEngine

from .conftest import RANDOM_ORDERING, random_relation


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def test_error_taxonomy_subclassing():
    for cls in (TransientShardError, ShardCrashedError,
                ShardUnavailableError, DeadlineExceededError):
        assert issubclass(cls, ResilienceError)
    assert issubclass(ResilienceError, RuntimeError)


def test_transient_and_crash_errors_carry_context():
    error = TransientShardError(3, "token_postings")
    assert error.shard_id == 3
    assert error.operation == "token_postings"
    assert "shard 3" in str(error)
    crash = ShardCrashedError(1)
    assert crash.shard_id == 1
    assert "shard 1" in str(crash)


def test_shard_unavailable_error_reports_reasons():
    error = ShardUnavailableError({2: "crashed", 0: "circuit open"}, 4)
    assert error.shards_lost == [0, 2]
    assert error.shards_total == 4
    assert "2/4" in str(error)
    assert "crashed" in str(error) and "circuit open" in str(error)


def test_deadline_exceeded_error_carries_budget():
    error = DeadlineExceededError(50.0, 61.2)
    assert error.deadline_ms == 50.0
    assert error.elapsed_ms == 61.2
    assert "50" in str(error)


# ----------------------------------------------------------------------
# Policy + backoff
# ----------------------------------------------------------------------
def test_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(deadline_ms=0)
    # A NaN budget reads as spent (max(0.0, nan) is 0.0): every shard
    # read would be dropped, so it is refused like a negative one.
    with pytest.raises(ValueError):
        ResiliencePolicy(deadline_ms=float("nan"))
    with pytest.raises(ValueError):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        ResiliencePolicy(jitter=1.5)
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_threshold=0.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_window=0)


def test_backoff_grows_exponentially_and_caps():
    policy = ResiliencePolicy(
        backoff_base_ms=2.0, backoff_multiplier=2.0, backoff_cap_ms=10.0,
        jitter=0.0,
    )
    assert [policy.backoff_ms(n) for n in (1, 2, 3, 4, 5)] == \
        [2.0, 4.0, 8.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        policy.backoff_ms(0)


def test_backoff_jitter_is_bounded_and_deterministic():
    policy = ResiliencePolicy(
        backoff_base_ms=8.0, backoff_multiplier=1.0, jitter=0.5,
    )
    draws = [policy.backoff_ms(1, random.Random(42)) for _ in range(5)]
    assert draws == [policy.backoff_ms(1, random.Random(42)) for _ in range(5)]
    for delay in [policy.backoff_ms(1, random.Random(n)) for n in range(50)]:
        assert 4.0 <= delay <= 8.0  # (1 - jitter) * 8 .. 8


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_deadline_counts_down_on_injected_clock():
    clock = FakeClock()
    deadline = Deadline(100.0, clock=clock)
    assert deadline.remaining_ms() == 100.0
    assert not deadline.expired()
    clock.advance(0.060)
    assert deadline.remaining_ms() == pytest.approx(40.0)
    assert deadline.elapsed_ms() == pytest.approx(60.0)
    clock.advance(0.050)
    assert deadline.expired()
    assert deadline.remaining_ms() == 0.0  # clamped, never negative


def test_deadline_unbounded():
    deadline = Deadline.unbounded()
    assert deadline.remaining_ms() == float("inf")
    assert not deadline.expired()
    with pytest.raises(ValueError):
        Deadline(-5.0)
    with pytest.raises(ValueError):
        Deadline(float("nan"))


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_trips_at_threshold_and_recovers():
    clock = FakeClock()
    breaker = CircuitBreaker(
        threshold=0.5, window=4, min_calls=2, cooldown_ms=100.0, clock=clock
    )
    assert breaker.state == CLOSED and breaker.allow()
    breaker.record_failure()
    assert breaker.state == CLOSED  # one outcome < min_calls
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opens == 1
    assert not breaker.allow()
    clock.advance(0.099)
    assert breaker.state == OPEN
    clock.advance(0.002)
    assert breaker.state == HALF_OPEN
    assert breaker.allow()       # the single trial slot
    assert not breaker.allow()   # taken
    breaker.record_success()     # trial healthy: fully closed
    assert breaker.state == CLOSED and breaker.allow()


def test_breaker_half_open_failure_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(
        threshold=1.0, window=4, min_calls=2, cooldown_ms=100.0, clock=clock
    )
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == OPEN
    clock.advance(0.2)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN and breaker.opens == 2
    breaker.reset()
    assert breaker.state == CLOSED


def test_breaker_mixed_outcomes_below_threshold_stay_closed():
    breaker = CircuitBreaker(threshold=0.75, window=4, min_calls=4)
    for ok in (True, False, True, False):
        (breaker.record_success if ok else breaker.record_failure)()
    assert breaker.state == CLOSED
    assert breaker.failure_rate == 0.5


# ----------------------------------------------------------------------
# Chaos policy + FaultyShard
# ----------------------------------------------------------------------
def test_fault_spec_validation():
    with pytest.raises(ValueError):
        ShardFaultSpec(latency_ms=-1.0)
    with pytest.raises(ValueError):
        ShardFaultSpec(transient_rate=1.5)


def test_chaos_streams_are_seeded_and_independent():
    def faults(seed, shard_id, n=200, rate=0.3):
        chaos = ChaosPolicy.transient(rate, seed=seed)
        pattern = []
        for _ in range(n):
            try:
                chaos.before_read(shard_id, "read")
                pattern.append(False)
            except TransientShardError:
                pattern.append(True)
        return pattern

    assert faults(7, 0) == faults(7, 0)          # reproducible
    assert faults(7, 0) != faults(7, 1)          # per-shard streams differ
    assert faults(7, 0) != faults(8, 0)          # seed matters
    assert any(faults(7, 0)) and not all(faults(7, 0))


def test_chaos_crash_and_revive_at_runtime():
    chaos = ChaosPolicy()
    chaos.before_read(0, "read")  # healthy: no-op
    chaos.crash(0)
    with pytest.raises(ShardCrashedError):
        chaos.before_read(0, "read")
    chaos.before_read(1, "read")  # other shards unaffected
    chaos.revive(0)
    chaos.before_read(0, "read")
    assert chaos.injected["crash"] == 1


def test_chaos_latency_uses_injected_sleep():
    naps = []
    chaos = ChaosPolicy(
        default=ShardFaultSpec(latency_ms=25.0), sleep=naps.append
    )
    chaos.before_read(0, "read")
    chaos.before_read(1, "read")
    assert naps == [0.025, 0.025]
    assert chaos.injected["latency"] == 2


def test_faulty_shard_proxies_control_plane_and_injects_reads(cars_index):
    chaos = ChaosPolicy.crash_shards(0)
    shard = FaultyShard(cars_index, 0, chaos)
    # Control plane passes through uninjected.
    assert shard.relation is cars_index.relation
    assert shard.ordering is cars_index.ordering
    assert shard.epoch == cars_index.epoch
    assert len(shard) == len(cars_index)
    assert shard.inner is cars_index
    # Data-path reads crash.
    for read in (
        lambda: shard.scalar_postings("Make", "Honda"),
        lambda: shard.token_postings("Description", "low"),
        lambda: shard.all_postings(),
        lambda: shard.vocabulary("Make"),
    ):
        with pytest.raises(ShardCrashedError):
            read()


def test_inject_and_clear_chaos_round_trip():
    relation = random_relation(random.Random(3), max_rows=20)
    engine = ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=2)
    slots = engine.sharded_index.shards
    bare = list(slots)
    chaos = inject(engine, ChaosPolicy.crash_shards(0)).policy
    assert all(shard.chaos is chaos for shard in slots)
    # Re-injecting replaces rather than stacking wrappers.
    injection = inject(engine, ChaosPolicy())
    assert all(shard.chaos is injection.policy for shard in slots)
    assert all(not isinstance(shard.inner, FaultyShard) for shard in slots)
    injection.undo()
    assert all(shard is original for shard, original in zip(slots, bare))


# ----------------------------------------------------------------------
# Persistent pool lifecycle (satellite 1)
# ----------------------------------------------------------------------
def _small_sharded(workers=0, policy=None, shards=2, seed=11):
    relation = random_relation(random.Random(seed), max_rows=30)
    return ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, workers=workers, policy=policy
    )


def test_sharded_engine_pool_is_persistent_and_closable():
    # Queries without a ``make = v`` conjunct: a routed gather runs on its
    # home shard alone and builds no pool.
    engine = _small_sharded(workers=2)
    assert engine._executor._pool is None  # lazy
    engine.search("color = 'red'", 5, algorithm="naive")
    pool = engine._executor._pool
    assert pool is not None
    engine.search("color = 'blue'", 5, algorithm="naive")
    assert engine._executor._pool is pool  # reused, not rebuilt per query
    engine.close()
    assert engine._executor._pool is None
    engine.close()  # idempotent
    # Usable again after close: the pool is lazily recreated.
    result = engine.search("color = 'red'", 5, algorithm="naive")
    assert result.stats["degraded"] is False
    engine.close()


def test_sharded_engine_context_manager_closes_pool():
    with _small_sharded(workers=2) as engine:
        engine.search("color = 'red'", 5, algorithm="naive")  # fans out
        assert engine._executor._pool is not None
    assert engine._executor._pool is None


def test_plain_engine_close_is_noop():
    relation = random_relation(random.Random(17), max_rows=10)
    with DiversityEngine.from_relation(relation, RANDOM_ORDERING) as engine:
        engine.search("make = 'A'", 3)
    engine.search("make = 'A'", 3)  # still fine after close


# ----------------------------------------------------------------------
# Typed-error propagation out of served searches (satellite 2)
# ----------------------------------------------------------------------
def test_search_surfaces_typed_error_and_pool_survives():
    relation = random_relation(random.Random(19), max_rows=30)
    with ServingEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2,
        policy=ResiliencePolicy(max_retries=0),
    ) as serving:
        inject(serving.engine, ChaosPolicy.crash_shards(0))
        # Neither query is routed (no ``make = v`` conjunct): both must
        # read the dead shard.
        queries = ["color = 'blue'", "model = 'm1' OR color = 'red'"]
        executor = serving.engine._executor
        for query in queries:
            with pytest.raises(ShardUnavailableError) as excinfo:
                serving.search(query, k=5, algorithm="probe")
            assert 0 in excinfo.value.failures
        # The degradable algorithm still answers, on the same fan-out.
        results = [serving.search(query, k=5, algorithm="naive")
                   for query in queries]
        assert serving.engine._executor is executor
        assert all(result.stats["degraded"] for result in results)


def test_search_propagates_typed_error():
    relation = random_relation(random.Random(23), max_rows=30)
    with ServingEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2,
        policy=ResiliencePolicy(max_retries=0),
    ) as serving:
        inject(serving.engine, ChaosPolicy.crash_shards(1))
        with pytest.raises(ShardUnavailableError):
            serving.search("model = 'm1' OR color = 'red'", k=5,
                           algorithm="onepass")


# ----------------------------------------------------------------------
# Cache under failure (satellite 3)
# ----------------------------------------------------------------------
def test_degraded_results_are_never_cached():
    engine = _small_sharded(seed=29)
    cache = ServingCache()
    serving = ServingEngine(engine, cache)
    inject(engine, ChaosPolicy.crash_shards(0))
    first = serving.search("make = 'A' OR make = 'B'", 5, algorithm="naive")
    second = serving.search("make = 'A' OR make = 'B'", 5, algorithm="naive")
    assert first.stats["degraded"] and second.stats["degraded"]
    assert cache.stats.hits == 0
    assert cache.stats.misses == 2  # the degraded answer was not stored
    assert len(cache.results) == 0


def test_cached_full_answer_serves_through_outage_at_same_epoch():
    engine = _small_sharded(seed=31)
    serving = ServingEngine(engine, ServingCache())
    query = "make = 'A' OR make = 'B'"
    healthy = serving.search(query, 5, algorithm="naive")
    assert healthy.stats["degraded"] is False
    chaos = inject(engine, ChaosPolicy.crash_shards(0)).policy
    # Same epoch: the cached full answer keeps serving while the shard is
    # down — the outage is invisible to repeat traffic.
    during = serving.search(query, 5, algorithm="naive")
    assert during.stats["cache_hit"] == 1
    assert not during.stats.get("degraded")
    assert [i.dewey for i in during] == [i.dewey for i in healthy]
    # A *new* query during the outage degrades (and is not cached) ...
    fresh = serving.search("model = 'm1'", 5, algorithm="naive")
    assert fresh.stats["degraded"]
    # ... and once the shard revives, it computes and caches normally.
    chaos.revive(0)
    recovered = serving.search("model = 'm1'", 5, algorithm="naive")
    assert recovered.stats["degraded"] is False
    again = serving.search("model = 'm1'", 5, algorithm="naive")
    assert again.stats["cache_hit"] == 1


def test_mutation_during_outage_invalidates_cached_answer():
    engine = _small_sharded(seed=37)
    serving = ServingEngine(engine, ServingCache())
    query = "make = 'A' OR make = 'B'"
    serving.search(query, 5, algorithm="naive")
    inject(engine, ChaosPolicy.crash_shards(0))
    engine.insert(("A", "m2", "blue", "clean"))  # bumps a shard epoch
    # The cached answer is stale (epoch moved): the re-execution runs
    # against the degraded deployment and must not be served as full.
    result = serving.search(query, 5, algorithm="naive")
    assert result.stats["cache_hit"] == 0
    assert result.stats["degraded"]


def test_resilience_stats_present_on_healthy_sharded_results():
    engine = _small_sharded(seed=41)
    for algorithm in ("naive", "probe"):
        result = engine.search("make = 'A'", 5, algorithm=algorithm)
        stats = result.stats
        assert stats["degraded"] is False
        assert stats["shards_failed"] == 0
        assert stats["shards_total"] == 2
        assert stats["retries"] == 0
        assert stats["deadline_ms"] == 0
