"""Chaos differential suite: the fault story of the sharded engine.

Three contracts, each under deterministic (seeded) fault injection:

1. **Transient faults are invisible.**  With transient-only chaos and
   retries enabled, every algorithm (all 5, scored and unscored) returns
   answers bit-identical to a fault-free unsharded engine — the retries
   re-run deterministic work, so nothing leaks into the results.
2. **Hard faults degrade or fail fast, per strategy.**  With one shard
   crashed, the scatter-gather algorithms return ``degraded=True``
   answers that are *verified* diverse (Definitions 1-2) over the rows of
   the surviving shards; the coordinator-driven scan algorithms raise a
   structured :class:`ShardUnavailableError` naming the dead shard.
3. **Deadlines bound waiting.**  A gather drops every shard it reaches
   after the deadline (degraded answer from the shards read in time);
   when no shard is read in time the query fails with
   :class:`DeadlineExceededError`.
"""

from __future__ import annotations

import random

import pytest

from faults.chaos import ChaosPolicy, ShardFaultSpec, inject
from repro import DiversityEngine, Query
from repro.core import baselines
from repro.core.engine import ALGORITHMS
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.index.merged import MergedList
from repro.observability import FakeClock, use_registry
from repro.resilience import (
    DeadlineExceededError,
    ResiliencePolicy,
    ShardUnavailableError,
)
from repro.resilience.policy import Deadline
from repro.sharding import ShardedEngine
from repro.sharding.executor import GatherTask

from .conftest import (
    RANDOM_ORDERING,
    fanout_query,
    home_shard,
    random_query,
    random_relation,
)

SHARD_COUNTS = [2, 4]
K_VALUES = [1, 3, 7]

#: Retries generous, backoff microscopic, breaker disabled (min_calls above
#: the window means the failure rate is never trusted): the policy under
#: which transient chaos must be *perfectly* transparent.
TRANSPARENT = ResiliencePolicy(
    max_retries=10,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.05,
    breaker_window=8,
    breaker_min_calls=9,
)

#: Same retry posture but breakers armed with a tiny cooldown, for the
#: crash tests that exercise skip-vs-drop behaviour.
ARMED = ResiliencePolicy(
    max_retries=2,
    backoff_base_ms=0.01,
    backoff_cap_ms=0.05,
    breaker_threshold=0.5,
    breaker_window=4,
    breaker_min_calls=2,
    breaker_cooldown_ms=50.0,
)

GATHER = [("naive", False), ("naive", True), ("basic", False)]
SCAN = [("onepass", False), ("onepass", True), ("probe", False),
        ("probe", True), ("basic", True), ("multq", False), ("multq", True)]


def _payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


def _surviving_matches(engine: ShardedEngine, query, dead: set,
                       scored: bool = False):
    """All matches reachable without the dead shards (chaos bypassed)."""
    matches = {} if scored else []
    for shard_id, shard in enumerate(engine.sharded_index.shards):
        if shard_id in dead:
            continue
        merged = MergedList(query, getattr(shard, "inner", shard))
        if scored:
            matches.update(baselines.collect_all_scored(merged))
        else:
            matches.extend(baselines.collect_all(merged))
    return matches


# ----------------------------------------------------------------------
# 1. Transient faults + retries: bit-identical to fault-free unsharded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_transient_chaos_with_retries_is_invisible(shards):
    rng = random.Random(600 + shards)
    relation = random_relation(rng, max_rows=50)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, policy=TRANSPARENT
    )
    chaos = inject(engine, ChaosPolicy.transient(0.10, seed=shards)).policy
    for trial in range(4):
        query = random_query(rng, weighted=rng.random() < 0.5)
        k = rng.choice(K_VALUES)
        for algorithm in ALGORITHMS:
            for scored in (False, True):
                expected = reference.search(query, k, algorithm=algorithm,
                                            scored=scored)
                actual = engine.search(query, k, algorithm=algorithm,
                                       scored=scored)
                assert _payload(actual) == _payload(expected), (
                    f"shards={shards} algorithm={algorithm} scored={scored} "
                    f"k={k} query={query!r}"
                )
                assert not actual.stats.get("degraded")
    # The chaos actually fired: this suite is only meaningful if faults
    # were injected and retried through.
    assert chaos.injected["transient"] > 0


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_transient_chaos_is_deterministic(shards):
    """Same seed, same faults, same retry counts — reproducible chaos."""
    rng = random.Random(77)
    relation = random_relation(rng, max_rows=40)
    queries = [random_query(random.Random(5 + i)) for i in range(6)]

    def run():
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=shards, policy=TRANSPARENT
        )
        chaos = inject(engine, ChaosPolicy.transient(0.15, seed=99)).policy
        outcomes = []
        for query in queries:
            result = engine.search(query, 5, algorithm="naive")
            outcomes.append((_payload(result), result.stats["retries"]))
        return outcomes, dict(chaos.injected)

    first, first_injected = run()
    second, second_injected = run()
    assert first == second
    assert first_injected == second_injected
    assert first_injected["transient"] > 0


# ----------------------------------------------------------------------
# 2. One shard hard-killed: gather degrades, scan fails fast
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_crashed_shard_degrades_gather_algorithms(shards):
    rng = random.Random(700 + shards)
    relation = random_relation(rng, max_rows=60)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, policy=TRANSPARENT
    )
    dead = shards - 1
    inject(engine, ChaosPolicy.crash_shards(dead))
    degraded_trials = 0
    for trial in range(6):
        query = random_query(rng)
        k = rng.choice(K_VALUES)
        # Degraded exactly when the dead shard is one the query had to
        # read: a ``make = v`` conjunct routes it to its home shard alone.
        lost = home_shard(engine, query) in (None, dead)
        degraded_trials += lost
        for algorithm, scored in GATHER:
            result = engine.search(query, k, algorithm=algorithm, scored=scored)
            assert result.stats["degraded"] is lost
            assert result.stats["shards_failed"] == int(lost)
            assert result.stats["shards_total"] == shards
            if algorithm == "naive" and not scored:
                # The degraded answer is still a valid Definitions 1-2
                # diverse top-k over the reachable rows.
                survivors = _surviving_matches(engine, query, {dead})
                assert is_diverse(result.deweys, survivors, k)
            elif algorithm == "naive" and scored:
                survivors = _surviving_matches(engine, query, {dead},
                                               scored=True)
                assert is_scored_diverse(result.deweys, survivors, k)
            else:  # unscored basic: global first-k of the reachable rows
                survivors = sorted(_surviving_matches(engine, query, {dead}))
                assert result.deweys == survivors[:k]
    assert degraded_trials  # the dead shard was really missed


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_crashed_shard_fails_scan_algorithms_fast(shards):
    rng = random.Random(800 + shards)
    relation = random_relation(rng, max_rows=60)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, policy=TRANSPARENT
    )
    dead = 0
    inject(engine, ChaosPolicy.crash_shards(dead))
    # Queries that must read every shard (match-all, and a disjunction over
    # non-level-1 attributes whose union views fan out).  A level-1 scalar
    # query routes to one shard and may legitimately miss the dead one.
    queries = [
        Query.match_all(),
        Query.disjunction(
            Query.scalar("model", "m1"), Query.scalar("color", "red")
        ),
    ]
    for query in queries:
        for algorithm, scored in SCAN:
            with pytest.raises(ShardUnavailableError) as excinfo:
                engine.search(query, 5, algorithm=algorithm, scored=scored)
            assert dead in excinfo.value.failures
            assert excinfo.value.shards_total == shards
            assert dead in excinfo.value.shards_lost


def test_all_shards_crashed_raises_even_for_gather():
    rng = random.Random(31)
    relation = random_relation(rng, max_rows=30)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=3, policy=TRANSPARENT
    )
    inject(engine, ChaosPolicy.crash_shards(0, 1, 2))
    with pytest.raises(ShardUnavailableError) as excinfo:
        engine.search(random_query(rng), 5, algorithm="naive")
    assert excinfo.value.shards_lost == [0, 1, 2]
    assert all(reason == "crashed" for reason in excinfo.value.failures.values())


def test_breaker_opens_on_crashed_shard_and_skips_it():
    """Repeated hard failures trip the breaker: later queries skip the
    shard (reason 'circuit open') instead of re-probing the corpse."""
    rng = random.Random(37)
    relation = random_relation(rng, max_rows=40)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=3, policy=ARMED
    )
    inject(engine, ChaosPolicy.crash_shards(1))
    # Fan-out queries throughout: a routed one may never ask shard 1.
    for _ in range(4):
        result = engine.search(fanout_query(rng), 5, algorithm="naive")
        assert result.stats["degraded"] is True
    assert engine.health.breakers[1].state == "open"
    assert engine.health[1].hard_failures >= 2
    before = engine.health[1].requests
    result = engine.search(fanout_query(rng), 5, algorithm="naive")
    assert result.stats["degraded"] is True
    assert engine.health[1].requests == before  # skipped, not re-probed
    assert engine.health[1].skipped_open >= 1
    # Scan algorithms fail fast on the open circuit without touching it.
    with pytest.raises(ShardUnavailableError) as excinfo:
        engine.search(fanout_query(rng), 5, algorithm="probe")
    assert excinfo.value.failures == {1: "circuit open"}


def test_revived_shard_recovers_through_half_open():
    """Cooldown -> half-open trial -> closed: the deployment heals."""
    rng = random.Random(41)
    relation = random_relation(rng, max_rows=40)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2, policy=ARMED
    )
    chaos = inject(engine, ChaosPolicy.crash_shards(1)).policy
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    query = fanout_query(rng)  # must read shard 1 to trip and to heal it
    while engine.health.breakers[1].state != "open":
        engine.search(query, 5, algorithm="naive")
    chaos.revive(1)
    import time

    time.sleep(0.06)  # past ARMED's 50 ms cooldown -> half-open
    result = engine.search(query, 5, algorithm="naive")  # trial call succeeds
    assert result.stats["degraded"] is False
    assert engine.health.breakers[1].state == "closed"
    full = engine.search(query, 5, algorithm="naive")
    expected = reference.search(query, 5, algorithm="naive")
    assert _payload(full) == _payload(expected)


# ----------------------------------------------------------------------
# 3. Deadlines
# ----------------------------------------------------------------------
def test_slow_shard_spends_a_serial_gathers_budget():
    """Shard after shard on a fake clock: injected latency on shard 0
    spends the budget, so the loop drops the shard it reaches after it and
    the answer is shard 0's diverse top-k, flagged degraded."""
    rng = random.Random(42)
    relation = random_relation(rng, max_rows=50)
    clock = FakeClock()
    policy = ResiliencePolicy(
        deadline_ms=80.0, max_retries=0,
        breaker_window=8, breaker_min_calls=9,
    )
    with use_registry() as registry:
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, policy=policy,
            clock=clock, sleep=clock.sleep,
        )
        inject(engine, ChaosPolicy(
            per_shard={0: ShardFaultSpec(latency_ms=400.0)}, sleep=clock.sleep))
        query = fanout_query(rng)
        while not _surviving_matches(engine, query, {1}):
            query = fanout_query(rng)  # one shard 0 has rows for
        result = engine.search(query, 5, algorithm="naive")
    assert result.stats["degraded"] is True
    assert result.stats["shards_failed"] == 1
    assert result.stats["deadline_ms"] == 80.0
    assert registry.value("repro_shards_failed_total", reason="deadline") == 1
    assert len(result) > 0
    assert is_diverse(result.deweys, _surviving_matches(engine, query, {1}), 5)
    assert [engine.health[i].deadline_drops for i in range(2)] == [0, 1]


def test_gather_past_its_budget_raises_deadline_exceeded():
    """A gather whose budget is spent before its first shard reads none
    and fails with the budget it had."""
    rng = random.Random(47)
    relation = random_relation(rng, max_rows=30)
    clock = FakeClock()
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2,
        policy=ResiliencePolicy(deadline_ms=60.0, max_retries=0),
        clock=clock, sleep=clock.sleep,
    )
    deadline = Deadline(60.0, clock=clock)
    clock.advance_ms(61.0)
    task = GatherTask("naive", 5, False, engine.prepare(fanout_query(rng)))
    with pytest.raises(DeadlineExceededError) as excinfo:
        engine._executor.scatter(task, deadline)
    assert excinfo.value.deadline_ms == 60.0
    assert excinfo.value.elapsed_ms == pytest.approx(61.0)
    assert [engine.health[i].deadline_drops for i in range(2)] == [1, 1]


def test_scan_deadline_cuts_retry_storm():
    """A scan stuck in transient retries gives up when the budget is gone
    rather than retrying forever."""
    rng = random.Random(53)
    relation = random_relation(rng, max_rows=30)
    policy = ResiliencePolicy(
        deadline_ms=40.0, max_retries=1000,
        backoff_base_ms=30.0, backoff_multiplier=1.0, jitter=0.0,
        breaker_window=8, breaker_min_calls=9,
    )
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2, policy=policy
    )
    inject(engine, ChaosPolicy.transient(1.0, seed=1))  # always flaky
    with pytest.raises(DeadlineExceededError):
        engine.search(random_query(rng), 5, algorithm="probe")


# ----------------------------------------------------------------------
# Mutations keep working under chaos (routing is control-plane)
# ----------------------------------------------------------------------
def test_mutations_survive_chaos_and_answers_recover():
    # Two identical relations (same seed): mutating through one engine must
    # not leak into the other's copy.
    reference = DiversityEngine.from_relation(
        random_relation(random.Random(59), max_rows=30), RANDOM_ORDERING
    )
    engine = ShardedEngine.from_relation(
        random_relation(random.Random(59), max_rows=30),
        RANDOM_ORDERING, shards=3, policy=TRANSPARENT,
    )
    chaos = inject(engine, ChaosPolicy.crash_shards(0)).policy
    row = ("A", "m1", "red", "fun clean")
    assert reference.insert(row) == engine.insert(row)  # mutation uninjected
    chaos.revive(0)
    rng = random.Random(61)
    query = random_query(rng)
    for algorithm in ALGORITHMS:
        a = reference.search(query, 5, algorithm=algorithm)
        b = engine.search(query, 5, algorithm=algorithm)
        assert _payload(a) == _payload(b)
