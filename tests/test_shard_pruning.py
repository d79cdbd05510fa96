"""Shard pruning, differentially: a query that pins the routing attribute
runs on its home shard alone and returns the unsharded engine's answer.

Rows route on the ordering's top attribute, so every match of a plan that
is a leaf ``top = v``, or a top-level AND holding one, lives in
``router.shard_of(v)``.  The sharded engine hands that one shard's reader
to the unmodified driver; this suite holds the result — rids, deweys,
scores and both probe counters — against a fault-free *unsharded* engine
across shard counts, replica counts and every algorithm but
``multq`` (which keeps the union reader), and counts posting reads per
shard to show exactly one shard was asked.  The failure story follows: a
routed query is hostage to its home shard only.

``REPRO_REPLICA_MAX_CASES=N`` caps the (algorithm, scored) case list, as
in ``test_replication_differential.py`` (the CI smoke sets it).
"""

from __future__ import annotations

import os
import random

import pytest

from faults.chaos import ChaosPolicy, inject
from repro import DiversityEngine, Query
from repro.core.engine import ALGORITHMS
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.reader import ReaderProxy
from repro.observability import FakeClock
from repro.query.query import AND, OR
from repro.replication import ReplicaSet
from repro.resilience import ResiliencePolicy, ShardUnavailableError
from repro.serving import ServingEngine
from repro.sharding import ShardedEngine

from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    home_shard,
    random_relation,
)

CASES = [(algorithm, scored)
         for algorithm in ALGORITHMS if algorithm != "multq"
         for scored in (False, True)]
_MAX_CASES = int(os.environ.get("REPRO_REPLICA_MAX_CASES", "0"))
if _MAX_CASES > 0:
    CASES = CASES[:_MAX_CASES]


class _CountingReader(ReaderProxy):
    """Stands in for one physical copy of a shard; counts posting reads."""

    __slots__ = ("_target", "reads")

    def __init__(self, target):
        self._target = target
        self.reads = 0

    def scalar_postings(self, attribute, value):
        self.reads += 1
        return self._target.scalar_postings(attribute, value)

    def token_postings(self, attribute, token):
        self.reads += 1
        return self._target.token_postings(attribute, token)

    def all_postings(self):
        self.reads += 1
        return self._target.all_postings()

    def vocabulary(self, attribute):
        self.reads += 1
        return self._target.vocabulary(attribute)


def _count_reads(engine):
    """Wrap every copy of every shard; the counters, grouped by shard."""
    slots = engine.sharded_index.shards
    by_shard = []
    for shard_id, slot in enumerate(slots):
        if isinstance(slot, ReplicaSet):
            slot._replicas = [_CountingReader(copy) for copy in slot._replicas]
            by_shard.append(slot._replicas)
        else:
            slots[shard_id] = _CountingReader(slot)
            by_shard.append([slots[shard_id]])
    return by_shard


def _shards_read(by_shard):
    """The shards asked for a posting list since the last call."""
    touched = set()
    for shard_id, copies in enumerate(by_shard):
        for copy in copies:
            if copy.reads:
                touched.add(shard_id)
            copy.reads = 0
    return touched


def _routed_queries(rng):
    """``(query, routed when scored)`` pairs, each pinning ``make``."""
    def make(value=None):
        weight = float(rng.randint(1, 3))
        return Query.scalar("make", value or rng.choice(MAKES), weight=weight)

    color = Query.scalar("color", rng.choice(COLORS), weight=2.0)
    word = Query.keyword("desc", rng.choice(WORDS))
    either = Query.disjunction(
        Query.scalar("model", rng.choice(MODELS)), Query.keyword("desc", "low"))
    return [
        (make(), True),
        (Query.conjunction(make(), color), True),
        (Query.conjunction(word, make()), True),
        (Query.conjunction(make(), either), True),
        (Query.conjunction(make("A"), make("B"), color), True),
        (make("Z"), True),                      # a value no row carries
        # A conjunct one level down (under a one-child OR): the normaliser
        # lifts it for unscored plans; a scored plan keeps the nesting and
        # fans out — a missed saving, never a wrong shard.
        (Query(AND, children=(
            Query(OR, children=(Query.conjunction(make(), color),)), word)),
         False),
    ]


def _items(result):
    return [(item.rid, item.dewey, item.score) for item in result]


def _probe_counts(result):
    return result.stats["next_calls"], result.stats["scored_next_calls"]


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_routed_queries_match_unsharded_and_read_one_shard(shards, replicas):
    rng = random.Random(4000 + 100 * shards + 10 * replicas + 4)
    relation = random_relation(rng, max_rows=60)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, replicas=replicas)
    by_shard = _count_reads(engine)
    for query, routed_when_scored in _routed_queries(rng):
        k = rng.choice([1, 3, 7])
        for algorithm, scored in CASES:
            expected = reference.search(query, k, algorithm=algorithm,
                                        scored=scored)
            plan = engine.prepare(query, scored)
            home = home_shard(engine, plan)
            assert (home is not None) is (routed_when_scored or not scored)
            _shards_read(by_shard)  # forget what planning read
            actual = engine.execute(plan, k, algorithm, scored)
            context = f"{algorithm} scored={scored} k={k} {query!r}"
            assert _items(actual) == _items(expected), context
            assert actual.stats["degraded"] is False
            if home is not None:
                # One shard, the unsharded run's probes (a fan-out gather
                # sums them over shards).  Two contradicting values read
                # nothing: the cursor compiler answers without a fetch.
                assert _probe_counts(actual) == _probe_counts(expected), context
                assert _shards_read(by_shard) <= {home}, context
    engine.close()


def test_routed_probe_reads_its_home_shard(monkeypatch):
    """The counts of the acceptance criteria, on one 4x2 deployment."""
    from repro.sharding import executor

    relation = random_relation(random.Random(77), max_rows=60)
    engine = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=4, replicas=2)
    by_shard = _count_reads(engine)
    gathered = []
    compute = executor.compute_candidates
    monkeypatch.setattr(
        executor, "compute_candidates",
        lambda shard, *rest: gathered.append(shard) or compute(shard, *rest))
    plan = engine.prepare("make = 'B' AND color = 'red'")
    home = engine.sharded_index.router.shard_of("B")
    _shards_read(by_shard)
    engine.execute(plan, 5, "probe")
    assert _shards_read(by_shard) == {home}
    result = engine.execute(plan, 5, "naive")
    assert _shards_read(by_shard) == {home}
    assert len(gathered) == 1  # one shard is not a fan-out
    assert result.stats["shards_queried"] == 1
    # multq enumerates the vocabulary: it keeps the union reader.
    engine.execute(plan, 5, "multq")
    assert _shards_read(by_shard) == {0, 1, 2, 3}
    engine.close()


# ----------------------------------------------------------------------
# Failure story: hostage to the home shard only
# ----------------------------------------------------------------------
ONE_STRIKE = ResiliencePolicy(max_retries=0, breaker_min_calls=1,
                              breaker_threshold=0.5,
                              breaker_cooldown_ms=1000.0)


def _figure1_serving(clock=None, **options):
    extra = {} if clock is None else {"clock": clock}
    serving = ServingEngine.from_relation(
        figure1_relation(), figure1_ordering(), shards=4, policy=ONE_STRIKE,
        **extra, **options)
    router = serving.engine.sharded_index.router
    return serving, router.shard_of("Honda")


def test_routed_gather_ignores_a_crashed_foreign_shard():
    serving, home = _figure1_serving()
    reference = DiversityEngine.from_relation(
        figure1_relation(), figure1_ordering())
    inject(serving.engine, ChaosPolicy.crash_shards((home + 1) % 4))
    first = serving.search("Make = 'Honda'", 3, algorithm="naive")
    expected = reference.search("Make = 'Honda'", 3, algorithm="naive")
    assert [item.rid for item in first] == [item.rid for item in expected]
    assert first.stats["degraded"] is False
    assert first.stats["shards_failed"] == 0
    # Complete, so cacheable.
    again = serving.search("Make = 'Honda'", 3, algorithm="naive")
    assert again.stats["cache_hit"] == 1
    serving.close()


def test_routed_gather_without_its_home_shard_is_degraded_and_empty():
    serving, home = _figure1_serving()
    inject(serving.engine, ChaosPolicy.crash_shards(home))
    for _ in range(2):  # the breaker is open by the second round
        result = serving.search("Make = 'Honda'", 3, algorithm="naive")
        assert list(result) == []
        assert result.stats["degraded"] is True
        assert result.stats["shards_failed"] == 1
        assert result.stats["cache_hit"] == 0  # never cached
    serving.close()


def test_routed_scan_is_hostage_to_its_home_circuit_only():
    serving, home = _figure1_serving()
    engine = serving.engine
    reference = DiversityEngine.from_relation(
        figure1_relation(), figure1_ordering())
    expected = reference.search("Make = 'Honda'", 3, algorithm="probe")
    foreign = (home + 1) % 4
    engine.health.record_hard(foreign)
    assert engine.health.open_shards() == [foreign]
    result = engine.search("Make = 'Honda'", 3, algorithm="probe")
    assert [item.rid for item in result] == [item.rid for item in expected]
    assert result.stats["degraded"] is False
    # A scan that needs every shard is still refused.
    with pytest.raises(ShardUnavailableError):
        engine.search("Color = 'Blue'", 3, algorithm="probe")
    engine.health.record_hard(home)
    with pytest.raises(ShardUnavailableError) as excinfo:
        engine.search("Make = 'Honda'", 3, algorithm="probe")
    assert excinfo.value.failures == {home: "circuit open"}
    serving.close()


def test_scan_credits_only_the_shards_it_read():
    """Regression: every completed scan ended with ``record_success`` for
    *every* shard, so a level-1 lookup on shard 1 closed the half-open
    circuit of a shard 0 whose only request ever had crashed — the trial
    slot was never used."""
    clock = FakeClock()
    engine = ShardedEngine.from_relation(
        figure1_relation(), figure1_ordering(), shards=4, policy=ONE_STRIKE,
        clock=clock, sleep=clock.sleep)
    home = engine.sharded_index.router.shard_of("Ford")
    dead = (home + 1) % 4
    chaos = inject(engine, ChaosPolicy.crash_shards(dead)).policy
    engine.search("Color = 'Blue'", 3, algorithm="naive")
    assert engine.health.breakers[dead].state == "open"
    clock.advance(1.5)
    assert engine.health.breakers[dead].state == "half_open"

    engine.search("Make = 'Ford'", 3, algorithm="probe")
    assert engine.health.breakers[dead].state == "half_open"
    assert engine.health[dead].successes == 0
    assert engine.health[home].successes == 2  # the gather, then the scan

    # A union scan is what re-trips it ...
    with pytest.raises(ShardUnavailableError):
        engine.search("Color = 'Blue'", 3, algorithm="probe")
    assert engine.health.breakers[dead].state == "open"
    # ... or, once the shard is back, closes it.
    chaos.revive(dead)
    clock.advance(1.5)
    engine.search("Color = 'Blue'", 3, algorithm="probe")
    assert engine.health.breakers[dead].state == "closed"
    assert engine.health[dead].successes == 1
    engine.close()
