"""Process-backend differential suite: bit-identical to serial, always.

The tentpole contract of the process fan-out: moving the gather work into
worker processes must be answer-invisible.  Every algorithm (all 5,
scored and unscored), over array and compressed posting backends, at 2
and 4 shards, through fork- and spawn-bootstrapped workers, returns
payloads bit-identical to an unsharded single-threaded engine — and a
mutation between queries is fenced (the stale replica's answer is
rejected and the pool re-bootstrapped at the new epoch), never merged.
"""

from __future__ import annotations

import multiprocessing as mp
import random

import pytest

from repro import DiversityEngine
from repro.core.engine import ALGORITHMS
from repro.durability.sharded import create_sharded_store
from repro.sharding import ShardedEngine

from .conftest import (
    RANDOM_ORDERING,
    fanout_query,
    random_query,
    random_relation,
)

HAS_FORK = "fork" in mp.get_all_start_methods()

SHARD_COUNTS = [2, 4]
BACKENDS = ["array", "compressed"]
K_VALUES = [1, 3, 7]


def _payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


def _trials(rng, count=4):
    """(query, k) pairs mixing weighted and unweighted trees."""
    return [
        (random_query(rng, weighted=trial % 2 == 0), rng.choice(K_VALUES))
        for trial in range(count)
    ]


def _assert_identical(engine, reference, trials, context):
    for query, k in trials:
        for algorithm in ALGORITHMS:
            for scored in (False, True):
                expected = reference.search(
                    query, k, algorithm=algorithm, scored=scored
                )
                actual = engine.search(
                    query, k, algorithm=algorithm, scored=scored
                )
                assert _payload(actual) == _payload(expected), (
                    f"{context} algorithm={algorithm} scored={scored} "
                    f"k={k} query={query!r}"
                )
                assert not actual.stats.get("degraded")


# ----------------------------------------------------------------------
# Fork workers: every algorithm, backend and shard count
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_fork_workers_match_serial(shards, backend):
    rng = random.Random(900 + shards * 10 + len(backend))
    relation = random_relation(rng, max_rows=60)
    reference = DiversityEngine.from_relation(
        relation, RANDOM_ORDERING, backend=backend
    )
    with ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=shards, backend=backend,
        workers=2, worker_mode="fork",
    ) as engine:
        assert engine.resolved_worker_mode == "fork"
        _assert_identical(engine, reference, _trials(rng),
                          f"fork shards={shards} backend={backend}")
        # The pool really was used (the gather algorithms went through it).
        assert engine._executor._pool is not None
        assert engine._executor._pool.width == 2
    assert mp.active_children() == []


# ----------------------------------------------------------------------
# Spawn workers: bootstrap from the durable per-shard snapshot dirs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_spawn_workers_match_serial(tmp_path, backend):
    rng = random.Random(950 + len(backend))
    relation = random_relation(rng, max_rows=50)
    reference = DiversityEngine.from_relation(
        relation, RANDOM_ORDERING, backend=backend
    )
    with ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=2, backend=backend,
        workers=2, worker_mode="spawn",
    ) as engine:
        create_sharded_store(engine.sharded_index, tmp_path)
        _assert_identical(engine, reference, _trials(rng, count=2),
                          f"spawn backend={backend}")
    assert mp.active_children() == []


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_fork_and_spawn_agree(tmp_path):
    """Platform parity: both bootstrap paths serve the same answers."""
    rng = random.Random(42)
    relation = random_relation(rng, max_rows=50)
    trials = _trials(rng, count=3)

    def collect(mode):
        with ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=4, workers=2, worker_mode=mode
        ) as engine:
            if mode == "spawn":
                create_sharded_store(engine.sharded_index, tmp_path)
            return [
                _payload(engine.search(query, k, algorithm=algorithm,
                                       scored=scored))
                for query, k in trials
                for algorithm, scored in (
                    ("naive", False), ("naive", True), ("basic", False)
                )
            ]

    # Spawn first: the store must snapshot the unmutated index.
    spawn_answers = collect("spawn")
    fork_answers = collect("fork")
    assert fork_answers == spawn_answers


# ----------------------------------------------------------------------
# Epoch fencing: mutate between queries, answers stay exact
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_mutation_between_queries_is_fenced_not_merged():
    rng = random.Random(77)
    relation_a = random_relation(random.Random(66), max_rows=40)
    relation_b = random_relation(random.Random(66), max_rows=40)
    reference = DiversityEngine.from_relation(relation_a, RANDOM_ORDERING)
    with ShardedEngine.from_relation(
        relation_b, RANDOM_ORDERING, shards=3, workers=2, worker_mode="fork"
    ) as engine:
        # A fan-out query first: routed gathers alone would build no pool.
        trials = [(fanout_query(rng), 3)] + _trials(rng, count=2)
        _assert_identical(engine, reference, trials, "pre-mutation")
        first_pool = engine._executor._pool
        assert first_pool is not None
        # Mutate: the workers' fork-inherited replicas are now stale.
        for row in [("A", "m1", "red", "fun miles"),
                    ("B", "m2", "blue", "rare clean")]:
            assert reference.insert(row) == engine.insert(row)
        assert first_pool.stale()
        # Every post-mutation answer reflects the new rows exactly: the
        # engine re-bootstrapped the workers rather than merging any
        # stale candidate list.
        _assert_identical(engine, reference, trials, "post-mutation")
        assert engine._executor._pool.built_epochs == \
            engine.sharded_index.shard_epochs()
    assert mp.active_children() == []


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
def test_delete_between_queries_is_fenced():
    rng = random.Random(88)
    relation_a = random_relation(random.Random(99), max_rows=40)
    relation_b = random_relation(random.Random(99), max_rows=40)
    reference = DiversityEngine.from_relation(relation_a, RANDOM_ORDERING)
    with ShardedEngine.from_relation(
        relation_b, RANDOM_ORDERING, shards=2, workers=2, worker_mode="fork"
    ) as engine:
        query, k = _trials(rng, count=1)[0]
        engine.search(query, k, algorithm="naive")  # builds the pool
        victim = next(reference.index.relation.iter_live())[0]
        reference.delete(victim)
        engine.delete(victim)
        _assert_identical(engine, reference, [(query, k)], "post-delete")
    assert mp.active_children() == []
