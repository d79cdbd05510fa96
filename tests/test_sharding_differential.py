"""Differential proof of the sharding layer (PR tentpole).

The contract under test: a :class:`repro.sharding.ShardedEngine` over any
shard count answers every query *bit-identically* to an unsharded
:class:`repro.core.engine.DiversityEngine` over the same rows — same Dewey
IDs, same rids, same materialised values, same scores, same order — for all
five algorithms, scored and unscored, and across
interleaved insert/delete mutations.

Stats are deliberately *not* compared: the scatter-gather paths report
aggregate per-shard probe counts, which legitimately differ from a single
index scan.  (The coordinator-driven paths do match probe-for-probe, but
that is an implementation detail, not the contract.)
"""

from __future__ import annotations

import random

import pytest

from repro import DiversityEngine, Relation
from repro.core.engine import ALGORITHMS
from repro.sharding import (
    GATHER_ALGORITHMS,
    HashRouter,
    ShardedEngine,
    ShardedIndex,
    UnionPostingView,
)

from .conftest import COLORS, MAKES, MODELS, RANDOM_ORDERING, WORDS, random_query, random_relation

SHARD_COUNTS = [1, 2, 3, 8]
K_VALUES = [1, 3, 7]


def _payload(result):
    """Everything the caller observes, minus stats (see module docstring)."""
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


def _clone(relation: Relation) -> Relation:
    """An independent copy: mutations to one must not leak into the other."""
    rows = [row for _, row in relation.iter_live()]
    return Relation.from_rows(relation.schema, rows, name=relation.name)


def _assert_identical(reference: DiversityEngine, sharded: ShardedEngine, query, k):
    for algorithm in ALGORITHMS:
        for scored in (False, True):
            expected = reference.search(query, k, algorithm=algorithm, scored=scored)
            actual = sharded.search(query, k, algorithm=algorithm, scored=scored)
            assert _payload(actual) == _payload(expected), (
                f"shards={sharded.num_shards} algorithm={algorithm} "
                f"scored={scored} k={k} query={query!r}"
            )


# ----------------------------------------------------------------------
# Static differential: random relations, random queries, every combination
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_answers_match_unsharded(shards):
    rng = random.Random(1000 * shards + 4)
    for trial in range(4):
        relation = random_relation(rng, max_rows=60)
        reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        sharded = ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=shards)
        assert sharded.num_shards == shards
        for _ in range(6):
            query = random_query(rng, weighted=rng.random() < 0.5)
            k = rng.choice(K_VALUES)
            _assert_identical(reference, sharded, query, k)


def test_sharded_matches_on_figure1(cars):
    """The paper's own example, every algorithm, a spread of k."""
    from repro.data.paper_example import figure1_ordering

    reference = DiversityEngine.from_relation(cars, figure1_ordering())
    for shards in SHARD_COUNTS:
        sharded = ShardedEngine.from_relation(
            _clone(cars), figure1_ordering(), shards=shards
        )
        for k in (1, 5, 10, 20):
            _assert_identical(reference, sharded, "Make = 'Honda'", k)
            _assert_identical(
                reference,
                sharded,
                "Make = 'Honda' [2] OR Description CONTAINS 'low'",
                k,
            )


# ----------------------------------------------------------------------
# Interleaved mutations: inserts and deletes routed mid-workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_answers_match_after_interleaved_mutations(shards):
    rng = random.Random(77 + shards)
    base = random_relation(rng, max_rows=40)
    reference = DiversityEngine.from_relation(base, RANDOM_ORDERING)
    sharded = ShardedEngine.from_relation(
        _clone(base), RANDOM_ORDERING, shards=shards, workers=4
    )
    live = list(range(len(base)))
    for _ in range(30):
        op = rng.random()
        if op < 0.35:
            row = (
                rng.choice(MAKES),
                rng.choice(MODELS),
                rng.choice(COLORS),
                " ".join(rng.sample(WORDS, rng.randint(1, 3))),
            )
            rid_a = reference.insert(row)
            rid_b = sharded.insert(row)
            assert rid_a == rid_b  # identical arrival order => identical rids
            live.append(rid_a)
        elif op < 0.55 and live:
            rid = live.pop(rng.randrange(len(live)))
            assert reference.delete(rid)
            assert sharded.delete(rid)
        else:
            query = random_query(rng, weighted=rng.random() < 0.5)
            _assert_identical(reference, sharded, query, rng.choice(K_VALUES))
    # One final full sweep after all mutations settled.
    _assert_identical(reference, sharded, random_query(rng), 5)


def test_mutations_bump_exactly_one_shard_epoch():
    rng = random.Random(5)
    relation = random_relation(rng, max_rows=30)
    sharded = ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=4)
    for _ in range(10):
        before = sharded.shard_epochs()
        rid = sharded.insert(
            (rng.choice(MAKES), rng.choice(MODELS), rng.choice(COLORS), "fun")
        )
        after = sharded.shard_epochs()
        bumped = [i for i in range(4) if after[i] != before[i]]
        assert bumped == [sharded.sharded_index.shard_of(rid)]
        assert sharded.epoch == sum(after)


# ----------------------------------------------------------------------
# The scatter-gather process pool must not change any answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_worker_pool_answers_equal_sequential(algorithm):
    rng = random.Random(11)
    relation = random_relation(rng, max_rows=60)
    sequential = ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=3)
    pooled = ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=3, workers=4
    )
    assert pooled.workers == 4
    for _ in range(8):
        query = random_query(rng)
        k = rng.choice(K_VALUES)
        for scored in (False, True):
            a = sequential.search(query, k, algorithm=algorithm, scored=scored)
            b = pooled.search(query, k, algorithm=algorithm, scored=scored)
            assert _payload(a) == _payload(b)
            assert a.stats == b.stats  # same fan-out, same probe totals


def test_gather_stats_report_fanout():
    rng = random.Random(13)
    relation = random_relation(rng, max_rows=50)
    sharded = ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=3)
    for algorithm in GATHER_ALGORITHMS:
        result = sharded.search(random_query(rng), 5, algorithm=algorithm)
        assert result.stats["shards_queried"] == 3
        assert result.stats["merge_candidates"] >= len(result)


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
def test_hash_router_is_stable_and_in_range():
    router = HashRouter(5)
    values = ["Honda", "Toyota", 3, 3.5, True, ""]
    placements = [router.shard_of(value) for value in values]
    assert placements == [router.shard_of(value) for value in values]
    assert all(0 <= shard < 5 for shard in placements)
    # The typed hash must not conflate equal-repr values of different types.
    assert router.shard_of("3") is not None  # routes, regardless of int 3



# ----------------------------------------------------------------------
# The union posting view and the sharded index protocol
# ----------------------------------------------------------------------
def test_union_posting_view_is_read_only_and_consistent():
    rng = random.Random(21)
    relation = random_relation(rng, max_rows=40)
    single = DiversityEngine.from_relation(relation, RANDOM_ORDERING).index
    sharded = ShardedIndex.build(relation, RANDOM_ORDERING, shards=3)
    view = sharded.all_postings()
    assert isinstance(view, UnionPostingView)
    reference = single.all_postings()
    assert list(view) == list(reference)
    assert len(view) == len(reference)
    assert view.first() == reference.first()
    assert view.last() == reference.last()
    for dewey in list(reference)[:10]:
        assert view.seek(dewey) == reference.seek(dewey)
        assert view.seek_floor(dewey) == reference.seek_floor(dewey)
    probe = reference.first()
    with pytest.raises(TypeError):
        view.insert(probe)
    with pytest.raises(TypeError):
        view.remove(probe)


def test_level1_postings_route_to_one_shard():
    """Top-attribute lookups skip the fan-out: co-location guarantees the
    whole posting list lives on the owning shard."""
    rng = random.Random(23)
    relation = random_relation(rng, max_rows=40)
    sharded = ShardedIndex.build(relation, RANDOM_ORDERING, shards=3)
    for make in MAKES:
        postings = sharded.scalar_postings("make", make)
        assert not isinstance(postings, UnionPostingView)
        owner = sharded.router.shard_of(make)
        assert list(postings) == list(
            sharded.shards[owner].scalar_postings("make", make)
        )


def test_sharded_index_partitions_every_row_once():
    rng = random.Random(29)
    relation = random_relation(rng, max_rows=50)
    sharded = ShardedIndex.build(relation, RANDOM_ORDERING, shards=4)
    assert len(sharded) == len(relation)
    assert sum(len(shard) for shard in sharded.shards) == len(relation)
    seen = set()
    for shard in sharded.shards:
        deweys = set(shard.all_postings())
        assert not (seen & deweys)  # disjoint
        seen |= deweys
    assert seen == set(sharded.dewey.all_deweys())


def test_sharded_vocabulary_matches_single_index():
    rng = random.Random(31)
    relation = random_relation(rng, max_rows=40)
    single = DiversityEngine.from_relation(relation, RANDOM_ORDERING).index
    sharded = ShardedIndex.build(relation, RANDOM_ORDERING, shards=3)
    for attribute in RANDOM_ORDERING:
        assert sorted(
            sharded.vocabulary(attribute), key=repr
        ) == sorted(single.vocabulary(attribute), key=repr)


def test_sharded_index_rejects_bad_shard_count():
    rng = random.Random(37)
    relation = random_relation(rng, max_rows=10)
    with pytest.raises(ValueError, match="positive"):
        ShardedIndex.build(relation, RANDOM_ORDERING, shards=0)
    with pytest.raises(ValueError, match="workers"):
        ShardedEngine.from_relation(relation, RANDOM_ORDERING, shards=2, workers=-1)


def test_single_shard_degenerates_to_plain_index():
    """shards=1 must behave exactly like the unsharded build — including
    serving direct (non-view) posting lists."""
    rng = random.Random(41)
    relation = random_relation(rng, max_rows=30)
    sharded = ShardedIndex.build(relation, RANDOM_ORDERING, shards=1)
    assert not isinstance(sharded.all_postings(), UnionPostingView)
    single = DiversityEngine.from_relation(relation, RANDOM_ORDERING).index
    assert list(sharded.all_postings()) == list(single.all_postings())
