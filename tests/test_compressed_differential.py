"""Differential proof of the compressed posting backend (PR tentpole).

The contract: an engine over ``backend="compressed"`` answers every query
*bit-identically* to the sorted-array backend — same Dewey IDs, same rids,
same materialised values, same scores, same order — for all five
algorithms, scored and unscored, sharded (1/2/4 shards) and unsharded,
across interleaved insert/delete mutations, and through a snapshot
save/load cycle (which stores no posting buffers: they are rebuilt).
"""

from __future__ import annotations

import random

import pytest

from repro import DiversityEngine, Relation
from repro.core.engine import ALGORITHMS
from repro.core.ordering import DiversityOrdering
from repro.index.inverted import InvertedIndex
from repro.index.snapshot import (
    build_payload,
    load_index,
    save_index,
    write_snapshot,
)
from repro.sharding import ShardedEngine

from . import reference_snapshot_v2 as v2
from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    random_query,
    random_relation,
)

SHARD_COUNTS = [1, 2, 4]
K_VALUES = [1, 3, 7]


def _payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


def _clone(relation: Relation) -> Relation:
    rows = [row for _, row in relation.iter_live()]
    return Relation.from_rows(relation.schema, rows, name=relation.name)


def _assert_identical(reference, candidate, query, k, context=""):
    for algorithm in ALGORITHMS:
        for scored in (False, True):
            expected = reference.search(query, k, algorithm=algorithm, scored=scored)
            actual = candidate.search(query, k, algorithm=algorithm, scored=scored)
            assert _payload(actual) == _payload(expected), (
                f"{context} algorithm={algorithm} scored={scored} "
                f"k={k} query={query!r}"
            )


def _random_row(rng):
    return (
        rng.choice(MAKES),
        rng.choice(MODELS),
        rng.choice(COLORS),
        " ".join(rng.sample(WORDS, rng.randint(1, 3))),
    )


# ----------------------------------------------------------------------
# Static differential: unsharded, every algorithm
# ----------------------------------------------------------------------
def test_compressed_matches_array_unsharded():
    rng = random.Random(4021)
    for trial in range(5):
        relation = random_relation(rng, max_rows=60)
        reference = DiversityEngine.from_relation(
            relation, RANDOM_ORDERING, backend="array"
        )
        candidate = DiversityEngine.from_relation(
            _clone(relation), RANDOM_ORDERING, backend="compressed"
        )
        for _ in range(6):
            query = random_query(rng, weighted=rng.random() < 0.5)
            _assert_identical(
                reference, candidate, query, rng.choice(K_VALUES),
                context=f"trial={trial}",
            )


def test_compressed_matches_on_figure1(cars):
    from repro.data.paper_example import figure1_ordering

    reference = DiversityEngine.from_relation(cars, figure1_ordering())
    candidate = DiversityEngine.from_relation(
        _clone(cars), figure1_ordering(), backend="compressed"
    )
    for k in (1, 5, 10, 20):
        _assert_identical(reference, candidate, "Make = 'Honda'", k)
        _assert_identical(
            reference,
            candidate,
            "Make = 'Honda' [2] OR Description CONTAINS 'low'",
            k,
        )


# ----------------------------------------------------------------------
# Sharded differential: 1, 2 and 4 compressed shards vs unsharded array
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_compressed_matches_unsharded_array(shards):
    rng = random.Random(900 + shards)
    for trial in range(3):
        relation = random_relation(rng, max_rows=60)
        reference = DiversityEngine.from_relation(
            relation, RANDOM_ORDERING, backend="array"
        )
        candidate = ShardedEngine.from_relation(
            _clone(relation), RANDOM_ORDERING, shards=shards,
            backend="compressed",
        )
        for _ in range(5):
            query = random_query(rng, weighted=rng.random() < 0.5)
            _assert_identical(
                reference, candidate, query, rng.choice(K_VALUES),
                context=f"shards={shards} trial={trial}",
            )


# ----------------------------------------------------------------------
# Interleaved mutations: inserts and deletes mid-workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_compressed_matches_after_interleaved_mutations(shards):
    rng = random.Random(555 + shards)
    base = random_relation(rng, max_rows=40)
    reference = DiversityEngine.from_relation(base, RANDOM_ORDERING)
    candidate = ShardedEngine.from_relation(
        _clone(base), RANDOM_ORDERING, shards=shards, backend="compressed"
    )
    live = list(range(len(base)))
    for _ in range(30):
        op = rng.random()
        if op < 0.35:
            row = _random_row(rng)
            rid_a = reference.insert(row)
            rid_b = candidate.insert(row)
            assert rid_a == rid_b
            live.append(rid_a)
        elif op < 0.55 and live:
            rid = live.pop(rng.randrange(len(live)))
            assert reference.delete(rid)
            assert candidate.delete(rid)
        else:
            query = random_query(rng, weighted=rng.random() < 0.5)
            _assert_identical(
                reference, candidate, query, rng.choice(K_VALUES),
                context=f"shards={shards}",
            )
    _assert_identical(reference, candidate, random_query(rng), 5)


def test_unsharded_compressed_mutation_differential():
    """Enough churn to force tail compactions and tombstone merges."""
    rng = random.Random(808)
    base = random_relation(rng, max_rows=30)
    reference = DiversityEngine.from_relation(base, RANDOM_ORDERING)
    candidate = DiversityEngine.from_relation(
        _clone(base), RANDOM_ORDERING, backend="compressed"
    )
    live = list(range(len(base)))
    for step in range(120):
        if rng.random() < 0.6:
            row = _random_row(rng)
            assert reference.insert(row) == candidate.insert(row)
            live.append(len(live))
        elif live:
            rid = live.pop(rng.randrange(len(live)))
            assert reference.delete(rid) == candidate.delete(rid)
        if step % 20 == 19:
            _assert_identical(
                reference, candidate, random_query(rng), rng.choice(K_VALUES)
            )
    assert reference.index.dewey.all_deweys() == candidate.index.dewey.all_deweys()


# ----------------------------------------------------------------------
# Snapshot differential: a mutated compressed index answers identically
# after a round trip, with or without a stale packed-postings section
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stale_postings_key", [False, True])
def test_compressed_snapshot_round_trip_answers_identically(
    tmp_path, stale_postings_key,
):
    rng = random.Random(2718)
    relation = random_relation(rng, max_rows=50)
    index = InvertedIndex.build(
        relation, DiversityOrdering(RANDOM_ORDERING), backend="compressed"
    )
    engine = DiversityEngine(index)
    for _ in range(15):
        engine.insert(_random_row(rng))
    for rid in rng.sample(range(len(relation)), k=len(relation) // 4):
        engine.delete(rid)

    path = tmp_path / "compressed.idx"
    if stale_postings_key:
        # A version-2 file written while snapshots still shipped packed
        # buffers: the key is covered by the digest and otherwise ignored
        # (the Dewey table was always authoritative).
        payload = v2.build_payload(index)
        payload["postings"] = {"all": {"data": "bm90IHBvc3RpbmdzIGF0IGFsbA=="},
                               "scalar": [], "token": []}
        path.write_bytes(v2.encode_snapshot(payload))
    else:
        payload = build_payload(index)
        assert "postings" not in payload
        write_snapshot(payload, path)
    assert payload["backend"] == "compressed"
    restored = load_index(path)
    assert restored.backend == "compressed"
    assert restored.dewey.all_deweys() == index.dewey.all_deweys()

    reference = DiversityEngine(index)
    candidate = DiversityEngine(restored)
    for _ in range(8):
        query = random_query(rng, weighted=rng.random() < 0.5)
        _assert_identical(reference, candidate, query, rng.choice(K_VALUES))


def test_compressed_snapshot_roundtrips_like_array(tmp_path):
    """Array and compressed snapshots of the same rows restore to engines
    that answer identically — the wire format changes, the answers don't."""
    rng = random.Random(31415)
    relation = random_relation(rng, max_rows=40)
    engines = {}
    for backend in ("array", "compressed"):
        index = InvertedIndex.build(
            _clone(relation), DiversityOrdering(RANDOM_ORDERING), backend=backend
        )
        path = tmp_path / f"{backend}.idx"
        save_index(index, path)
        engines[backend] = DiversityEngine(load_index(path))
    for _ in range(8):
        query = random_query(rng, weighted=rng.random() < 0.5)
        _assert_identical(
            engines["array"], engines["compressed"], query, rng.choice(K_VALUES)
        )
