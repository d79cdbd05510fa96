"""Satellite suite: sharded snapshot round trips.

A sharded deployment persisted through per-shard snapshots (plus empty
WALs) and recovered must answer every query bit-identically to the
original, for several shard counts and all five diversity
algorithms, scored and unscored."""

import pytest

from repro.core.engine import ALGORITHMS
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import create_sharded_store, recover
from repro.sharding import ShardedEngine, ShardedIndex

QUERIES = [
    "Make = 'Honda'",
    "Color = 'Green'",
    "Make = 'Honda' AND Model = 'Civic'",
    "Color = 'Green' OR Description CONTAINS 'miles'",
    "Description CONTAINS 'clean'",
]


def _answers(index, algorithm, scored):
    engine = ShardedEngine(index)
    try:
        return [
            [
                (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
                for item in engine.search(
                    query, k=4, algorithm=algorithm, scored=scored
                ).items
            ]
            for query in QUERIES
        ]
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_roundtrip_bit_identical(tmp_path, shards):
    relation = figure1_relation()
    index = ShardedIndex.build(relation, figure1_ordering(), shards=shards)
    create_sharded_store(index, tmp_path / "cluster")
    for shard in index.shards:
        shard.close()
    recovered = recover(tmp_path / "cluster")

    assert recovered.num_shards == index.num_shards
    assert list(recovered.relation) == list(index.relation)
    for algorithm in ALGORITHMS:
        for scored in (False, True):
            assert _answers(recovered, algorithm, scored) == _answers(
                index, algorithm, scored
            ), f"{algorithm} scored={scored} diverged after round trip"


def test_roundtrip_after_mutations(tmp_path):
    relation = figure1_relation()
    index = ShardedIndex.build(relation, figure1_ordering(), shards=2)
    create_sharded_store(index, tmp_path / "cluster")
    for row in [
        ("Tesla", "ModelS", "Red", 2008, "rare electric clean"),
        ("Kia", "Rio", "Green", 2006, "cheap commuter"),
    ]:
        index.insert(relation.insert(row))
    relation.delete(3)
    index.remove(3)
    for shard in index.shards:
        shard.close()
    recovered = recover(tmp_path / "cluster")
    for algorithm in ALGORITHMS:
        assert _answers(recovered, algorithm, True) == _answers(
            index, algorithm, True
        )
