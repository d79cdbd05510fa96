"""One contract, every index reader.

``repro.index.reader.IndexReader`` names the surface the query path reads;
this suite builds each implementation over the same Figure 1 rows and
checks they are interchangeable: same attribute surface, equal
``len``/``epoch``/``depth``, and the four posting reads returning exactly
what the bare :class:`InvertedIndex` returns (nothing, for the empty
reader).
"""

import pytest

from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import create_store
from repro.index.inverted import InvertedIndex
from repro.index.reader import EMPTY_READER, IndexReader
from repro.replication import ReplicaSet
from repro.resilience import ChaosPolicy, FaultyShard
from repro.sharding import ShardedEngine, ShardedIndex
from repro.sharding.engine import RetryingReader

READERS = [
    "inverted", "sharded", "durable", "faulty", "replica-set", "retrying",
]


def _bare() -> InvertedIndex:
    return InvertedIndex.build(figure1_relation(), figure1_ordering())


@pytest.fixture
def reader(request, tmp_path):
    kind = request.param
    if kind == "inverted":
        yield _bare()
    elif kind == "sharded":
        yield ShardedIndex.build(figure1_relation(), figure1_ordering(), shards=3)
    elif kind == "durable":
        with create_store(_bare(), tmp_path / "store") as store:
            yield store
    elif kind == "faulty":
        yield FaultyShard(_bare(), 0, ChaosPolicy())  # no faults armed
    elif kind == "replica-set":
        replicas = ReplicaSet.grow(_bare(), 2, shard_id=0)
        yield replicas
        replicas.close()
    else:
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=3
        ) as engine:
            yield RetryingReader(
                engine.index, engine._run_with_retries, engine._deadline()
            )


def _reads(index):
    """Every posting read the Figure 1 data can answer, as plain lists."""
    rows = figure1_relation()
    found = {"all": list(index.all_postings())}
    for attribute in ("Make", "Model", "Color", "Year"):
        position = rows.schema.position(attribute)
        values = sorted({row[position] for row in rows})
        found["vocabulary", attribute] = sorted(index.vocabulary(attribute))
        for value in values:
            found[attribute, value] = list(index.scalar_postings(attribute, value))
    for token in ("miles", "low", "rare", "absent"):
        found["token", token] = list(index.token_postings("Description", token))
    return found


@pytest.mark.parametrize("reader", READERS, indirect=True)
def test_reader_matches_the_bare_index(reader):
    bare = _bare()
    assert isinstance(reader, IndexReader)
    assert len(reader) == len(bare) == 15
    assert reader.epoch == bare.epoch
    assert reader.depth == bare.depth
    assert reader.backend == bare.backend
    assert list(reader.ordering.attributes) == list(bare.ordering.attributes)
    assert list(reader.relation) == list(bare.relation)
    assert len(reader.dewey) == len(bare.dewey)
    assert reader.memory_stats()["postings"] >= bare.memory_stats()["postings"]
    assert _reads(reader) == _reads(bare)


def test_empty_reader_has_the_surface_and_reads_nothing():
    assert isinstance(EMPTY_READER, IndexReader)
    assert isinstance(_bare(), IndexReader)
    assert len(EMPTY_READER) == EMPTY_READER.epoch == 0
    assert EMPTY_READER.memory_stats()["postings"] == 0
    reads = _reads(EMPTY_READER)
    assert reads.keys() == _reads(_bare()).keys()
    assert not any(reads.values())
