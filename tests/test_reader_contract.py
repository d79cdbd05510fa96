"""One contract, every index reader — and every way into one.

``repro.index.reader.IndexReader`` names the surface the query path reads;
this suite builds each implementation over the same Figure 1 rows and
checks they are interchangeable: same attribute surface, equal
``len``/``epoch``/``depth``, and the four posting reads returning exactly
what the bare :class:`InvertedIndex` returns (nothing, for the empty
reader).

The *materialised* readers are held to the same contract against the
index they came from: an index loaded from a snapshot, recovered from a
store (either shape, log tail included), cloned for a replica set (from a
live shard or a durable one) or rebuilt inside a spawn worker, on every
posting backend and after a few inserts and deletes.  All of them derive
their posting lists with the one offline build, which
:func:`test_materialising_performs_no_posting_insert` pins structurally.
"""

import pytest

from faults.chaos import ChaosPolicy, FaultyShard
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import create_sharded_store, create_store, recover
from repro.index.compressed import CompressedPostingList
from repro.index.inverted import InvertedIndex
from repro.index.postings import BACKENDS, ArrayPostingList, make_posting_list
from repro.index.reader import EMPTY_READER, IndexReader
from repro.index.snapshot import load_index, save_index
from repro.parallel import load_shard_replica
from repro.replication import ReplicaSet, replica_digest
from repro.sharding import ShardedEngine, ShardedIndex
from repro.sharding.engine import RetryingReader

MATERIALISED = [
    "loaded", "recovered", "recovered-shard", "cloned", "cloned-from-store",
    "spawn-replica",
]
READERS = [
    "inverted", "sharded", "durable", "faulty", "replica-set", "retrying",
    *(f"{kind}/{backend}" for kind in MATERIALISED for backend in BACKENDS),
]

NEW_ROWS = [
    ("Tesla", "ModelS", "Red", 2008, "rare electric clean"),
    ("Kia", "Rio", "Green", 2006, "cheap commuter"),
    ("Honda", "Fit", "Orange", 2008, "low miles"),
]


def _bare() -> InvertedIndex:
    return InvertedIndex.build(figure1_relation(), figure1_ordering())


def _mutate(index) -> None:
    """A few inserts and deletes — one of an original row, one of a row
    that was itself only just inserted."""
    relation = index.relation
    rids = [relation.insert(row) for row in NEW_ROWS]
    for rid in rids:
        index.insert(rid)
    for rid in (1, rids[1]):
        relation.delete(rid)
        index.remove(rid)


def _prepare(kind, backend, tmp_path):
    """The mutated origin a materialised reader comes from.  Stores are
    created *before* the mutations, so they all sit in the log tail."""
    if kind in ("loaded", "recovered"):
        origin = InvertedIndex.build(
            figure1_relation(), figure1_ordering(), backend=backend
        )
        if kind == "recovered":
            origin = create_store(origin, tmp_path / "store")
    else:
        origin = ShardedIndex.build(
            figure1_relation(), figure1_ordering(), shards=3, backend=backend
        )
        if kind != "cloned":
            create_sharded_store(origin, tmp_path / "store")
    _mutate(origin)
    return origin


def _materialise(kind, origin, tmp_path):
    """``[(materialised reader, the reader it must equal)]``."""
    if kind == "loaded":
        save_index(origin, tmp_path / "index.idx")
        return [(load_index(tmp_path / "index.idx"), origin)]
    if kind in ("cloned", "cloned-from-store"):
        # ShardedIndex.replicate is the caller of clone_from_index (live
        # primaries) and clone_from_store (durable ones).
        origin.replicate(2)
        return [tuple(reversed(slot.replicas)) for slot in origin.shards]
    for store in getattr(origin, "shards", [origin]):
        store.close()
    if kind == "recovered":
        return [(recover(tmp_path / "store"), origin)]
    if kind == "recovered-shard":
        return list(zip(recover(tmp_path / "store").shards, origin.shards))
    return [
        (load_shard_replica(tmp_path / "store", shard_id), shard)
        for shard_id, shard in enumerate(origin.shards)
    ]


def _close(readers) -> None:
    for reader in readers:
        closer = getattr(reader, "close", None)
        if closer is not None:
            closer()


@pytest.fixture
def reader(request, tmp_path):
    """``(kind, [(reader, the reader it must equal)])``."""
    kind = request.param
    if "/" in kind:
        kind, backend = kind.split("/")
        origin = _prepare(kind, backend, tmp_path)
        pairs = _materialise(kind, origin, tmp_path)
        yield kind, pairs
        _close([origin, *(pair[0] for pair in pairs)])
    elif kind == "inverted":
        yield kind, [(_bare(), _bare())]
    elif kind == "sharded":
        yield kind, [(ShardedIndex.build(
            figure1_relation(), figure1_ordering(), shards=3), _bare())]
    elif kind == "durable":
        with create_store(_bare(), tmp_path / "store") as store:
            yield kind, [(store, _bare())]
    elif kind == "faulty":
        # no faults armed
        yield kind, [(FaultyShard(_bare(), 0, ChaosPolicy()), _bare())]
    elif kind == "replica-set":
        replicas = ReplicaSet.grow(_bare(), 2, shard_id=0)
        yield kind, [(replicas, _bare())]
    else:
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=3
        ) as engine:
            yield kind, [(RetryingReader(
                engine.index, engine._run_with_retries, engine._deadline()
            ), _bare())]


def _reads(index):
    """Every posting read the Figure 1 data (and the rows :func:`_mutate`
    adds) can answer, as plain lists."""
    rows = figure1_relation()
    rows.extend(NEW_ROWS)
    found = {"all": list(index.all_postings())}
    for attribute in ("Make", "Model", "Color", "Year"):
        position = rows.schema.position(attribute)
        values = sorted({row[position] for row in rows})
        # A live index keeps the emptied list of a value whose last row was
        # removed; a rebuilt one never had it.  Only served values count.
        found["vocabulary", attribute] = sorted(
            value for value in index.vocabulary(attribute)
            if len(index.scalar_postings(attribute, value))
        )
        for value in values:
            found[attribute, value] = list(index.scalar_postings(attribute, value))
    for token in ("miles", "low", "rare", "absent"):
        found["token", token] = list(index.token_postings("Description", token))
    return found


def _served_rows(index):
    """The rows behind the postings, in document order."""
    return [
        index.relation[index.dewey.rid_of(dewey)]
        for dewey in index.all_postings()
    ]


@pytest.mark.parametrize("reader", READERS, indirect=True)
def test_reader_matches_the_bare_index(reader):
    """... or, for a materialised reader, the index it came from."""
    kind, pairs = reader
    for copy, origin in pairs:
        assert isinstance(copy, IndexReader)
        assert len(copy) == len(origin)
        assert copy.epoch == origin.epoch
        assert copy.depth == origin.depth
        assert copy.backend == origin.backend
        assert list(copy.ordering.attributes) == list(origin.ordering.attributes)
        assert _served_rows(copy) == _served_rows(origin)
        assert (copy.memory_stats()["postings"]
                >= origin.memory_stats()["postings"])
        assert _reads(copy) == _reads(origin)
        if kind == "spawn-replica":
            # A worker's replica keeps its shard's live rows only, under
            # local dense rids (the gather algorithms never read a rid).
            assert len(copy.dewey) == len(copy.relation) == len(copy)
            continue
        assert list(copy.relation) == list(origin.relation)
        assert len(copy.dewey) == len(origin.dewey)
        assert replica_digest(copy) == replica_digest(origin)
    mutated = kind in MATERIALISED
    assert sum(len(copy) for copy, _ in pairs) == (16 if mutated else 15)
    assert sum(copy.epoch for copy, _ in pairs) == (5 if mutated else 0)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", MATERIALISED)
def test_materialising_performs_no_posting_insert(
    kind, backend, tmp_path, monkeypatch
):
    """Stored state becomes a served index by one bulk build
    (``InvertedIndex.build(dewey=, rids=)``), never by posting rows one
    at a time — for ``load_index``, ``durability.recover`` of either
    shape with a log tail, ``ShardedIndex.replicate`` over in-memory and
    durable primaries, and ``load_shard_replica``."""
    origin = _prepare(kind, backend, tmp_path)
    inserts = []
    for backend_class in (ArrayPostingList, CompressedPostingList):
        monkeypatch.setattr(
            backend_class, "insert",
            lambda self, dewey: inserts.append(dewey),
        )
    pairs = _materialise(kind, origin, tmp_path)
    _close([origin, *(pair[0] for pair in pairs)])
    assert sum(len(copy) for copy, _ in pairs) == 16
    assert inserts == []


def test_empty_reader_has_the_surface_and_reads_nothing():
    assert isinstance(EMPTY_READER, IndexReader)
    assert isinstance(_bare(), IndexReader)
    assert len(EMPTY_READER) == EMPTY_READER.epoch == 0
    assert EMPTY_READER.memory_stats()["postings"] == 0
    reads = _reads(EMPTY_READER)
    assert reads.keys() == _reads(_bare()).keys()
    assert not any(reads.values())


@pytest.mark.parametrize("backend", BACKENDS)
def test_posting_lists_answer_false_to_ids_of_another_depth(backend):
    """An id that is not of the list's depth is in no list: ``remove``
    and ``in`` say so and change nothing, on every backend."""
    postings = [(1, 2, 3), (1, 2, 4), (2, 0, 0)]
    plist = make_posting_list(postings, backend, depth=3)
    for wrong in [(1, 2, 3, 4), (1, 2), ()]:
        assert plist.remove(wrong) is False
        assert wrong not in plist
    assert len(plist) == 3 and list(plist) == postings
