"""Version 2 ≡ version 3: a store whose snapshots the frozen version-2
writer (``tests/reference_snapshot_v2.py``) wrote recovers to exactly the
state a version-3 store of the same index recovers to.

Both stores share one history: online inserts and deletes before the
snapshot (first-come sibling numbers past the sorted ones, forgotten
siblings that leave ``None`` gaps), then a log tail past it, over either
backend, as one single-index store or four shard stores with partial
(rid-subset) snapshots.  Every map of the recovered Dewey space, every
posting list, the relation and the epoch must be equal, and so must the
ID the next insert would take (``peek``), so post-crash inserts land
where they would have before.
"""

from __future__ import annotations

import gzip
import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import create_sharded_store, create_store, recover
from repro.index.inverted import InvertedIndex
from repro.index.postings import BACKENDS
from repro.sharding.sharded_index import ShardedIndex
from repro.storage.relation import Relation

from . import reference_snapshot_v2 as v2
from .test_bulk_build import assert_same_space

SCHEMA = figure1_relation().schema
ROWS = st.tuples(
    st.sampled_from(["Honda", "Toyota", "BMW"]),
    st.sampled_from(["Civic", "Camry", "X5"]),
    st.sampled_from(["Red", "Blue", "Gold"]),
    st.sampled_from([2006, 2007, 2008]),
    st.sampled_from(["low miles", "one owner", "rare"]),
)
#: ``("insert", row)`` appends and indexes a row; ``("delete", n)``
#: tombstones the n-th live rid (modulo the live count).
OPS = st.lists(st.one_of(st.tuples(st.just("insert"), ROWS),
                         st.tuples(st.just("delete"), st.integers(0, 99))),
               max_size=8)


def _apply(target, relation: Relation, ops) -> None:
    for op, argument in ops:
        if op == "insert":
            target.insert(relation.insert(argument))
            continue
        live = sorted(target.dewey.iter_rids())
        if live:
            victim = live[argument % len(live)]
            relation.delete(victim)
            target.remove(victim)


def _stores(recovered) -> list:
    return getattr(recovered, "shards", [recovered])


def _v3_and_v2_stores(tmp: Path, rows, before, tail, backend, shards):
    """Two closed store directories with one history: snapshots written
    by the version-3 writer and by the frozen version-2 writer."""
    relation = Relation.from_rows(SCHEMA, rows, name="Cars")
    if shards == 1:
        index = InvertedIndex.build(relation, figure1_ordering(), backend=backend)
    else:
        index = ShardedIndex.build(relation, figure1_ordering(), shards=shards,
                                   backend=backend)
    _apply(index, relation, before)
    v3_dir, v2_dir = tmp / "v3", tmp / "v2"
    if shards == 1:
        index = create_store(index, v3_dir, fsync_every=0)
    else:
        create_sharded_store(index, v3_dir, fsync_every=0)
    images = {}
    for store in _stores(index):
        owned = None if store._owned is None else sorted(store._owned)
        images[store.snapshot_path.relative_to(v3_dir)] = v2.encode_snapshot(
            v2.build_payload(store.index, rids=owned))
    _apply(index, relation, tail)
    for store in _stores(index):
        store.close()
    shutil.copytree(v3_dir, v2_dir)
    for name, data in images.items():
        (v2_dir / name).write_bytes(data)
    return v3_dir, v2_dir


def _assert_same_postings(actual, expected) -> None:
    assert {key: list(plist) for key, plist in actual._scalar.items()} == {
        key: list(plist) for key, plist in expected._scalar.items()}
    assert {key: list(plist) for key, plist in actual._token.items()} == {
        key: list(plist) for key, plist in expected._token.items()}
    assert list(actual.all_postings()) == list(expected.all_postings())


@settings(max_examples=40, deadline=None)
@given(st.lists(ROWS, max_size=20), OPS, OPS, st.sampled_from(BACKENDS),
       st.sampled_from([1, 4]), ROWS)
def test_v2_store_recovers_to_the_v3_state(rows, before, tail, backend,
                                          shards, later):
    with tempfile.TemporaryDirectory() as tmp:
        v3_dir, v2_dir = _v3_and_v2_stores(Path(tmp), rows, before, tail,
                                           backend, shards)
        from_v3, from_v2 = recover(v3_dir), recover(v2_dir)
        try:
            assert list(from_v2.relation) == list(from_v3.relation)
            assert (from_v2.relation.deleted_rids()
                    == from_v3.relation.deleted_rids())
            assert_same_space(from_v2.dewey, from_v3.dewey)
            assert from_v2.epoch == from_v3.epoch
            for mine, theirs in zip(_stores(from_v2), _stores(from_v3)):
                assert mine.epoch == theirs.epoch
                assert mine.recovery.replayed == theirs.recovery.replayed
                _assert_same_postings(mine.index, theirs.index)
            peeks = [recovered.dewey.peek(recovered.relation.insert(later))
                     for recovered in (from_v2, from_v3)]
            assert peeks[0] == peeks[1]
        finally:
            for store in _stores(from_v3) + _stores(from_v2):
                store.close()


def test_v2_store_rewritten_in_place_recovers(tmp_path):
    """``reference_snapshot_v2.rewrite_store`` (CI's v2 smoke) leaves a
    store whose every snapshot is version 2 and which recovers as before."""
    relation = figure1_relation()
    index = create_sharded_store(
        ShardedIndex.build(relation, figure1_ordering(), shards=4),
        tmp_path / "cluster")
    expected = list(index.all_postings())
    for store in index.shards:
        store.close()
    v2.rewrite_store(tmp_path / "cluster")
    for path in (tmp_path / "cluster").rglob("snapshot.idx"):
        assert json.loads(gzip.decompress(path.read_bytes()))["version"] == 2
    recovered = recover(tmp_path / "cluster")
    try:
        assert list(recovered.all_postings()) == expected
    finally:
        for store in recovered.shards:
            store.close()
