"""Differential suite: the one-sort, one-walk offline build and restore
against the per-row code they replaced (``tests/reference_bulk_build.py``).

Every map a Dewey space holds — rid -> ID (in its iteration order for a
fresh build), ID -> rid, the sibling dictionaries both ways and the
uniqueness counters — and every posting list must come out equal, for
fresh builds, restores after online inserts and deletes (first-come
sibling numbers, gaps in the reverse tables), both backends and the row
subsets a sharded build routes.  Each restore refusal must raise the same
error class as before.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import DiversityOrdering
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.dewey_index import DeweyAssignmentError, DeweyIndex
from repro.index.inverted import InvertedIndex
from repro.index.postings import BACKENDS
from repro.index.snapshot import (
    SnapshotError,
    build_payload,
    payload_tables,
    restore_dewey_space,
)
from repro.sharding.router import HashRouter
from repro.sharding.sharded_index import ShardedIndex
from repro.storage.relation import Relation
from repro.storage.schema import Schema

from . import reference_bulk_build as reference

SCHEMA = Schema.of(make="categorical", year="numeric", color="categorical",
                   desc="text")
ORDERINGS = [
    ["make", "year", "color", "desc"],
    ["year"],
    ["color", "make"],
    ["desc", "year", "make"],
]
NAN = float("nan")  # one object: equal to itself by identity only

#: Values a relation stores after coercion (NUMERIC mixes int and float).
TYPED = {
    "make": st.sampled_from(["Honda", "Toyota", "BMW"]),
    "year": st.sampled_from([2006, 2007, 2007.0, 2008.5]),
    "color": st.sampled_from(["Red", "Blue", "Gold"]),
}
#: Columns a relation's own coercion would never leave mixed: they take
#: the ``_sort_key`` fallback, where ``1``, ``1.0`` and ``True`` are one
#: sibling and ``None`` ties with ``'None'`` without being it.
MIXED = st.sampled_from([0, 1, 1.0, True, False, 2.5, "1", "True", "None",
                         None, "a", NAN])
#: TEXT columns hold ``str``: every relation coerces them so.
DESCS = st.sampled_from(["low miles", "one owner", "low price", "rare",
                         "miles and miles", ""])


@st.composite
def relations(draw):
    """A relation (typed, or with raw mixed columns), its live rids after
    a few tombstones, and rows for later online inserts."""
    mixed = draw(st.booleans())
    columns = dict(TYPED, desc=DESCS)
    if mixed:
        columns.update(make=MIXED, color=MIXED)
    row = st.tuples(*(columns[name] for name in SCHEMA.names))
    if draw(st.booleans()):  # every row alike
        rows = [draw(row)] * draw(st.integers(1, 12))
    else:
        rows = draw(st.lists(row, min_size=0, max_size=25))
    relation = Relation(SCHEMA)
    if mixed:
        relation._rows.extend(rows)
    else:
        relation.extend(rows)
    for rid in draw(st.sets(st.integers(0, max(0, len(rows) - 1)),
                            max_size=len(rows) // 3)):
        relation.delete(rid)
    later = draw(st.lists(row, max_size=10))
    return relation, mixed, later


def assert_same_space(actual: DeweyIndex, expected: DeweyIndex,
                      iteration_order: bool = True) -> None:
    if iteration_order:
        assert list(actual._dewey_by_rid.items()) == list(
            expected._dewey_by_rid.items())
    assert actual._dewey_by_rid == expected._dewey_by_rid
    assert actual._rid_by_dewey == expected._rid_by_dewey
    assert actual._dictionary._forward == expected._dictionary._forward
    assert actual._dictionary._reverse == expected._dictionary._reverse
    assert actual._uniqueness == expected._uniqueness
    assert actual.all_deweys() == sorted(expected._rid_by_dewey)


def assert_same_postings(index: InvertedIndex, dewey: DeweyIndex,
                         rids=None) -> None:
    scalar, token, everything = reference.posting_runs(
        index.relation, dewey, rids)
    assert {key: list(plist) for key, plist in index._scalar.items()} == scalar
    assert {key: list(plist) for key, plist in index._token.items()} == token
    assert list(index.all_postings()) == everything
    for name in index.relation.schema.names:
        assert index.vocabulary(name) == [
            value for attribute, value in scalar if attribute == name]


@settings(max_examples=120, deadline=None)
@given(relations(), st.sampled_from(ORDERINGS), st.sampled_from(BACKENDS))
def test_fresh_build_is_the_per_row_build(case, attributes, backend):
    relation, _, _ = case
    ordering = DiversityOrdering(attributes)
    expected = reference.build_dewey(relation, ordering)
    assert_same_space(DeweyIndex.build(relation, ordering), expected)
    index = InvertedIndex.build(relation, ordering, backend=backend)
    assert_same_space(index.dewey, expected)
    assert_same_postings(index, expected)


@settings(max_examples=60, deadline=None)
@given(relations(), st.sampled_from(ORDERINGS), st.sampled_from(BACKENDS),
       st.integers(1, 4))
def test_sharded_build_routes_the_same_subsets(case, attributes, backend, shards):
    relation, _, _ = case
    ordering = DiversityOrdering(attributes)
    expected = reference.build_dewey(relation, ordering)
    sharded = ShardedIndex.build(relation, ordering, shards=shards,
                                 backend=backend)
    assert_same_space(sharded.dewey, expected)
    router = HashRouter(shards)
    position = relation.schema.position(attributes[0])
    routed = [[] for _ in range(shards)]
    for rid in expected.iter_rids():
        routed[router.shard_of(relation[rid][position])].append(rid)
    for shard, rids in zip(sharded.shards, routed):
        assert_same_postings(shard, expected, rids)


def _mutated(relation, mixed, later, ordering, backend):
    """An index after online inserts and deletes: first-come sibling
    numbers past the sorted ones, and forgotten siblings."""
    index = InvertedIndex.build(relation, ordering, backend=backend)
    for step, row in enumerate(later):
        if mixed:
            relation._rows.append(row)
            rid = len(relation) - 1
        else:
            rid = relation.insert(row)
        index.insert(rid)
        live = list(index.dewey.iter_rids())
        if step % 3 == 2 and live:
            victim = live[step % len(live)]
            relation.delete(victim)
            index.remove(victim)
    return index


@settings(max_examples=120, deadline=None)
@given(relations(), st.sampled_from(ORDERINGS), st.sampled_from(BACKENDS))
def test_restore_is_the_force_loop(case, attributes, backend):
    relation, mixed, later = case
    ordering = DiversityOrdering(attributes)
    index = _mutated(relation, mixed, later, ordering, backend)
    assignments = dict(index.dewey._dewey_by_rid)
    expected = DeweyIndex(relation, ordering)
    for rid, dewey in sorted(assignments.items()):
        reference.force(expected, rid, dewey)
    restored = DeweyIndex.restore(relation, ordering, assignments)
    assert_same_space(restored, expected, iteration_order=False)
    live = list(assignments)
    rebuilt = InvertedIndex.build(relation, ordering, backend=backend,
                                  dewey=restored, rids=live)
    assert_same_postings(rebuilt, expected, live)
    assert sorted(rebuilt.all_postings()) == sorted(index.all_postings())
    # A replica clone of the live, mutated space: its IDs are no longer
    # in walk order and must be sorted again.
    clone = InvertedIndex.build(relation, ordering, backend=backend,
                                dewey=index.dewey, rids=live)
    assert_same_postings(clone, index.dewey, live)


@settings(max_examples=80, deadline=None)
@given(relations(), st.sampled_from(ORDERINGS))
def test_stored_tables_restore_as_before(case, attributes):
    """Through the snapshot tables: rows coerced on the way in (a mixed
    column's ``None`` is refused, its ``1`` and ``True`` become different
    strings under one sibling number: both paths must refuse alike)."""
    relation, mixed, later = case
    ordering = DiversityOrdering(attributes)
    payload = build_payload(_mutated(relation, mixed, later, ordering, "array"))
    rows, assignments, deleted = payload_tables(payload)
    try:
        expected = reference.restore_dewey_space(payload, rows, deleted,
                                                 assignments)
    except (TypeError, ValueError) as error:  # SnapshotError is a ValueError
        with pytest.raises(type(error)):
            restore_dewey_space(payload, rows, deleted, assignments)
        return
    relation, _, restored = restore_dewey_space(payload, rows, deleted,
                                                assignments)
    assert list(relation) == list(expected[0])
    assert relation.deleted_rids() == expected[0].deleted_rids()
    assert_same_space(restored, expected[2], iteration_order=False)


def _figure1_tables():
    index = InvertedIndex.build(figure1_relation(), figure1_ordering())
    payload = build_payload(index)
    return payload, payload_tables(payload)


def _wrong_depth(assignments, rows):
    assignments[0] = assignments[0][:-1]


def _duplicate_id(assignments, rows):
    assignments[1] = assignments[0]


def _two_values_in_one_block(assignments, rows):
    # A Toyota (rid 11) takes the Hondas' make component (and an ordinal
    # no Honda holds, so that its ID stays unique).
    assignments[11] = (assignments[0][0],) + assignments[11][1:-1] + (99,)


def _one_value_two_components(assignments, rows):
    # One Honda (rid 1) under a make component no other row holds.
    assignments[1] = (7,) + assignments[1][1:]


def _rid_outside_the_relation(assignments, rows):
    assignments[len(rows) + 3] = (9, 9, 9, 9, 9, 0)


REFUSALS = [_wrong_depth, _duplicate_id, _two_values_in_one_block,
            _one_value_two_components, _rid_outside_the_relation]


@pytest.mark.parametrize("damage", REFUSALS, ids=lambda edit: edit.__name__)
def test_every_restore_refusal_is_kept(damage):
    payload, (rows, assignments, deleted) = _figure1_tables()
    damage(assignments, rows)
    with pytest.raises(SnapshotError):
        reference.restore_dewey_space(payload, rows, deleted, dict(assignments))
    with pytest.raises(SnapshotError, match="inconsistent Dewey table"):
        restore_dewey_space(payload, rows, deleted, dict(assignments))
    with pytest.raises(DeweyAssignmentError):
        DeweyIndex.restore(figure1_relation(), figure1_ordering(), assignments)


def test_nan_out_of_sort_order_is_numbered_as_add_does():
    """NaN compares false both ways, so ``1.0, NaN, 1.0`` stays unsorted:
    the second 1.0 reuses its sibling number and the IDs, out of walk
    order, are sorted on demand."""
    schema = Schema.of(year="numeric")
    relation = Relation.from_rows(schema, [(1.0,), (NAN,), (1.0,)])
    ordering = DiversityOrdering(["year"])
    expected = reference.build_dewey(relation, ordering)
    built = DeweyIndex.build(relation, ordering)
    assert_same_space(built, expected)
    assert built.dewey_of(2) == (0, 1)
    index = InvertedIndex.build(relation, ordering)
    assert_same_postings(index, expected)


def test_a_run_of_one_value_under_two_components_is_refused():
    """Identical rows whose stored IDs differ above the ordinal."""
    relation = Relation.from_rows(Schema.of(make="categorical"),
                                  [("Honda",), ("Honda",)])
    ordering = DiversityOrdering(["make"])
    table = {0: (0, 0), 1: (1, 0)}
    expected = DeweyIndex(relation, ordering)
    with pytest.raises(DeweyAssignmentError):
        for rid, dewey in sorted(table.items()):
            reference.force(expected, rid, dewey)
    with pytest.raises(DeweyAssignmentError):
        DeweyIndex.restore(relation, ordering, table)


def test_negative_component_is_refused():
    """A negative component would land at the far end of a reverse table;
    the walk refuses it instead."""
    _, (_, assignments, _) = _figure1_tables()
    assignments[0] = (-1,) + assignments[0][1:]
    with pytest.raises(DeweyAssignmentError, match="negative component"):
        DeweyIndex.restore(figure1_relation(), figure1_ordering(), assignments)
