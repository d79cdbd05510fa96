"""A search pays for its answer's rows only when someone reads them.

``DiverseResult.package`` resolves rids and captures row tuples as
columns; :class:`ResultItem` objects (and their ``values`` dicts) are
built on first access, once per answer, and shared by every cache hit of
the entry that holds them.  These tests pin that the columnar answer is
exactly the eager one it replaced, and what it does and does not build.
"""

from __future__ import annotations

import random

import pytest

from repro import DiversityEngine, Relation
from repro.core.engine import ALGORITHMS
from repro.core.result import DiverseResult, ResultItem
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.serving import ServingEngine
from repro.sharding import ShardedEngine

from .conftest import RANDOM_ORDERING, random_query, random_relation


def eager_items(index, deweys, scores, scored):
    """The eager packager the columns replaced: one rid lookup, one fresh
    row dict and one item per answer, then the scored order."""
    items = []
    for dewey in deweys:
        rid = index.dewey.rid_of(dewey)
        score = scores.get(dewey) if scores is not None else None
        items.append((dewey, rid, index.relation.row_dict(rid), score))
    if scored:
        items.sort(key=lambda item: (-(item[3] or 0.0), item[0]))
    return items


@pytest.fixture
def packaged(monkeypatch):
    """Every ``DiverseResult.package`` call's inputs, in order."""
    calls = []
    original = DiverseResult.package.__func__

    def recording(cls, index, deweys, scores, k, algorithm, scored, stats):
        deweys = list(deweys)
        calls.append((index, deweys, None if scores is None else dict(scores),
                      scored))
        return original(cls, index, deweys, scores, k, algorithm, scored, stats)

    monkeypatch.setattr(DiverseResult, "package", classmethod(recording))
    return calls


def _engines(relation):
    return {
        "array": DiversityEngine.from_relation(relation, RANDOM_ORDERING),
        "compressed": DiversityEngine.from_relation(
            relation, RANDOM_ORDERING, backend="compressed"),
        "sharded-2x2": ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, replicas=2),
    }


@pytest.mark.parametrize("seed", [3, 17])
def test_columns_match_the_eager_reference(seed, packaged):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=60)
    engines = _engines(relation)
    queries = [random_query(rng, weighted=True) for _ in range(6)]
    try:
        for name, engine in engines.items():
            for query in queries:
                for algorithm in ALGORITHMS:
                    for scored in (False, True):
                        k = rng.choice((1, 3, 7))
                        result = engine.search(query, k, algorithm, scored)
                        index, deweys, scores, was_scored = packaged[-1]
                        expected = eager_items(index, deweys, scores, was_scored)
                        context = (name, query, algorithm, scored, k)
                        assert result.deweys == [e[0] for e in expected], context
                        assert result.rids == [e[1] for e in expected], context
                        assert result.scores == [e[3] for e in expected], context
                        assert result.rows() == [e[2] for e in expected], context
                        assert len(result) == len(expected), context
                        assert [(item.dewey, item.rid, item.values, item.score)
                                for item in result.items] == expected, context
    finally:
        for engine in engines.values():
            engine.close()


class _CountingRelation(Relation):
    """Counts every way a row leaves the relation."""

    reads = 0

    def __getitem__(self, rid):
        self.reads += 1
        return super().__getitem__(rid)

    def rows_of(self, rids):
        rids = tuple(rids)
        self.reads += len(rids)
        return super().rows_of(rids)

    def row_dict(self, rid):
        self.reads += 1
        return super().row_dict(rid)


@pytest.fixture
def built_items(monkeypatch):
    """How many ``ResultItem`` objects have been constructed."""
    built = []
    original = ResultItem.__init__

    def counting(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(ResultItem, "__init__", counting)
    return built


def test_unread_items_cost_one_row_read_per_answer_and_no_item(built_items):
    source = figure1_relation()
    relation = _CountingRelation.from_rows(source.schema, list(source))
    engine = DiversityEngine.from_relation(relation, figure1_ordering())
    for algorithm in ALGORITHMS:
        for scored in (False, True):
            relation.reads = 0
            result = engine.search("Make = 'Honda' OR Color = 'Red'", 4,
                                   algorithm, scored)
            assert 0 < len(result) <= 4
            assert relation.reads <= len(result), algorithm
            assert result.rids and result.deweys and result.scores
            assert built_items == []
    items = result.items
    assert len(built_items) == len(result)
    assert [item.values for item in items] == result.rows()
    assert result.items is items and list(result) == items
    assert len(built_items) == len(result)  # built once, read many times
    assert relation.reads <= len(result)  # values come from the captured rows


def test_a_cache_hit_shares_the_entry_items():
    serving = ServingEngine.from_relation(figure1_relation(), figure1_ordering())
    miss = serving.search("Make = 'Honda'", 3)
    first_hit = serving.search("Make = 'Honda'", 3)
    second_hit = serving.search("Make = 'Honda'", 3)
    assert (miss.stats["cache_hit"], first_hit.stats["cache_hit"],
            second_hit.stats["cache_hit"]) == (0, 1, 1)
    # Whoever reads first builds the items; every other result shares them.
    shared = first_hit.items
    for other in (second_hit, miss):
        assert other.items is not shared  # a list of its own
        assert all(mine is theirs for mine, theirs in zip(other.items, shared))
    assert len(miss.items) == 3
    assert first_hit.stats is not second_hit.stats


def test_deleting_a_returned_row_leaves_its_item_readable():
    engine = DiversityEngine.from_relation(figure1_relation(), figure1_ordering())
    result = engine.search("Make = 'Honda'", 3)
    expected = [engine.relation.row_dict(rid) for rid in result.rids]
    rid = result.rids[0]
    assert engine.delete(rid)
    with pytest.raises(KeyError):
        engine.index.dewey.dewey_of(rid)  # the mapping is gone ...
    item = result.items[0]  # ... but the answer resolved it at search time
    assert item.rid == rid
    assert [item.values for item in result.items] == expected
