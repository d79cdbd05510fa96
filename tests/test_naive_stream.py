"""Naive's one-pass evaluation against the seek-per-match loop it replaced.

``MergedList.matches`` reads every match in one forward pass over the
posting lists' streams; ``scored_matches`` adds each leaf's weight to the
matches in its list.  The reference here is the loop Naive ran before:
``first()``, then ``next(successor(id))`` once per match, and one
``score(id)`` per match.  Both must give the same Dewey IDs, the same
merged counters, and scores equal as floats, on both backends (compressed
lists with pending tails and tombstones among them) and on a sharded
index's union views.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import baselines
from repro.core.dewey import successor
from repro.core.diversify import diverse_subset, scored_diverse_subset
from repro.core.engine import run_algorithm
from repro.core.ordering import DiversityOrdering
from repro.index.compressed import CompressedPostingList
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.index.postings import BACKENDS, GALLOP_RATIO
from repro.query.estimate import order_for_leapfrog
from repro.query.query import Query
from repro.sharding import ShardedIndex
from repro.storage.relation import Relation
from repro.storage.schema import Schema

ORDERING = ["make", "model", "color", "desc"]
SCHEMA = Schema.of(make="categorical", model="categorical",
                   color="categorical", desc="text")
WORDS = ["low", "miles", "price", "rare", "fun", "clean"]


def seek_per_match(merged):
    """The reference: Naive's evaluation as one merged ``next`` per match."""
    matches = []
    current = merged.first()
    while current is not None:
        matches.append(current)
        current = merged.next(successor(current))
    return matches


def counters(merged):
    return (merged.next_calls, merged.scored_next_calls, merged.rows_touched,
            merged.skip_jumps, merged.scan_restarts)


def skewed_rows(rng, count):
    """Grey on nearly every row, model m9 on a few (never blue): so an AND
    of the two has one child far longer than the other, and m9 AND blue
    matches nothing without pinning one attribute twice."""
    rows = []
    for _ in range(count):
        model = "m9" if rng.random() < 0.03 else rng.choice(["m1", "m2", "m3"])
        color = "grey" if rng.random() < 0.9 else rng.choice(["red", "blue"])
        if model == "m9" and color == "blue":
            color = "grey"
        rows.append((rng.choice("ABCDEF"), model, color,
                     " ".join(rng.sample(WORDS, rng.randint(1, 4)))))
    return rows


def build(backend, seed=7, rows=400, mutate=False, shards=1):
    rng = random.Random(seed)
    relation = Relation.from_rows(SCHEMA, skewed_rows(rng, rows))
    ordering = DiversityOrdering(ORDERING)
    if shards > 1:
        index = ShardedIndex.build(relation, ordering, shards=shards,
                                   backend=backend)
    else:
        index = InvertedIndex.build(relation, ordering, backend=backend)
    if mutate:
        # Below the compaction threshold: the lists keep a pending tail
        # and tombstones.  New makes run past the packed top field, so
        # some tail ids cannot be packed at all.
        for number in range(10):
            row = (f"N{number}", "m1", "grey", "low miles")
            index.insert(relation.insert(row))
        for rid in rng.sample(range(rows), min(10, rows // 2)):
            relation.delete(rid)
            index.remove(rid)
    return index


SHAPES = {
    "leaf": Query.scalar("color", "grey"),
    "keyword": Query.keyword("desc", "low miles"),
    "and-2": Query.conjunction(Query.scalar("model", "m9"),
                               Query.scalar("color", "grey")),
    "and-3": Query.conjunction(Query.scalar("color", "grey"),
                               Query.keyword("desc", "price"),
                               Query.scalar("model", "m1")),
    "and-5": Query.conjunction(Query.scalar("color", "grey"),
                               Query.keyword("desc", "low"),
                               Query.scalar("model", "m2"),
                               Query.keyword("desc", "fun"),
                               Query.scalar("make", "B")),
    "or": Query.disjunction(Query.scalar("model", "m9"),
                            Query.keyword("desc", "rare"),
                            Query.scalar("color", "red")),
    "and-of-ors": Query.conjunction(
        Query.disjunction(Query.scalar("make", "A"), Query.scalar("make", "C")),
        Query.disjunction(Query.keyword("desc", "clean"),
                          Query.scalar("color", "blue"))),
    "match-all": Query.match_all(),
    "pinned-twice": Query.conjunction(Query.scalar("make", "A"),
                                      Query.scalar("make", "B")),
    "empty": Query.conjunction(Query.scalar("model", "m9"),
                               Query.scalar("color", "blue")),
}

WEIGHTED = [
    Query.disjunction(Query.scalar("model", "m1", weight=0.1),
                      Query.keyword("desc", "miles", weight=0.2),
                      Query.scalar("color", "grey", weight=0.7),
                      Query.scalar("make", "A", weight=1e-3)),
    Query.conjunction(Query.scalar("color", "grey", weight=0.3),
                      Query.keyword("desc", "low", weight=0.6),
                      Query.scalar("model", "m2", weight=0.1)),
    Query.conjunction(
        Query.scalar("color", "grey", weight=0.7),
        Query.disjunction(Query.keyword("desc", "price", weight=0.1),
                          Query.keyword("desc", "fun", weight=0.2),
                          Query.scalar("make", "D", weight=3.3))),
]

INDEXES = [
    pytest.param(backend, mutate, shards, id=f"{backend}-{label}")
    for backend in BACKENDS
    for mutate, shards, label in ((False, 1, "built"), (True, 1, "mutated"),
                                  (False, 3, "sharded"), (True, 3, "sharded-mutated"))
]


def assert_stream_equals_seeks(index, query):
    reference, streamed = MergedList(query, index), MergedList(query, index)
    expected = seek_per_match(reference)
    assert streamed.matches() == expected
    assert counters(streamed) == counters(reference)
    return expected


@pytest.mark.parametrize("backend,mutate,shards", INDEXES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_shape_streams_what_the_seeks_find(backend, mutate, shards, shape):
    index = build(backend, mutate=mutate, shards=shards)
    for query in (SHAPES[shape], order_for_leapfrog(SHAPES[shape], index)):
        expected = assert_stream_equals_seeks(index, query)
        if shape in ("pinned-twice", "empty"):
            assert expected == []
        else:
            assert expected


@pytest.mark.parametrize("backend,mutate,shards", INDEXES)
def test_scored_stream_adds_weights_as_score_does(backend, mutate, shards):
    index = build(backend, mutate=mutate, shards=shards)
    for query in WEIGHTED:
        assert sum(1 for _ in query.leaves()) >= 3
        reference, streamed = MergedList(query, index), MergedList(query, index)
        expected = {dewey: reference.score(dewey)
                    for dewey in seek_per_match(reference)}
        got = streamed.scored_matches()
        assert expected
        assert list(got.items()) == list(expected.items())  # floats by ==
        assert counters(streamed) == counters(reference)


def test_fixture_reaches_both_intersection_paths_and_pending_lists():
    """The shapes above bisect into a much longer list, hash a list of
    comparable length, and read compressed lists with a tail, tombstones
    and tail ids too wide to pack."""
    index = build("compressed", mutate=True)
    grey = len(index.scalar_postings("color", "grey"))
    assert grey >= 16 * len(index.scalar_postings("model", "m9"))
    assert grey <= GALLOP_RATIO * len(index.scalar_postings("model", "m1"))
    lists = [postings for postings in index.posting_lists()
             if isinstance(postings, CompressedPostingList)]
    assert any(postings._tail for postings in lists)
    assert any(postings._deleted for postings in lists)
    assert any(postings._segment.pack_exact(dewey) is None
               for postings in lists for dewey in postings._tail)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scored", [False, True])
def test_naive_answers_and_stats_are_the_seek_loops(backend, scored):
    """Through ``run_algorithm``: the answer is the diverse subset of the
    reference matches, and the stats count one merged next per match."""
    index = build(backend, mutate=True)
    for query in [*SHAPES.values(), *WEIGHTED]:
        reference = MergedList(query, index)
        if scored:
            matches = {dewey: reference.score(dewey)
                       for dewey in seek_per_match(reference)}
            chosen = scored_diverse_subset(matches, 5)
            expected = (sorted(chosen), {dewey: matches[dewey] for dewey in chosen})
        else:
            expected = (diverse_subset(seek_per_match(reference), 5), None)
        deweys, scores, stats = run_algorithm(index, query, 5, "naive", scored)
        assert (deweys, scores) == expected
        assert stats["next_calls"] == reference.next_calls
        assert stats["rows_touched"] == reference.rows_touched
        assert stats["scored_next_calls"] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_plans_stream_what_the_seeks_find(seed):
    rng = random.Random(seed)
    backend = rng.choice(BACKENDS)
    index = build(backend, seed=seed, rows=rng.randint(1, 120),
                  mutate=rng.random() < 0.5, shards=rng.choice((1, 2)))

    def leaf():
        return rng.choice([
            Query.scalar("make", rng.choice("ABCDEF"), weight=rng.random()),
            Query.scalar("model", rng.choice(["m1", "m2", "m9"]), weight=rng.random()),
            Query.scalar("color", rng.choice(["grey", "red", "blue"]), weight=rng.random()),
            Query.keyword("desc", " ".join(rng.sample(WORDS, rng.randint(1, 2))),
                          weight=rng.random()),
        ])

    def plan(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        combine = rng.choice((Query.conjunction, Query.disjunction))
        return combine(*(plan(depth - 1) for _ in range(rng.randint(2, 4))))

    query = plan(3)
    assert_stream_equals_seeks(index, query)
    assert_stream_equals_seeks(index, order_for_leapfrog(query, index))
    reference, streamed = MergedList(query, index), MergedList(query, index)
    expected = {dewey: reference.score(dewey) for dewey in seek_per_match(reference)}
    assert list(streamed.scored_matches().items()) == list(expected.items())
    assert baselines.collect_all(MergedList(query, index)) == list(expected)
