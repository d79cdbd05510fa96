"""Tests for merged-list navigation: cursors, bidirectional next, scored
variants — all validated against brute-force reference evaluation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dewey import LEFT, RIGHT, maxes, predecessor, successor, zeros
from repro.core.probing import probe_unscored
from repro.index.inverted import InvertedIndex
from repro.index.merged import (
    AndCursor,
    LeafCursor,
    MergedList,
    OrCursor,
    compile_cursor,
)
from repro.index.postings import ArrayPostingList
from repro.query.evaluate import res, scored_res
from repro.query.parser import parse_query
from repro.query.query import Query

from .conftest import COLORS, MAKES, RANDOM_ORDERING, random_query, random_relation


def build(relation):
    from repro.core.ordering import DiversityOrdering

    return InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))


class TestCursors:
    def test_leaf_cursor(self):
        cursor = LeafCursor(ArrayPostingList([(0, 1), (2, 3), (5, 0)]))
        assert cursor.next((0, 0), LEFT) == (0, 1)
        assert cursor.next((3, 0), LEFT) == (5, 0)
        assert cursor.next((9, 9), LEFT) is None
        assert cursor.next((3, 0), RIGHT) == (2, 3)
        assert cursor.next((0, 0), RIGHT) is None

    def test_and_cursor_leapfrog(self):
        a = LeafCursor(ArrayPostingList([(0,), (2,), (4,), (6,)]))
        b = LeafCursor(ArrayPostingList([(1,), (2,), (5,), (6,)]))
        both = AndCursor([a, b])
        assert both.next((0,), LEFT) == (2,)
        assert both.next((3,), LEFT) == (6,)
        assert both.next((7,), LEFT) is None
        assert both.next((5,), RIGHT) == (2,)

    def test_and_cursor_empty_child(self):
        cursor = AndCursor(
            [LeafCursor(ArrayPostingList([(1,)])), LeafCursor(ArrayPostingList([]))]
        )
        assert cursor.next((0,), LEFT) is None

    def test_or_cursor(self):
        a = LeafCursor(ArrayPostingList([(0,), (4,)]))
        b = LeafCursor(ArrayPostingList([(2,), (6,)]))
        either = OrCursor([a, b])
        assert either.next((1,), LEFT) == (2,)
        assert either.next((0,), LEFT) == (0,)
        assert either.next((5,), RIGHT) == (4,)
        assert either.next((7,), LEFT) is None

    def test_constructors_reject_empty(self):
        with pytest.raises(ValueError):
            AndCursor([])
        with pytest.raises(ValueError):
            OrCursor([])

    def test_bad_direction_rejected(self):
        cursor = LeafCursor(ArrayPostingList([(1,)]))
        with pytest.raises(ValueError):
            cursor.next((0,), "MIDDLE")


def scan_all(merged):
    out = []
    cur = merged.first()
    while cur is not None:
        out.append(cur)
        cur = merged.next(successor(cur))
    return out


def scan_all_right(merged):
    out = []
    cur = merged.next(maxes(merged.depth), RIGHT)
    while cur is not None:
        out.append(cur)
        prev = predecessor(cur)
        if prev is None:
            break
        cur = merged.next(prev, RIGHT)
    return out


class TestMergedListOnFigure1:
    def test_scan_matches_reference(self, cars, cars_index):
        for text in [
            "Make = 'Honda'",
            "Year = 2007 AND Description CONTAINS 'miles'",
            "Make = 'Toyota' OR Description CONTAINS 'rare'",
            "Description CONTAINS 'low miles'",
        ]:
            query = parse_query(text)
            merged = MergedList(query, cars_index)
            expected = sorted(
                cars_index.dewey.dewey_of(rid) for rid in res(cars, query)
            )
            assert scan_all(merged) == expected

    def test_right_scan_is_reverse(self, cars, cars_index):
        query = parse_query("Year = 2007")
        merged = MergedList(query, cars_index)
        assert scan_all_right(merged) == list(reversed(scan_all(merged)))

    def test_contains(self, cars, cars_index):
        query = parse_query("Make = 'Toyota'")
        merged = MergedList(query, cars_index)
        toyota = cars_index.dewey.dewey_of(11)
        honda = cars_index.dewey.dewey_of(0)
        assert merged.contains(toyota)
        assert not merged.contains(honda)

    def test_score(self, cars, cars_index):
        query = parse_query("Make = 'Toyota' [2] OR Description CONTAINS 'miles'")
        merged = MergedList(query, cars_index)
        toyota_miles = cars_index.dewey.dewey_of(11)
        honda_miles = cars_index.dewey.dewey_of(0)
        assert merged.score(toyota_miles) == 3.0
        assert merged.score(honda_miles) == 1.0

    def test_stats_counted(self, cars_index):
        merged = MergedList(parse_query("Make = 'Honda'"), cars_index)
        merged.first()
        merged.next(zeros(merged.depth))
        assert merged.next_calls == 2
        merged.reset_stats()
        assert merged.next_calls == 0

    def test_match_all_query(self, cars, cars_index):
        merged = MergedList(Query.match_all(), cars_index)
        assert len(scan_all(merged)) == len(cars)


class TestScoredNavigation:
    @pytest.fixture
    def merged(self, cars_index):
        query = parse_query(
            "Make = 'Toyota' [2] OR Description CONTAINS 'miles' [1] OR Year = 2006 [1]"
        )
        return MergedList(query, cars_index)

    def brute(self, merged, theta, strict):
        matches = scan_all(merged)
        keep = []
        for dewey in matches:
            score = merged.score(dewey)
            if score > theta if strict else score >= theta:
                keep.append(dewey)
        return keep

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("strict", [False, True])
    def test_next_scored_left_matches_brute(self, merged, theta, strict):
        expected = self.brute(merged, theta, strict)
        got = []
        cur = merged.next_scored(zeros(merged.depth), LEFT, theta, strict)
        while cur is not None:
            got.append(cur)
            cur = merged.next_scored(successor(cur), LEFT, theta, strict)
        assert got == expected

    @pytest.mark.parametrize("theta", [1.0, 2.0, 3.0])
    def test_next_scored_right_matches_brute(self, merged, theta):
        expected = list(reversed(self.brute(merged, theta, False)))
        got = []
        cur = merged.next_scored(maxes(merged.depth), RIGHT, theta, False)
        while cur is not None:
            got.append(cur)
            prev = predecessor(cur)
            if prev is None:
                break
            cur = merged.next_scored(prev, RIGHT, theta, False)
        assert got == expected

    def test_next_scored_above_max_is_none(self, merged):
        assert merged.next_scored(zeros(merged.depth), LEFT, 99.0) is None

    def test_next_onepass_scored_semantics(self, merged):
        """Smallest id with score > theta, or score == theta beyond skip."""
        matches = scan_all(merged)
        theta = 2.0
        skip = matches[len(matches) // 2]
        expected = None
        for dewey in matches:
            score = merged.score(dewey)
            if score > theta or (score == theta and dewey >= skip):
                expected = (dewey, score)
                break
        assert merged.next_onepass_scored(zeros(merged.depth), skip, theta) == expected

    def test_next_onepass_scored_none_skip_means_strict(self, merged):
        theta = merged.max_score()
        assert merged.next_onepass_scored(zeros(merged.depth), None, theta) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_randomized_navigation_against_reference(seed):
    """Scans (both directions) and scored filtering agree with full-scan
    evaluation on random relations and queries."""
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=30)
    index = build(relation)
    query = random_query(rng, weighted=True)
    merged = MergedList(query, index)
    expected = sorted(index.dewey.dewey_of(rid) for rid in res(relation, query))
    assert scan_all(merged) == expected
    assert scan_all_right(merged) == list(reversed(expected))
    scored = {
        index.dewey.dewey_of(rid): score for rid, score in scored_res(relation, query)
    }
    if scored:
        theta = sorted(scored.values())[len(scored) // 2]
        expected_tier = [d for d in expected if scored[d] >= theta]
        got = []
        cur = merged.next_scored(zeros(merged.depth), LEFT, theta)
        while cur is not None:
            got.append(cur)
            cur = merged.next_scored(successor(cur), LEFT, theta)
        assert got == expected_tier


class CountingPostings(ArrayPostingList):
    """An array posting list that counts its seeks into a shared list."""

    __slots__ = ("seeks",)

    def seek(self, dewey):
        self.seeks.append(dewey)
        return super().seek(dewey)

    def seek_floor(self, dewey):
        self.seeks.append(dewey)
        return super().seek_floor(dewey)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_same_attribute_conjunction_is_answered_without_leapfrogging(seed):
    """``A = x AND A = y`` (x != y) matches nothing — a row is posted under
    one value per attribute — and says so in O(1) seeks, where leapfrogging
    the two disjoint lists walks both end to end.  ``A = x AND A = x``, ORs
    and keyword leaves compile as before."""
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=60)
    index = build(relation)
    seeks = []
    for key, postings in list(index._scalar.items()):
        counted = CountingPostings(postings)
        counted.seeks = seeks
        index._scalar[key] = counted
    attribute, values = rng.choice((("make", MAKES), ("color", COLORS)))
    x, y = rng.sample(values, 2)
    others = [Query.keyword("desc", "miles"), Query.scalar("model", "m1")]
    leaves = [Query.scalar(attribute, x), Query.scalar(attribute, y)]
    leaves += rng.sample(others, rng.randint(0, 2))
    rng.shuffle(leaves)
    query = Query.conjunction(*leaves)
    assert res(relation, query) == []
    for direction, bound in ((LEFT, zeros(index.depth)), (RIGHT, maxes(index.depth))):
        del seeks[:]
        merged = MergedList(query, index)
        assert merged.next(bound, direction) is None
        assert len(seeks) <= 1
    merged = MergedList(query, index)
    assert probe_unscored(merged, 5) == []
    assert merged.next_calls == 1

    same = Query.conjunction(Query.scalar(attribute, x), Query.scalar(attribute, x))
    either = Query.disjunction(Query.scalar(attribute, x), Query.scalar(attribute, y))
    for query in (same, either):
        expected = sorted(index.dewey.dewey_of(rid) for rid in res(relation, query))
        assert scan_all(MergedList(query, index)) == expected


def test_zero_weight_leaves_join_only_when_a_zero_score_qualifies(cars, cars_index):
    """``Year = 2006 [0]`` matches score 0: a scored ``next`` at theta 0
    must land on them, and at any theta above 0 must not seek that list."""
    query = parse_query("Make = 'Toyota' OR Year = 2006 [0]")
    scored = {cars_index.dewey.dewey_of(rid): score
              for rid, score in scored_res(cars, query)}
    assert 0.0 in scored.values()
    merged = MergedList(query, cars_index)
    for theta, strict in ((0.0, False), (-1.0, True), (0.5, False), (0.0, True)):
        expected = [d for d in sorted(scored)
                    if (scored[d] > theta if strict else scored[d] >= theta)]
        got = []
        cur = merged.next_scored(zeros(merged.depth), LEFT, theta, strict)
        while cur is not None:
            assert merged.score(cur) == scored[cur]
            got.append(cur)
            cur = merged.next_scored(successor(cur), LEFT, theta, strict)
        assert got == expected
    seeks = []
    year = CountingPostings(cars_index.scalar_postings("Year", 2006))
    year.seeks = seeks
    cars_index._scalar[("Year", 2006)] = year
    merged = MergedList(query, cars_index)
    cur = merged.next_scored(zeros(merged.depth), LEFT, 1.0)
    while cur is not None:
        cur = merged.next_scored(successor(cur), LEFT, 1.0)
    assert merged.scored_next_calls == 5  # four Toyotas, then None
    # An OR of leaves needs no boolean re-check, so nothing reads the list.
    assert seeks == []


def test_the_pivot_bound_adds_weights_as_score_does():
    """0.2 + 0.2 + 0.7 is 1.1 in leaf order, 0.7 + 0.2 + 0.2 an ulp less.
    The 0.7 list lags on an earlier row, so summing in position order left
    the bound short of the score it must reach, and the row was skipped."""
    from repro import Relation, Schema

    schema = Schema.of(make="categorical", model="categorical",
                       color="categorical", desc="text")
    relation = Relation.from_rows(schema, [
        ("A", "m1", "red", "y"), ("B", "m1", "green", "x")])
    index = build(relation)
    query = parse_query(
        "color = 'green' [0.2] OR desc CONTAINS 'x' [0.2] OR model = 'm1' [0.7]")
    merged = MergedList(query, index)
    full = index.dewey.dewey_of(1)
    theta = merged.score(full)
    assert 0.7 + 0.2 + 0.2 < theta
    assert merged.next_scored(zeros(index.depth), LEFT, theta) == full
    assert merged.next_scored(maxes(index.depth), RIGHT, theta) == full


@pytest.mark.parametrize("text", [
    "Nope = 1 AND Nope = 2",
    "Year = 2007 AND Year = 2006 AND Nope = 1",
    "Year = 2007 AND Year = 2006 AND (Nope = 1 OR Make = 'Honda')",
    "Year = 2007 AND Year = 2006 AND Make CONTAINS 'honda'",
])
def test_same_attribute_conjunction_still_validates_its_leaves(cars_index, text):
    with pytest.raises(ValueError):  # SchemaError, or "not TEXT"
        MergedList(parse_query(text), cars_index)


def test_same_attribute_conjunction_fetches_no_scalar_list(cars_index, monkeypatch):
    fetched = []
    monkeypatch.setattr(
        InvertedIndex, "scalar_postings",
        lambda self, attribute, value: fetched.append((attribute, value)),
    )
    cursor = compile_cursor(parse_query("Year = 2007 AND Year = 2006"), cars_index)
    assert cursor.next(zeros(cars_index.depth), LEFT) is None
    assert fetched == []


@pytest.mark.parametrize("algorithm", ["probe", "onepass", "naive", "basic"])
def test_a_leaf_list_is_fetched_once_unscored_twice_scored(
        cars_index, monkeypatch, algorithm):
    """The weighted leaf cursors are a second fetch of every list (a
    fan-out on a sharded index): built on the first scored use only."""
    from repro.core.engine import run_algorithm

    fetched = []
    scalar_postings = InvertedIndex.scalar_postings
    monkeypatch.setattr(
        InvertedIndex, "scalar_postings",
        lambda self, attribute, value: fetched.append(value)
        or scalar_postings(self, attribute, value),
    )
    query = parse_query("Make = 'Honda' AND (Color = 'Blue' OR Year = 2007)")
    run_algorithm(cars_index, query, 3, algorithm, scored=False)
    assert sorted(fetched, key=str) == [2007, "Blue", "Honda"]
    del fetched[:]
    run_algorithm(cars_index, query, 3, algorithm, scored=True)
    assert 3 <= len(fetched) <= 6 and set(fetched) == {2007, "Blue", "Honda"}
