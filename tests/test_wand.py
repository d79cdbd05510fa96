"""WAND top-k tests: exactness against exhaustive scoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import DiversityOrdering
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.index.wand import wand_topk
from repro.query.evaluate import scored_res
from repro.query.parser import parse_query
from repro.query.query import Query

from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    random_query,
    random_relation,
)


def exhaustive_topk(relation, index, query, k):
    scored = sorted(
        (
            (index.dewey.dewey_of(rid), score)
            for rid, score in scored_res(relation, query)
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return scored[:k]


class TestWandOnFigure1:
    def test_disjunctive_topk(self, cars, cars_index):
        query = parse_query(
            "Make = 'Toyota' [2] OR Description CONTAINS 'miles' [1]"
        )
        merged = MergedList(query, cars_index)
        top = wand_topk(merged, 4)
        # The four Toyotas all score 3 (Toyota + 'Low miles').
        assert [score for _, score in top] == [3.0, 3.0, 3.0, 3.0]
        assert {cars_index.dewey.rid_of(d) for d, _ in top} == {11, 12, 13, 14}

    def test_ties_prefer_smaller_ids(self, cars, cars_index):
        query = parse_query("Description CONTAINS 'miles'")
        merged = MergedList(query, cars_index)
        top = wand_topk(merged, 3)
        expected = exhaustive_topk(cars, cars_index, query, 3)
        assert top == expected

    def test_fewer_matches_than_k(self, cars, cars_index):
        query = parse_query("Description CONTAINS 'rare'")
        merged = MergedList(query, cars_index)
        top = wand_topk(merged, 10)
        assert len(top) == 1

    def test_conjunctive_query_filters(self, cars, cars_index):
        query = parse_query("Make = 'Honda' AND Description CONTAINS 'miles'")
        merged = MergedList(query, cars_index)
        top = wand_topk(merged, 100)
        rids = {cars_index.dewey.rid_of(d) for d, _ in top}
        assert rids == {0, 1, 2, 3, 6, 8, 10}

    def test_k_zero(self, cars_index):
        merged = MergedList(parse_query("Make = 'Honda'"), cars_index)
        assert wand_topk(merged, 0) == []

    def test_no_matches(self, cars_index):
        merged = MergedList(parse_query("Make = 'Tesla'"), cars_index)
        assert wand_topk(merged, 5) == []

    def test_descending_scores(self, cars, cars_index):
        query = parse_query(
            "Make = 'Toyota' [2] OR Year = 2007 [1] OR Description CONTAINS 'low' [1]"
        )
        merged = MergedList(query, cars_index)
        top = wand_topk(merged, 10)
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)


    def test_a_landing_on_a_conjunct_is_rechecked(self, cars, cars_index):
        """In an OR of an AND, a row on the AND's heaviest list is not yet
        a match: the pivot step must still ask the boolean cursor."""
        query = parse_query(
            "(Make = 'Honda' [2] AND Color = 'Red') OR Year = 2006"
        )
        assert not query.matches(dict(zip(cars.schema.names, cars[0])))
        top = wand_topk(MergedList(query, cars_index), 10)
        assert top == exhaustive_topk(cars, cars_index, query, 10)
        assert {cars_index.dewey.rid_of(d) for d, _ in top} == {2, 4, 6, 8, 9, 10}


def weighted_plan(rng):
    """A random plan whose leaves may weigh 0: a leaf, an OR of leaves, an
    OR of an AND (the boolean re-check matters) or an AND of an OR."""
    def leaf(attribute, values):
        weight = float(rng.choice((0, 0, 1, 2, 3)))
        if attribute == "desc":
            return Query.keyword(attribute, rng.choice(values), weight=weight)
        return Query.scalar(attribute, rng.choice(values), weight=weight)

    make = leaf("make", MAKES)
    word = leaf("desc", WORDS)
    color = leaf("color", COLORS)
    model = leaf("model", MODELS)
    return rng.choice((
        make,
        Query.disjunction(make, word, color),
        Query.disjunction(Query.conjunction(make, word), color, model),
        Query.conjunction(make, Query.disjunction(word, color)),
    ))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=12))
def test_wand_exact_with_zero_weights_and_nested_plans(seed, k):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=40)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = weighted_plan(rng)
    got = wand_topk(MergedList(query, index), k)
    assert got == exhaustive_topk(relation, index, query, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=12))
def test_wand_exact_on_random_data(seed, k):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=40)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = random_query(rng, weighted=True)
    merged = MergedList(query, index)
    got = wand_topk(merged, k)
    expected = exhaustive_topk(relation, index, query, k)
    # Sets of scores must match exactly; the identity of tied boundary items
    # must match too because both sides break ties toward smaller IDs.
    assert got == expected
