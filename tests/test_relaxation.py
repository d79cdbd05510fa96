"""Tests for query relaxation."""

import pytest

from paper.extensions.relaxation import relax_query, relaxed_search
from repro.query.parser import parse_query
from repro.query.query import AND, LEAF, OR


class TestRelaxQuery:
    def test_and_becomes_or(self):
        query = parse_query("Make = 'Honda' AND Year = 2007")
        relaxed = relax_query(query)
        assert relaxed.kind == OR
        assert len(relaxed.children) == 2

    def test_leaf_unchanged(self):
        query = parse_query("Make = 'Honda'")
        assert relax_query(query) is query

    def test_weights_preserved(self):
        query = parse_query("Make = 'Honda' [3] AND Year = 2007 [2]")
        relaxed = relax_query(query)
        assert sorted(child.weight for child in relaxed.children) == [2.0, 3.0]

    def test_nested_tree_flattened_to_or(self):
        query = parse_query("(a = 1 OR b = 2) AND c = 3")
        relaxed = relax_query(query)
        assert relaxed.kind == OR
        assert all(child.kind == LEAF for child in relaxed.children)


class TestRelaxedSearch:
    def test_no_relaxation_when_enough_matches(self, cars_engine):
        outcome = relaxed_search(cars_engine, "Make = 'Honda'", k=5)
        assert not outcome.relaxed
        assert len(outcome.result) == 5
        assert outcome.strict_matches == 5

    def test_relaxes_when_too_few_matches(self, cars_engine):
        # Only one 'Rare' listing; ask for 4.
        outcome = relaxed_search(
            cars_engine, "Make = 'Honda' AND Description CONTAINS 'Rare'", k=4
        )
        assert outcome.relaxed
        assert outcome.strict_matches == 1
        assert len(outcome.result) == 4
        # The exact match (Odyssey 'Rare', satisfying both predicates)
        # scores 2 and leads the relaxed ranking.
        top = outcome.result[0]
        assert top["Description"] == "Rare"
        assert top.score == 2.0

    def test_relaxed_results_prefer_more_predicates(self, cars_engine):
        outcome = relaxed_search(
            cars_engine,
            "Make = 'Toyota' AND Description CONTAINS 'miles' AND Year = 2006",
            k=6,
        )
        assert outcome.relaxed
        scores = [item.score for item in outcome.result]
        assert scores == sorted(scores, reverse=True)
        # Toyotas satisfy 2 of 3 predicates (Toyota + miles, 2007).
        assert scores[0] == 2.0

    def test_empty_even_after_relaxation(self, cars_engine):
        outcome = relaxed_search(cars_engine, "Make = 'Tesla'", k=3)
        assert outcome.relaxed
        assert len(outcome.result) == 0

    def test_parses_string_queries(self, cars_engine):
        outcome = relaxed_search(cars_engine, "Make = 'Honda'", k=2)
        assert len(outcome.result) == 2

    @pytest.mark.parametrize("algorithm", ["probe", "onepass", "naive"])
    def test_all_algorithms(self, cars_engine, algorithm):
        outcome = relaxed_search(
            cars_engine,
            "Make = 'Honda' AND Description CONTAINS 'Rare'",
            k=3,
            algorithm=algorithm,
        )
        assert outcome.relaxed
        assert len(outcome.result) == 3
