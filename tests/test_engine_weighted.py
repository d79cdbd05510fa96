"""Tests for the weighted-search convenience over an engine."""

import pytest

from repro import DiversityEngine
from repro.data.paper_example import figure1_ordering, figure1_relation
from paper.extensions.weighted import weighted_search


@pytest.fixture
def engine():
    relation = figure1_relation()
    # Add a couple of Teslas so make-level weighting has something to skew.
    relation.insert(("Tesla", "ModelS", "Red", 2008, "fast"))
    relation.insert(("Tesla", "Roadster", "Red", 2008, "faster"))
    return DiversityEngine.from_relation(relation, figure1_ordering())


class TestSearchWeighted:
    def test_uniform_weights_behave_like_unweighted(self, engine):
        result = weighted_search(engine, "Year = 2007", k=6, value_weights={})
        plain = engine.search("Year = 2007", k=6, algorithm="naive")
        count = lambda res: sorted(
            sum(1 for item in res if item["Make"] == make)
            for make in ("Honda", "Toyota")
        )
        assert count(result) == count(plain)

    def test_boost_shifts_allocation(self, engine):
        boosted = weighted_search(
            engine, "", k=6, value_weights={("Make", "Honda"): 9.0}
        )
        hondas = sum(1 for item in boosted if item["Make"] == "Honda")
        plain = engine.search("", k=6, algorithm="naive")
        hondas_plain = sum(1 for item in plain if item["Make"] == "Honda")
        assert hondas > hondas_plain

    def test_result_metadata(self, engine):
        result = weighted_search(engine, "Make = 'Honda'", k=3, value_weights={})
        assert result.algorithm == "weighted"
        assert not result.scored
        assert len(result) == 3
        assert "next_calls" in result.stats

    def test_k_larger_than_matches(self, engine):
        result = weighted_search(engine, "Make = 'Tesla'", k=10, value_weights={})
        assert len(result) == 2
