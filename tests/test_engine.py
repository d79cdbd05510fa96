"""End-to-end tests for the DiversityEngine facade and result objects."""

import pytest

from repro import ALGORITHMS, DiversityEngine, Query
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.query.evaluate import res, scored_res
from repro.query.parser import parse_query


class TestSearch:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unscored_all_algorithms(self, cars, cars_engine, algorithm):
        result = cars_engine.search("Year = 2007", k=6, algorithm=algorithm)
        full = [
            cars_engine.index.dewey.dewey_of(r)
            for r in res(cars, parse_query("Year = 2007"))
        ]
        assert result.algorithm == algorithm
        assert len(result) == 6
        if algorithm != "basic":  # Basic gives no diversity guarantee
            assert is_diverse(result.deweys, full, 6)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scored_all_algorithms(self, cars, cars_engine, algorithm):
        text = "Make = 'Toyota' [2] OR Description CONTAINS 'miles'"
        result = cars_engine.search(text, k=5, algorithm=algorithm, scored=True)
        sres = {
            cars_engine.index.dewey.dewey_of(r): s
            for r, s in scored_res(cars, parse_query(text))
        }
        assert len(result) == 5
        best = sum(sorted(sres.values(), reverse=True)[:5])
        assert sum(item.score for item in result) == pytest.approx(best)
        if algorithm != "basic":
            assert is_scored_diverse(result.deweys, sres, 5)

    def test_accepts_query_objects(self, cars_engine):
        result = cars_engine.search(Query.scalar("Make", "Honda"), k=3)
        assert len(result) == 3
        assert all(item["Make"] == "Honda" for item in result)

    def test_items_materialised(self, cars_engine):
        result = cars_engine.search("Make = 'Toyota'", k=2)
        for item in result:
            assert set(item.values) == {
                "Make", "Model", "Color", "Year", "Description",
            }
            assert item.rid in range(11, 15)

    def test_scored_results_sorted_by_score(self, cars_engine):
        text = "Make = 'Toyota' [3] OR Year = 2007"
        result = cars_engine.search(text, k=8, scored=True)
        scores = [item.score for item in result]
        assert scores == sorted(scores, reverse=True)

    def test_stats_present(self, cars_engine):
        result = cars_engine.search("Make = 'Honda'", k=3, algorithm="probe")
        assert result.stats["next_calls"] <= 6 + 1
        multq = cars_engine.search("Make = 'Honda'", k=3, algorithm="multq")
        assert multq.stats["queries_issued"] > 0

    def test_unknown_algorithm(self, cars_engine):
        with pytest.raises(ValueError):
            cars_engine.search("", k=3, algorithm="quantum")

    def test_negative_k(self, cars_engine):
        with pytest.raises(ValueError):
            cars_engine.search("", k=-1)

    def test_k_zero(self, cars_engine):
        assert len(cars_engine.search("", k=0)) == 0

    def test_no_matches(self, cars_engine):
        result = cars_engine.search("Make = 'Tesla'", k=5)
        assert len(result) == 0

    def test_the_headline_example(self, cars_engine):
        """The abstract's promise: five results for Honda -> five different
        Honda models, not five Civics."""
        result = cars_engine.search("Make = 'Honda'", k=4)
        models = {item["Model"] for item in result}
        assert len(models) == 4

    def test_color_diversity_within_model(self, cars_engine):
        """Searching 2007 Honda Civics: different colors, per the intro."""
        result = cars_engine.search("Make = 'Honda' AND Model = 'Civic' AND Year = 2007", k=3)
        colors = {item["Color"] for item in result}
        assert len(colors) == 3


class TestConstruction:
    def test_from_relation_with_name_list(self, cars):
        engine = DiversityEngine.from_relation(cars, ["Make", "Model"])
        assert engine.ordering.attributes == ("Make", "Model")

    def test_from_relation_with_compressed_backend(self, cars):
        engine = DiversityEngine.from_relation(
            cars, ["Make", "Model"], backend="compressed"
        )
        assert engine.index.backend == "compressed"
        assert len(engine.search("Make = 'Honda'", k=2)) == 2

    def test_compile(self, cars_engine):
        merged = cars_engine.compile("Make = 'Honda'")
        assert merged.first() is not None

    def test_explain(self, cars_engine):
        text = cars_engine.explain("Make = 'Honda'")
        assert "Make = 'Honda'" in text
        assert "Make < Model" in text


class TestResultRendering:
    def test_to_table(self, cars_engine):
        result = cars_engine.search("Make = 'Toyota'", k=2)
        table = result.to_table(["Make", "Model"])
        assert "Toyota" in table
        assert table.count("\n") >= 3

    def test_to_table_scored(self, cars_engine):
        result = cars_engine.search("Year = 2007", k=2, scored=True)
        assert "score" in result.to_table(["Make"])

    def test_to_table_empty(self, cars_engine):
        result = cars_engine.search("Make = 'Tesla'", k=2)
        assert result.to_table() == "(no results)"

    def test_rows_and_accessors(self, cars_engine):
        result = cars_engine.search("Make = 'Toyota'", k=2)
        assert len(result.rows()) == 2
        assert len(result.rids) == 2
        assert result[0].dewey in result.deweys
