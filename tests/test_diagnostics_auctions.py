"""Tests for the diversity report card and the auctions generator."""

import pytest

from repro import DiversityEngine
from repro.core.baselines import collect_all
from paper.diagnostics import compare_reports, diversity_report
from repro.data.auctions import (
    CATEGORIES,
    auctions_ordering,
    auctions_schema,
    generate_auctions,
)
from repro.data.paper_example import figure1_ordering
from repro.index.merged import MergedList
from repro.query.parser import parse_query


class TestAuctionsGenerator:
    def test_deterministic(self):
        assert list(generate_auctions(rows=200, seed=1)) == list(
            generate_auctions(rows=200, seed=1)
        )

    def test_schema_and_ordering(self):
        relation = generate_auctions(rows=10)
        assert relation.schema == auctions_schema()
        assert auctions_ordering().depth == 6

    def test_subcategories_belong_to_categories(self):
        relation = generate_auctions(rows=500, seed=2)
        for row in relation:
            assert row[1] in CATEGORIES[row[0]]

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            generate_auctions(rows=-1)

    def test_engine_end_to_end(self):
        relation = generate_auctions(rows=800, seed=3)
        engine = DiversityEngine.from_relation(relation, auctions_ordering())
        result = engine.search("Condition = 'used'", k=5)
        assert len(result) == 5
        assert len({item["Category"] for item in result}) == 5


class TestDiversityReport:
    @pytest.fixture
    def engine(self, cars):
        return DiversityEngine.from_relation(cars, figure1_ordering())

    def report_for(self, engine, algorithm, k=4, text="Make = 'Honda'"):
        result = engine.search(text, k=k, algorithm=algorithm)
        merged = MergedList(parse_query(text), engine.index)
        full = collect_all(merged)
        return diversity_report(result.deweys, full, engine.index.dewey)

    def test_exact_algorithm_has_zero_violations(self, engine):
        report = self.report_for(engine, "probe")
        assert report.is_exactly_diverse
        assert report.violations == 0

    def test_basic_violates(self, engine):
        report = self.report_for(engine, "basic", k=3,
                                 text="Description CONTAINS 'Low'")
        assert not report.is_exactly_diverse

    def test_level_statistics(self, engine):
        report = self.report_for(engine, "probe", k=4)
        by_attribute = {level.attribute: level for level in report.levels}
        assert by_attribute["Model"].distinct_shown == 4
        assert by_attribute["Model"].distinct_available == 4
        assert by_attribute["Model"].coverage == 1.0
        assert by_attribute["Make"].distinct_available == 1

    def test_pair_objective_counts_duplicates(self, engine):
        # Three Civics out of Hondas: at the model level, 3 items share one
        # model -> 3 pairs.
        civics = [
            engine.index.dewey.dewey_of(rid) for rid in (0, 1, 2)
        ]
        merged = MergedList(parse_query("Make = 'Honda'"), engine.index)
        full = collect_all(merged)
        report = diversity_report(civics, full, engine.index.dewey)
        by_attribute = {level.attribute: level for level in report.levels}
        assert by_attribute["Model"].pair_objective == 3
        assert by_attribute["Color"].pair_objective == 0

    def test_render(self, engine):
        report = self.report_for(engine, "probe")
        text = report.render()
        assert "exactly diverse" in text
        assert "Model" in text

    def test_empty_selection(self, engine):
        report = diversity_report([], [], engine.index.dewey)
        assert report.size == 0 and report.violations == 0

    def test_compare_reports(self, engine):
        reports = {
            "probe": self.report_for(engine, "probe"),
            "basic": self.report_for(engine, "basic"),
        }
        table = compare_reports(reports)
        assert "probe" in table and "basic" in table
        assert "violations" in table

    def test_compare_reports_empty(self):
        assert compare_reports({}) == "(no reports)"
