"""Tests for the retrieve-c*k / MMR baseline (the introduction's argument)."""

import pytest

from paper.mmr import (
    dewey_similarity,
    evaluate_ck,
    mmr_select,
    retrieve_ck_diverse,
)
from repro.core.baselines import collect_all
from repro.core.similarity import balance_violations, is_diverse
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.query.parser import parse_query
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.core.ordering import DiversityOrdering


class TestDeweySimilarity:
    def test_identical(self):
        assert dewey_similarity((0, 1, 2), (0, 1, 2)) == 1.0

    def test_disjoint(self):
        assert dewey_similarity((0, 1), (1, 1)) == 0.0

    def test_partial(self):
        assert dewey_similarity((0, 1, 2, 3), (0, 1, 9, 9)) == 0.5

    def test_depth_mismatch(self):
        with pytest.raises(ValueError):
            dewey_similarity((0,), (0, 1))


class TestMmrSelect:
    def test_pure_diversity_spreads_branches(self):
        candidates = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        chosen = mmr_select(candidates, 2, trade_off=0.0)
        assert {d[0] for d in chosen} == {0, 1}

    def test_relevance_dominates_at_trade_off_one(self):
        candidates = [(0, 0), (0, 1), (1, 0)]
        relevance = {(0, 0): 3.0, (0, 1): 2.0, (1, 0): 1.0}
        chosen = mmr_select(candidates, 2, relevance=relevance, trade_off=1.0)
        assert chosen == [(0, 0), (0, 1)]

    def test_k_bounds(self):
        assert mmr_select([(0, 0)], 0) == []
        assert mmr_select([], 3) == []
        assert mmr_select([(0, 0)], 5) == [(0, 0)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mmr_select([(0, 0)], -1)
        with pytest.raises(ValueError):
            mmr_select([(0, 0)], 1, trade_off=1.5)

    def test_deterministic(self):
        candidates = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
        assert mmr_select(candidates, 3) == mmr_select(list(reversed(candidates)), 3)


def duplicate_heavy_index():
    """100 Civics followed (in document order) by one car each of three
    other models — the paper's 'hundreds of cars of a given model'
    situation.  The singletons sort after 'Civic' so the scan window fills
    with duplicates first."""
    schema = Schema.of(model="categorical", color="categorical")
    rows = [("Civic", f"color{i % 7}") for i in range(100)]
    rows += [("Wagon", "blue"), ("Xterra", "green"), ("Yaris", "red")]
    relation = Relation.from_rows(schema, rows)
    return InvertedIndex.build(relation, DiversityOrdering(["model", "color"]))


class TestRetrieveCk:
    def test_small_window_misses_branches(self):
        """With c*k < 100 the window holds only Civics: the baseline cannot
        be diverse no matter how it reranks (the intro's core argument)."""
        index = duplicate_heavy_index()
        merged = MergedList(parse_query(""), index)
        full = collect_all(merged)
        selected = retrieve_ck_diverse(MergedList(parse_query(""), index), 4, c=2)
        assert balance_violations(selected, full) > 0
        models = {index.dewey.values_of(d)[0] for d in selected}
        assert models == {"Civic"}

    def test_large_window_recovers(self):
        index = duplicate_heavy_index()
        merged = MergedList(parse_query(""), index)
        full = collect_all(merged)
        selected = retrieve_ck_diverse(MergedList(parse_query(""), index), 4, c=30)
        models = {index.dewey.values_of(d)[0] for d in selected}
        assert len(models) == 4
        assert balance_violations(selected, full) == 0

    def test_c_must_be_positive(self):
        index = duplicate_heavy_index()
        with pytest.raises(ValueError):
            retrieve_ck_diverse(MergedList(parse_query(""), index), 4, c=0)

    def test_evaluate_ck_monotone_improvement(self):
        index = duplicate_heavy_index()
        merged = MergedList(parse_query(""), index)
        full = collect_all(merged)
        report = evaluate_ck(
            MergedList(parse_query(""), index), full, 4, [1, 2, 30]
        )
        assert report[30] == 0
        assert report[1] >= report[30]
        assert report[2] > 0  # window of 8 Civics still misses everything

    def test_exact_algorithms_never_violate(self):
        from repro.core.probing import probe_unscored

        index = duplicate_heavy_index()
        merged = MergedList(parse_query(""), index)
        full = collect_all(merged)
        exact = probe_unscored(MergedList(parse_query(""), index), 4)
        assert balance_violations(exact, full) == 0
        assert is_diverse(exact, full, 4)
