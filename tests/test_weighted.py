"""Tests for the weighted-diversity extension (Section VII)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversify import diverse_subset
from paper.extensions.weighted import (
    WeightedDiversifier,
    is_weighted_balanced,
    weighted_waterfill,
)
from repro.data.paper_example import figure1_ordering
from repro.index.dewey_index import DeweyIndex
from repro.storage.relation import Relation
from repro.storage.schema import Schema


class TestWeightedWaterfill:
    def test_uniform_weights_match_unweighted(self):
        assert weighted_waterfill(6, [5, 5, 5], [1, 1, 1]) == [2, 2, 2]

    def test_heavier_bin_gets_more(self):
        allocation = weighted_waterfill(6, [10, 10], [2.0, 1.0])
        assert allocation[0] > allocation[1]
        assert sum(allocation) == 6

    def test_capacity_respected(self):
        allocation = weighted_waterfill(6, [1, 10], [100.0, 1.0])
        assert allocation == [1, 5]

    def test_infeasible(self):
        with pytest.raises(ValueError):
            weighted_waterfill(5, [2, 2], [1, 1])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_waterfill(1, [2], [0.0])

    def test_misaligned(self):
        with pytest.raises(ValueError):
            weighted_waterfill(1, [2], [1.0, 1.0])

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
        st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=4, max_size=4),
        st.data(),
    )
    def test_optimal_vs_bruteforce(self, capacities, weights, data):
        weights = weights[: len(capacities)]
        budget = data.draw(st.integers(min_value=0, max_value=sum(capacities)))
        allocation = weighted_waterfill(budget, capacities, weights)
        objective = sum(n * n / w for n, w in zip(allocation, weights))
        best = min(
            sum(n * n / w for n, w in zip(combo, weights))
            for combo in itertools.product(*(range(c + 1) for c in capacities))
            if sum(combo) == budget
        )
        assert objective == pytest.approx(best)
        assert is_weighted_balanced(allocation, capacities, weights)


class TestIsWeightedBalanced:
    def test_uniform_matches_unweighted_notion(self):
        assert is_weighted_balanced([2, 1], [5, 5], [1, 1])
        assert not is_weighted_balanced([3, 0], [5, 5], [1, 1])

    def test_weights_excuse_imbalance(self):
        # Weight 4 vs 1: (3, 1) has marginal saving (2*3-1)/4 = 1.25 vs
        # receiver cost (2*1+1)/1 = 3 -> balanced.
        assert is_weighted_balanced([3, 1], [5, 5], [4.0, 1.0])

    def test_overflow_rejected(self):
        assert not is_weighted_balanced([3], [2], [1.0])


def build_diversifier(weights):
    schema = Schema.of(
        Make="categorical", Model="categorical", Color="categorical",
        Year="numeric", Description="text",
    )
    rows = []
    for make in ("Honda", "Tesla"):
        for i in range(6):
            rows.append((make, f"m{i}", "Black", 2007, "low miles"))
    relation = Relation.from_rows(schema, rows)
    index = DeweyIndex.build(relation, figure1_ordering())
    return relation, index, WeightedDiversifier(index, weights)


class TestWeightedDiversifier:
    def test_section_vii_example(self):
        """Higher weight on Honda -> more Hondas than Teslas in the result."""
        relation, index, diversifier = build_diversifier(
            {("Make", "Honda"): 3.0, ("Make", "Tesla"): 1.0}
        )
        everything = index.all_deweys()
        chosen = diversifier.select(everything, 8)
        hondas = sum(1 for d in chosen if index.values_of(d)[0] == "Honda")
        assert hondas > 8 - hondas
        assert diversifier.is_weighted_diverse(chosen, everything)

    def test_uniform_weights_reduce_to_unweighted(self):
        relation, index, diversifier = build_diversifier({})
        everything = index.all_deweys()
        for k in (1, 3, 6, 9):
            weighted = diversifier.select(everything, k)
            unweighted = diverse_subset(everything, k)
            # Same per-make counts (identity may differ on ties).
            count = lambda sel: sorted(
                sum(1 for d in sel if d[0] == make) for make in (0, 1)
            )
            assert count(weighted) == count(unweighted)

    def test_k_bounds(self):
        relation, index, diversifier = build_diversifier({})
        everything = index.all_deweys()
        assert diversifier.select(everything, 0) == []
        assert diversifier.select(everything, 99) == everything

    def test_checker_rejects_skew_against_weights(self):
        relation, index, diversifier = build_diversifier(
            {("Make", "Honda"): 5.0}
        )
        everything = index.all_deweys()
        teslas = [d for d in everything if index.values_of(d)[0] == "Tesla"]
        hondas = [d for d in everything if index.values_of(d)[0] == "Honda"]
        # 1 Honda + 5 Teslas is badly unbalanced when Honda weighs 5x.
        skewed = hondas[:1] + teslas[:5]
        assert not diversifier.is_weighted_diverse(skewed, everything)

    def test_weight_of_uniqueness_level_is_one(self):
        relation, index, diversifier = build_diversifier({})
        assert diversifier.weight_of(5, (0, 0, 0, 0, 0), 0) == 1.0
