"""Tests for the exact diversifiers (the Naive post-processing / oracle)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversify import diverse_subset, scored_diverse_subset
from repro.core.similarity import is_diverse, is_scored_diverse

from . import reference_diversify


def random_ids(rng, n, fanout=3, depth=3):
    ids = set()
    for i in range(n):
        ids.add(tuple(rng.randint(0, fanout - 1) for _ in range(depth)) + (i,))
    return sorted(ids)


class TestDiverseSubset:
    def test_figure1_narrative(self):
        """Query 'Low' over Figure 1, k=3: one Honda (Civic) and two
        Toyotas — or two and one; either way all distinct models."""
        # 5 Civics under Honda, 4 distinct Toyota models (Fig. 3 shape).
        ids = [(0, 0, c, 0) for c in range(5)] + [(1, m, 0, 0) for m in range(4)]
        chosen = diverse_subset(ids, 3)
        makes = [d[0] for d in chosen]
        assert sorted(makes) in ([0, 0, 1], [0, 1, 1])
        toyotas = [d for d in chosen if d[0] == 1]
        assert len({d[1] for d in toyotas}) == len(toyotas)

    def test_k_larger_than_population(self):
        ids = [(0, 0), (1, 0)]
        assert diverse_subset(ids, 10) == ids

    def test_k_zero(self):
        assert diverse_subset([(0, 0)], 0) == []

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            diverse_subset([(0, 0)], -1)

    def test_deterministic(self):
        rng = random.Random(5)
        ids = random_ids(rng, 20)
        assert diverse_subset(ids, 7) == diverse_subset(list(reversed(ids)), 7)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_output_is_diverse(self, seed):
        rng = random.Random(seed)
        ids = random_ids(rng, rng.randint(1, 25))
        k = rng.randint(0, len(ids) + 2)
        chosen = diverse_subset(ids, k)
        assert len(chosen) == min(k, len(ids))
        assert is_diverse(chosen, ids, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_nested_extraction(self, seed):
        """Water-filling nestedness: a diverse k-subset's objective can only
        improve as k shrinks (sanity of the one-pass cap argument)."""
        rng = random.Random(seed)
        ids = random_ids(rng, rng.randint(2, 15))
        for k in range(len(ids), 0, -1):
            assert is_diverse(diverse_subset(ids, k), ids, k)


@st.composite
def dewey_lists(draw):
    """Unsorted Dewey IDs of one depth (1–6), components from a small
    range so groups tie and repeat, duplicates allowed, and a ``k`` from
    {0, 1, n - 1, >= n} or anywhere in between."""
    depth = draw(st.integers(1, 6))
    fanout = draw(st.integers(1, 4))
    component = st.integers(0, fanout - 1)
    ids = draw(st.lists(st.tuples(*[component] * depth), max_size=60))
    n = len(ids)
    k = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 3])
             | st.integers(0, n + 1))
    return ids, k


class TestAgainstFrozenSelection:
    """Index-range selection (bisected group bounds, an early stop once
    more groups than budget are known) returns exactly what the per-group
    copying code returned (``tests/reference_diversify.py``)."""

    @settings(max_examples=400, deadline=None)
    @given(dewey_lists())
    def test_same_output_as_the_frozen_code(self, case):
        ids, k = case
        assert diverse_subset(ids, k) == reference_diversify.diverse_subset(ids, k)

    def test_many_tied_groups(self):
        ids = [(top, child, 0) for top in range(40) for child in range(3)]
        random.Random(5).shuffle(ids)
        for k in (1, 2, 39, 40, 41, 79, 80, 81, 119, 120, 200):
            assert diverse_subset(ids, k) == reference_diversify.diverse_subset(
                ids, k)

class TestScoredDiverseSubset:
    def test_unique_scores_reduce_to_topk(self):
        scores = {(0, 0, i): float(i) for i in range(6)}
        chosen = scored_diverse_subset(scores, 3)
        assert sorted(chosen) == [(0, 0, 3), (0, 0, 4), (0, 0, 5)]

    def test_uniform_scores_reduce_to_unscored(self):
        ids = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
        scores = {d: 1.0 for d in ids}
        chosen = scored_diverse_subset(scores, 2)
        assert is_diverse(chosen, ids, 2)
        assert {d[0] for d in chosen} == {0, 1}

    def test_forced_plus_tier(self):
        scores = {(0, 0, 0): 9.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0, (1, 1, 0): 1.0}
        chosen = scored_diverse_subset(scores, 2)
        assert (0, 0, 0) in chosen
        # The remaining slot goes to the other branch.
        assert any(d[0] == 1 for d in chosen)

    def test_k_zero_and_overflow(self):
        scores = {(0, 0): 1.0}
        assert scored_diverse_subset(scores, 0) == []
        assert scored_diverse_subset(scores, 5) == [(0, 0)]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            scored_diverse_subset({(0, 0): 1.0}, -2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_output_is_scored_diverse(self, seed):
        rng = random.Random(seed)
        ids = random_ids(rng, rng.randint(1, 20))
        scores = {d: float(rng.randint(1, 4)) for d in ids}
        k = rng.randint(1, len(ids))
        chosen = scored_diverse_subset(scores, k)
        assert is_scored_diverse(chosen, scores, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_total_score_matches_topk(self, seed):
        rng = random.Random(seed)
        ids = random_ids(rng, rng.randint(1, 15))
        scores = {d: float(rng.randint(1, 3)) for d in ids}
        k = rng.randint(1, len(ids))
        chosen = scored_diverse_subset(scores, k)
        best = sum(sorted(scores.values(), reverse=True)[:k])
        assert sum(scores[d] for d in chosen) == pytest.approx(best)
