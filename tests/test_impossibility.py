"""Tests for the Inverted-List IR system and the Theorem 1 demonstration."""

import random

import pytest

from repro.data.paper_example import figure1_relation
from paper.ir.impossibility import (
    THEOREM_QUERIES,
    adversarial_assignments,
    demonstrate,
    find_violation,
    random_assignment,
)
from paper.ir.irsystem import (
    InvertedListIRSystem,
    max_aggregator,
    min_aggregator,
    scalar_key,
    sum_aggregator,
    token_key,
)


class TestIRSystem:
    @pytest.fixture
    def system(self):
        relation = figure1_relation()
        scores = {}
        # Score item rid in every list it belongs to with 100 - rid, so
        # smaller rids rank first everywhere.
        probe = InvertedListIRSystem(relation, {})
        for key in probe.list_keys():
            for rid in probe.postings(key):
                scores[(key, rid)] = 100.0 - rid
        return InvertedListIRSystem(relation, scores)

    def test_lists_built(self, system):
        assert set(system.postings(scalar_key("Make", "Toyota"))) == {11, 12, 13, 14}
        assert len(system.postings(token_key("Description", "miles"))) == 11

    def test_postings_ordered_by_score(self, system):
        rids = system.postings(scalar_key("Make", "Honda"))
        assert rids == sorted(rids)  # higher score = smaller rid here

    def test_top_k_single_list(self, system):
        top = system.top_k([(scalar_key("Year", 2007), 1.0)], 3)
        assert top == [0, 1, 2]

    def test_top_k_two_lists_sum(self, system):
        top = system.top_k(
            [(scalar_key("Year", 2007), 1.0),
             (token_key("Description", "miles"), 1.0)],
            2,
        )
        # Items in both lists get doubled weight: 2007+miles rows win.
        assert top == [0, 1]

    def test_weights_scale_lists(self, system):
        top = system.top_k(
            [(scalar_key("Make", "Toyota"), 100.0),
             (scalar_key("Make", "Honda"), 1.0)],
            4,
        )
        assert set(top) == {11, 12, 13, 14}

    def test_allowed_filter(self, system):
        top = system.top_k(
            [(scalar_key("Year", 2007), 1.0)], 3, allowed={5, 7, 9}
        )
        assert top == [5, 7, 9]

    def test_aggregators(self):
        assert sum_aggregator([1.0, 2.0]) == 3.0
        assert max_aggregator([1.0, 2.0]) == 2.0
        assert min_aggregator([1.0, 2.0]) == 1.0
        assert max_aggregator([]) == 0.0


class TestTheorem1:
    def test_three_queries_defined(self):
        assert len(THEOREM_QUERIES) == 3
        assert THEOREM_QUERIES[2][1] == 6  # the conjunctive query uses k=6

    def test_every_adversarial_assignment_violates(self):
        for scores in adversarial_assignments():
            violation = find_violation(scores)
            assert violation is not None

    def test_adversarial_assignments_fail_on_the_conjunction(self):
        """Assignments tuned to satisfy Q1 and Q2 must break on Q3 — the
        counting argument at the heart of the proof."""
        conjunctive = THEOREM_QUERIES[2][0]
        hits = 0
        for scores in adversarial_assignments():
            violation = find_violation(scores)
            if violation.query_text == conjunctive:
                hits += 1
        assert hits > 0

    def test_random_assignments_always_violate(self):
        rng = random.Random(99)
        for _ in range(25):
            assert find_violation(random_assignment(rng)) is not None

    def test_demonstrate_reports_no_survivors(self):
        report = demonstrate(random_trials=20, seed=5)
        assert report["survivors"] == 0
        assert report["assignments_checked"] == 20 + 16
        assert sum(report["violations_per_query"].values()) == 36

    def test_weights_must_align(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            find_violation(
                random_assignment(rng), weights=[[], [1.0], [1.0, 1.0]]
            )
