"""Tests for the symmetric score/diversity trade-off (Section VII)."""

import itertools

import pytest

from paper.extensions.symmetric import (
    SymmetricObjective,
    greedy_symmetric_select,
    hierarchy_level_weights,
    symmetric_search,
    uniform_level_weights,
)


class TestObjective:
    def test_value_counts_coverage_once(self):
        objective = SymmetricObjective([10.0, 1.0, 0.0])
        scores = {(0, 0, 0): 1.0, (0, 1, 0): 1.0, (1, 0, 0): 1.0}
        # Two items in branch 0: one level-1 prefix, two level-2 prefixes.
        value = objective.value([(0, 0, 0), (0, 1, 0)], scores)
        assert value == pytest.approx(2.0 + 10.0 + 2.0)

    def test_coverage_gain_shrinks(self):
        objective = SymmetricObjective([5.0, 1.0])
        covered = set()
        first = objective.coverage_gain(covered, (0, 0))
        objective.cover(covered, (0, 0))
        second = objective.coverage_gain(covered, (0, 1))
        assert first == 6.0 and second == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SymmetricObjective([])
        with pytest.raises(ValueError):
            SymmetricObjective([-1.0])


class TestGreedySelect:
    def test_zero_weights_reduce_to_topk(self):
        objective = SymmetricObjective([0.0, 0.0, 0.0])
        scores = {(0, 0, 0): 5.0, (0, 1, 0): 4.0, (1, 0, 0): 1.0}
        chosen = greedy_symmetric_select(scores, 2, objective)
        assert sorted(chosen) == [(0, 0, 0), (0, 1, 0)]

    def test_diversity_across_scores(self):
        """The promised behaviour: a weaker tuple from an unrepresented
        branch beats a stronger near-duplicate — impossible under the
        paper's lexicographic definition."""
        objective = SymmetricObjective([10.0, 0.0, 0.0])
        scores = {
            (0, 0, 0): 9.0,   # strong
            (0, 0, 1): 8.0,   # strong near-duplicate
            (1, 0, 0): 3.0,   # weak but novel branch
        }
        chosen = greedy_symmetric_select(scores, 2, objective)
        assert sorted(chosen) == [(0, 0, 0), (1, 0, 0)]

    def test_matches_bruteforce_on_small_instances(self):
        objective = SymmetricObjective([4.0, 1.5, 0.0])
        scores = {
            (0, 0, 0): 2.0, (0, 0, 1): 1.0, (0, 1, 0): 1.5,
            (1, 0, 0): 0.5, (1, 1, 0): 2.5, (2, 0, 0): 0.25,
        }
        for k in (1, 2, 3, 4):
            chosen = greedy_symmetric_select(scores, k, objective)
            got = objective.value(chosen, scores)
            best = max(
                objective.value(combo, scores)
                for combo in itertools.combinations(scores, k)
            )
            # Greedy is (1 - 1/e)-approximate in general; on these small
            # instances it should be exact.
            assert got == pytest.approx(best)

    def test_k_bounds(self):
        objective = SymmetricObjective([1.0])
        assert greedy_symmetric_select({}, 3, objective) == []
        assert greedy_symmetric_select({(0, 0): 1.0}, 0, objective) == []
        with pytest.raises(ValueError):
            greedy_symmetric_select({(0, 0): 1.0}, -1, objective)

    def test_deterministic(self):
        objective = SymmetricObjective([2.0, 0.0])
        scores = {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0}
        a = greedy_symmetric_select(scores, 2, objective)
        b = greedy_symmetric_select(dict(reversed(list(scores.items()))), 2, objective)
        assert a == b


class TestWeightHelpers:
    def test_uniform(self):
        assert uniform_level_weights(4, 2.0) == [2.0, 2.0, 2.0, 0.0]

    def test_hierarchy_decays(self):
        weights = hierarchy_level_weights(4, top=8.0, decay=0.5)
        assert weights == [8.0, 4.0, 2.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_level_weights(0, 1.0)
        with pytest.raises(ValueError):
            hierarchy_level_weights(3, 1.0, decay=0.0)


class TestSymmetricSearch:
    def test_spreads_makes_despite_score_gap(self, cars_engine):
        results = symmetric_search(
            cars_engine,
            "Make = 'Honda' [2] OR Description CONTAINS 'miles' [1]",
            k=4,
            strength=5.0,
        )
        makes = {cars_engine.index.dewey.values_of(d)[0] for d, _ in results}
        # Hondas outscore Toyotas 3-to-1, yet coverage pulls a Toyota in.
        assert makes == {"Honda", "Toyota"}

    def test_zero_strength_is_score_only(self, cars_engine):
        results = symmetric_search(
            cars_engine,
            "Make = 'Honda' [2] OR Description CONTAINS 'miles' [1]",
            k=4,
            level_weights=[0.0] * cars_engine.index.depth,
        )
        # All four picks satisfy both predicates (score 3): Honda Civics.
        assert all(score == 3.0 for _, score in results)
