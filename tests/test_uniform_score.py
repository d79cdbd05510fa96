"""Scored reads on plans whose matches all score alike.

A leaf, or an AND of such plans, gives every match the score
``max_score()`` (Section II's remark), so Definition 2 is Definition 1 and
``run_algorithm`` runs the unscored probe / one-pass / basic driver.  These
tests hold that dispatch to the scored drivers it replaces, to Theorem 2,
to the scored diversity definition and to the planner's prices.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import basic_scored, naive_scored
from repro.core.engine import DiversityEngine, run_algorithm
from repro.core.onepass import one_pass_scored
from repro.core.ordering import DiversityOrdering
from repro.core.similarity import is_scored_diverse
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.observability import probe_bound, use_registry
from repro.planner import choose
from repro.query.evaluate import scored_res
from repro.query.parser import parse_query
from repro.query.query import Query

from .conftest import COLORS, MAKES, MODELS, RANDOM_ORDERING, WORDS, random_relation

#: Weights whose sums depend on the order they are added in.
WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5)


def uniform_plan(rng: random.Random) -> Query:
    """A leaf or an AND (possibly nested) of two or three weighted leaves."""
    def weight():
        return rng.choice(WEIGHTS)

    leaves = [
        lambda: Query.scalar("make", rng.choice(MAKES), weight=weight()),
        lambda: Query.scalar("model", rng.choice(MODELS), weight=weight()),
        lambda: Query.scalar("color", rng.choice(COLORS), weight=weight()),
        lambda: Query.keyword("desc", rng.choice(WORDS), weight=weight()),
    ]
    chosen = [make() for make in rng.sample(leaves, rng.randint(1, 3))]
    if len(chosen) == 1:
        return chosen[0]
    if len(chosen) == 3 and rng.random() < 0.5:
        return Query(
            "and", children=(chosen[0], Query.conjunction(*chosen[1:])))
    return Query.conjunction(*chosen)


def ranked(scores):
    return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


class TestUniformScore:
    @pytest.mark.parametrize("text, uniform", [
        ("Make = 'Honda'", True),
        ("Make = 'Honda' [2] AND Color = 'Red' [0.5]", True),
        ("Description CONTAINS 'low miles' [3]", True),
        ("Make = 'Honda' OR Color = 'Red'", False),
        ("Make = 'Honda' AND (Color = 'Red' OR Year = 2007)", False),
    ])
    def test_leaves_and_conjunctions_only(self, text, uniform):
        assert parse_query(text).uniform_score() is uniform

    def test_match_all_is_uniform(self):
        assert Query.match_all().uniform_score()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_scored_run_equals_the_scored_drivers(seed):
    """SOnePass and SBasic are bit-identical whichever driver runs: the
    same ids, the same float scores, in the same order."""
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=40)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    engine = DiversityEngine(index)
    # The plan the engine runs: conjuncts reordered rarest first, which is
    # also the order the scores are summed in.
    query = engine.prepare(uniform_plan(rng), scored=True)
    assert query.uniform_score()
    for k in (1, 5, 10, 25):
        for algorithm, driver in (("onepass", one_pass_scored),
                                  ("basic", basic_scored)):
            direct = driver(MergedList(query, index), k)
            _, scores, stats = run_algorithm(index, query, k, algorithm, True)
            assert stats["scored_next_calls"] == 0
            assert ranked(scores) == ranked(direct)
            result = engine.execute(query, k, algorithm=algorithm, scored=True)
            assert [(item.dewey, item.score) for item in result.items] \
                == ranked(direct)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_scored_probe_on_a_uniform_plan_is_scored_diverse(seed):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=40)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = uniform_plan(rng)
    universe = {index.dewey.dewey_of(rid): score
                for rid, score in scored_res(relation, query)}
    for k in (1, 3, 7):
        deweys, scores, stats = run_algorithm(index, query, k, "probe", True)
        assert is_scored_diverse(deweys, universe, k)
        # ``Query.score`` sums a nested AND per level, the engine leaf by
        # leaf: the same weights, added in another order.
        assert scores == pytest.approx(
            {dewey: universe[dewey] for dewey in deweys})
        assert stats["probe_calls"] <= stats["probe_bound"] == probe_bound(k)


def test_a_scored_probe_on_a_leaf_is_held_to_theorem_2(cars_engine):
    with use_registry() as registry:
        for k in (1, 3, 6):
            result = cars_engine.search("Make = 'Honda' [2]", k,
                                        algorithm="probe", scored=True)
            stats = result.stats
            assert stats["probe_bound"] == probe_bound(k)
            assert stats["probe_calls"] <= probe_bound(k)
            assert stats["probe_bound_exceeded"] == 0
            assert stats["scored_next_calls"] == 0
            assert [item.score for item in result.items] == [2.0] * k
        assert registry.value("repro_probe_max_bound") == probe_bound(6)
        assert 0 < registry.value("repro_probe_max_calls") <= probe_bound(6)
        assert registry.find("repro_probe_calls", mode="scored").count == 3


def test_an_or_plan_still_runs_the_scored_driver(cars_engine):
    result = cars_engine.search("Make = 'Toyota' [2] OR Year = 2006", 4,
                                algorithm="probe", scored=True)
    assert result.stats["scored_next_calls"] > 0
    assert "probe_bound" not in result.stats


def test_naive_keeps_its_scored_path(cars_index):
    query = parse_query("Make = 'Honda' [2] AND Color = 'Red' [0.5]")
    _, scores, _ = run_algorithm(cars_index, query, 2, "naive", True)
    assert scores == naive_scored(MergedList(query, cars_index), 2)


@pytest.mark.parametrize("text", [
    "Make = 'Honda' [2]",
    "Make = 'Honda' [2] AND Year = 2007 [0.5]",
    "Description CONTAINS 'miles'",
])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_the_planner_prices_a_uniform_plan_as_unscored(cars_index, text, k):
    query = parse_query(text)
    scored = choose(cars_index, query, k, scored=True)
    unscored = choose(cars_index, query, k, scored=False)
    assert scored.costs == unscored.costs
    assert scored.algorithm == unscored.algorithm
    assert scored.scored


def test_the_planner_still_surcharges_an_or_plan(cars_index):
    query = parse_query("Make = 'Honda' OR Year = 2007")
    scored = choose(cars_index, query, 5, scored=True)
    unscored = choose(cars_index, query, 5, scored=False)
    assert scored.costs["probe"] > unscored.costs["probe"]


@pytest.fixture(scope="module")
def autos_engine():
    relation = generate_autos(AutosSpec(rows=3000, seed=42))
    return DiversityEngine.from_relation(relation, autos_ordering())


@pytest.mark.parametrize("text, k", [
    ("Make = 'Toyota' [0]", 5),
    ("Model = 'Civic' OR Make = 'Toyota' [0]", 504),
    ("Model = 'Civic' OR Make = 'Toyota' [0]", 600),
])
def test_matches_that_score_zero_are_kept(autos_engine, text, k):
    """A zero-weight leaf is part of the plan: its matches score 0, and a
    top-k that reaches them must return them."""
    query = parse_query(text)
    relation = autos_engine.relation
    dewey_of = autos_engine.index.dewey.dewey_of
    universe = {dewey_of(rid): score for rid, score in scored_res(relation, query)}
    expected = min(k, len(universe))
    for algorithm in ("probe", "basic", "onepass", "naive"):
        result = autos_engine.search(text, k, algorithm=algorithm, scored=True)
        assert len(result.items) == expected, algorithm
        assert all(universe[item.dewey] == item.score for item in result.items)
        if algorithm != "basic":
            assert is_scored_diverse(result.deweys, universe, k), algorithm
