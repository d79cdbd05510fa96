"""Tests for logical rewriting, query-string rendering, and selectivity
estimation / physical ordering."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ALGORITHMS, run_algorithm
from repro.index.inverted import InvertedIndex
from repro.core.ordering import DiversityOrdering
from repro.query.estimate import (
    estimate_cardinality,
    estimate_selectivity,
    leaf_cardinality,
    order_for_leapfrog,
)
from repro.query.evaluate import res
from repro.query.parser import parse_query
from repro.query.query import AND, LEAF, OR, Query
from repro.query.rewrite import is_match_all_leaf, normalise, to_query_string

from .conftest import RANDOM_ORDERING, random_query, random_relation


class TestNormalise:
    def test_flattens(self):
        nested = Query(AND, children=(
            Query.scalar("a", 1),
            Query(AND, children=(Query.scalar("b", 2), Query.scalar("c", 3))),
        ))
        flat = normalise(nested)
        assert len(flat.children) == 3

    def test_merges_duplicate_leaves_summing_weights(self):
        q = Query.disjunction(
            Query.scalar("a", 1, weight=2.0),
            Query.scalar("a", 1, weight=3.0),
            Query.scalar("b", 2),
        )
        merged = normalise(q)
        assert len(merged.children) == 2
        weights = {c.predicate.attribute: c.weight for c in merged.children}
        assert weights["a"] == 5.0

    def test_score_preserved_by_merge(self):
        q = Query.disjunction(
            Query.scalar("a", 1, weight=2.0), Query.scalar("a", 1, weight=3.0)
        )
        merged = normalise(q)
        row = {"a": 1}
        assert merged.score(row) == q.score(row) == 5.0

    def test_true_dropped_from_and(self):
        q = Query.match_all() & Query.scalar("a", 1)
        assert normalise(q) == Query.scalar("a", 1)

    def test_all_true_and_collapses_to_match_all(self):
        q = Query(AND, children=(Query.match_all().children[0],))
        assert normalise(q).is_match_all()

    def test_singleton_collapse(self):
        q = Query(OR, children=(Query.scalar("a", 1),))
        assert normalise(q).kind == LEAF

    def test_leaf_passthrough(self):
        leaf = Query.scalar("a", 1)
        assert normalise(leaf) is leaf

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_boolean_equivalence(self, seed):
        rng = random.Random(seed)
        relation = random_relation(rng, max_rows=25)
        query = random_query(rng, weighted=True)
        rewritten = normalise(query)
        assert res(relation, query) == res(relation, rewritten)
        # A compiled plan is compiled once: normalising it again is a no-op.
        assert normalise(rewritten) == rewritten


class TestToQueryString:
    def test_scalar(self):
        assert to_query_string(Query.scalar("Make", "Honda")) == "Make = 'Honda'"

    def test_numeric(self):
        assert to_query_string(Query.scalar("Year", 2007)) == "Year = 2007"

    def test_weight(self):
        text = to_query_string(Query.scalar("a", 1, weight=2.5))
        assert text == "a = 1 [2.5]"

    def test_keyword(self):
        text = to_query_string(Query.keyword("D", "low miles"))
        assert text == "D CONTAINS 'low miles'"

    def test_quotes_escaped(self):
        q = Query.scalar("a", "O'Brien")
        assert parse_query(to_query_string(q)).predicate.value == "O'Brien"

    def test_nested(self):
        q = (Query.scalar("a", 1) | Query.scalar("b", 2)) & Query.scalar("c", 3)
        text = to_query_string(q)
        assert parse_query(text) == q

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_roundtrip(self, seed):
        rng = random.Random(seed)
        query = random_query(rng, weighted=True)
        assert parse_query(to_query_string(query)) == query


class TestEstimate:
    @pytest.fixture
    def index(self, cars):
        from repro.data.paper_example import figure1_ordering

        return InvertedIndex.build(cars, figure1_ordering())

    def test_leaf_cardinality_exact(self, index):
        assert leaf_cardinality(parse_query("Make = 'Honda'"), index) == 11
        assert leaf_cardinality(parse_query("Make = 'Tesla'"), index) == 0
        assert leaf_cardinality(
            parse_query("Description CONTAINS 'miles'"), index
        ) == 11
        assert leaf_cardinality(Query.match_all().children[0], index) == 15

    def test_keyword_multi_token_uses_rarest(self, index):
        assert leaf_cardinality(
            parse_query("Description CONTAINS 'good miles'"), index
        ) == 3  # 'good' appears 3 times, 'miles' 11

    def test_and_independence(self, index):
        q = parse_query("Make = 'Honda' AND Year = 2007")
        expected = 15 * (11 / 15) * (11 / 15)
        assert estimate_cardinality(q, index) == pytest.approx(expected)

    def test_or_inclusion_exclusion(self, index):
        q = parse_query("Make = 'Honda' OR Make = 'Toyota'")
        sel = 1 - (1 - 11 / 15) * (1 - 4 / 15)
        assert estimate_selectivity(q, index) == pytest.approx(sel)

    def test_empty_index(self):
        from repro.storage.relation import Relation
        from repro.storage.schema import Schema

        empty = Relation(Schema.of(a="categorical"))
        index = InvertedIndex.build(empty, DiversityOrdering(["a"]))
        assert estimate_cardinality(parse_query("a = 'x'"), index) == 0.0


class TestOrderForLeapfrog:
    @pytest.fixture
    def index(self, cars):
        from repro.data.paper_example import figure1_ordering

        return InvertedIndex.build(cars, figure1_ordering())

    def test_rarest_child_first(self, index):
        q = parse_query("Make = 'Honda' AND Description CONTAINS 'Rare'")
        ordered = order_for_leapfrog(q, index)
        first = ordered.children[0]
        assert first.predicate.attribute == "Description"

    def test_len_of_the_index_is_taken_once_per_plan(self, cars):
        """``len`` of a sharded index is a sum over shards: one per plan,
        not one per node of the query tree."""
        from repro import DiversityEngine
        from repro.data.paper_example import figure1_ordering
        from repro.index.reader import ReaderProxy

        class Counting(ReaderProxy):
            lens = 0

            def __init__(self, target):
                self._target = target

            def __len__(self):
                self.lens += 1
                return len(self._target)

        index = Counting(InvertedIndex.build(cars, figure1_ordering()))
        engine = DiversityEngine(index)
        engine.prepare("Make = 'Honda' AND (Color = 'Blue' OR Year = 2007) "
                       "AND Description CONTAINS 'Rare'")
        assert index.lens == 1

    def test_or_children_untouched_in_order_semantics(self, index):
        q = parse_query("Make = 'Honda' OR Make = 'Toyota'")
        ordered = order_for_leapfrog(q, index)
        assert {c.predicate.value for c in ordered.children} == {"Honda", "Toyota"}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_semantics_preserved(self, seed):
        rng = random.Random(seed)
        relation = random_relation(rng, max_rows=25)
        index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
        query = random_query(rng, weighted=True)
        ordered = order_for_leapfrog(query, index)
        assert res(relation, query) == res(relation, ordered)
        names = relation.schema.names
        for row in relation:
            mapping = dict(zip(names, row))
            assert query.score(mapping) == pytest.approx(ordered.score(mapping))


class TestEngineOptimizeFlag:
    """The rewrite-and-order step that used to sit behind an ``optimize``
    switch is always on; the un-ordered parse is the reference."""

    def test_same_answers_with_and_without(self, cars_engine):
        text = "Description CONTAINS 'Rare' AND Make = 'Honda'"
        a = cars_engine.search(text, k=3)
        b, _, _ = run_algorithm(cars_engine.index, parse_query(text), 3)
        assert a.deweys == list(b)

    def test_optimized_conjunction_probes_less_or_equal(self, cars_engine):
        text = "Make = 'Honda' AND Description CONTAINS 'Rare'"
        optimized = run_algorithm(cars_engine.index, cars_engine.prepare(text),
                                  3, "naive")
        plain = run_algorithm(cars_engine.index, parse_query(text), 3, "naive")
        assert list(optimized[0]) == list(plain[0])
        assert optimized[2]["next_calls"] <= plain[2]["next_calls"]


class TestEngineOrdering:
    def test_ordering_never_changes_answers(self, cars_engine):
        """``search`` always normalises (unscored) and leapfrog-orders its
        plan; every algorithm answers exactly as it does on the parsed,
        un-ordered plan."""
        for text in ["Description CONTAINS 'Rare' AND Make = 'Honda'",
                     "Make = 'Honda' AND Description CONTAINS 'Rare'",
                     "Make = 'Honda' AND (Color = 'Blue' OR Year = 2007)"]:
            for algorithm in ALGORITHMS:
                for scored in (False, True):
                    result = cars_engine.search(text, k=3, algorithm=algorithm,
                                                scored=scored)
                    deweys, scores, _ = run_algorithm(
                        cars_engine.index, parse_query(text), 3, algorithm,
                        scored)
                    context = f"{algorithm} scored={scored} {text!r}"
                    if scored:
                        assert {item.dewey: item.score
                                for item in result.items} == scores, context
                    else:
                        assert result.deweys == list(deweys), context


class TestEstimateInvariants:
    """Property tests for the invariants the PR 7 cost model prices from.

    ``repro.planner`` assumes the estimator behaves like a measure: leaf
    estimates are exact, conjunction can only narrow, disjunction can only
    widen, and everything stays inside [0, |R|].  A violation here would
    silently skew every auto-selection decision, so these are pinned as
    properties rather than examples.
    """

    @staticmethod
    def _index(rng, max_rows=30):
        relation = random_relation(rng, max_rows=max_rows)
        return InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_clamped_and_leaf_exact(self, seed):
        rng = random.Random(seed)
        index = self._index(rng)
        query = random_query(rng)
        est = estimate_cardinality(query, index)
        assert 0.0 <= est <= len(index) + 1e-9
        for leaf in query.leaves():
            if is_match_all_leaf(leaf):
                continue
            assert estimate_cardinality(leaf, index) == pytest.approx(
                min(leaf_cardinality(leaf, index), len(index))
            )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_monotone_under_conjunct_narrowing(self, seed):
        """est(q AND extra) <= est(q): adding a conjunct never widens."""
        rng = random.Random(seed)
        index = self._index(rng)
        query = random_query(rng)
        extra = random_query(rng)
        narrowed = Query(AND, children=(query, extra))
        est = estimate_cardinality(narrowed, index)
        assert est <= estimate_cardinality(query, index) + 1e-9
        assert est <= estimate_cardinality(extra, index) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_monotone_under_disjunct_widening(self, seed):
        """est(q OR extra) >= est(q): adding a disjunct never narrows."""
        rng = random.Random(seed)
        index = self._index(rng)
        query = random_query(rng)
        extra = random_query(rng)
        widened = Query(OR, children=(query, extra))
        est = estimate_cardinality(widened, index)
        assert est >= estimate_cardinality(query, index) - 1e-9
        assert est >= estimate_cardinality(extra, index) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_conjunction_bounded_by_rarest_leaf(self, seed):
        """An AND of leaves never estimates above its rarest leaf — the
        planner's ``rarest_leaf`` feature is a true upper bound there."""
        rng = random.Random(seed)
        index = self._index(rng)
        leaves = [random_query(rng) for _ in range(rng.randint(2, 4))]
        leaves = [q for q in leaves if q.kind == LEAF] or [Query.match_all()]
        conj = Query(AND, children=tuple(leaves))
        rarest = min(leaf_cardinality(leaf, index) for leaf in leaves)
        assert estimate_cardinality(conj, index) <= rarest + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_estimate_never_below_true_rarest_or_floor(self, seed):
        """An OR of leaves never estimates below its largest leaf (and so
        never below the rarest one either)."""
        rng = random.Random(seed)
        index = self._index(rng)
        leaves = [random_query(rng) for _ in range(rng.randint(2, 4))]
        leaves = [q for q in leaves if q.kind == LEAF] or [Query.match_all()]
        disj = Query(OR, children=tuple(leaves))
        largest = max(
            min(leaf_cardinality(leaf, index), len(index)) for leaf in leaves
        )
        assert estimate_cardinality(disj, index) >= largest - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_empty_index_estimates_zero(self, seed):
        rng = random.Random(seed)
        relation = random_relation(rng, max_rows=8)
        for rid, _ in list(relation.iter_live()):
            relation.delete(rid)
        index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
        query = random_query(rng)
        assert estimate_cardinality(query, index) == 0.0
        assert estimate_selectivity(query, index) == 0.0
