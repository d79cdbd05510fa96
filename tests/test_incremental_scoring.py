"""Tests for the live DiverseView and the scoring models."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiversityEngine, Query, is_diverse, is_scored_diverse
from paper.extensions.incremental import DiverseView
from repro.data.paper_example import FIGURE1_ROWS, figure1_ordering
from repro.data.autos import autos_schema
from repro.index.inverted import InvertedIndex
from repro.query.evaluate import res, scored_res
from repro.query.parser import parse_query
from repro.storage.relation import Relation

from .conftest import RANDOM_ORDERING, random_query, random_relation
from .scoring_models import coarsen_weights, idf, idf_weights, scale_weights
from .test_invariants import check_onepass_tree


def empty_engine():
    relation = Relation(autos_schema(), name="Cars")
    return DiversityEngine.from_relation(relation, figure1_ordering())


class TestDiverseView:
    def test_streaming_matches_definition(self):
        """Feed Figure 1 row by row; at every step the view is a diverse
        top-k of everything matching so far."""
        engine = empty_engine()
        view = DiverseView(engine, "Make = 'Honda'", k=3)
        matching: list = []
        for row in FIGURE1_ROWS:
            rid = view.offer_row(row)
            if rid is not None:
                matching.append(engine.index.dewey.dewey_of(rid))
            assert is_diverse(view.deweys(), matching, 3)
        assert len(view) == 3
        models = {item["Model"] for item in view.items()}
        assert len(models) == 3

    def test_non_matching_rows_ignored(self):
        engine = empty_engine()
        view = DiverseView(engine, "Make = 'Honda'", k=2)
        assert view.offer_row(("Toyota", "Prius", "Tan", 2007, "Low miles")) is None
        assert len(view) == 0
        assert view.offered == 0

    def test_scored_view(self):
        engine = empty_engine()
        text = "Make = 'Toyota' [2] OR Description CONTAINS 'miles' [1]"
        view = DiverseView(engine, text, k=3, scored=True)
        seen: dict = {}
        query = parse_query(text)
        for row in FIGURE1_ROWS:
            rid = view.offer_row(row)
            if rid is not None:
                dewey = engine.index.dewey.dewey_of(rid)
                seen[dewey] = query.score(engine.relation.row_dict(rid))
            assert is_scored_diverse(view.deweys(), seen, 3)
        assert sorted(view.scores().values()) == [3.0, 3.0, 3.0]

    def test_refresh_seeds_from_existing_data(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        view = DiverseView(engine, "Year = 2007", k=5)
        full = [
            engine.index.dewey.dewey_of(r)
            for r in res(cars, parse_query("Year = 2007"))
        ]
        assert is_diverse(view.deweys(), full, 5)
        assert view.offered == len(full)

    def test_offer_rid_after_manual_insert(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        view = DiverseView(engine, "Make = 'Tesla'", k=2)
        rid = engine.relation.insert(("Tesla", "ModelS", "Red", 2008, "fast"))
        engine.index.insert(rid)
        assert view.offer_rid(rid)
        assert len(view) == 1

    def test_invalid_k(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        with pytest.raises(ValueError):
            DiverseView(engine, "", k=0)

    def test_randomized_stream_always_diverse(self):
        rng = random.Random(8)
        engine = empty_engine()
        view = DiverseView(engine, "", k=6)
        matching = []
        makes = ["Honda", "Toyota", "Ford"]
        models = ["A", "B"]
        for i in range(120):
            row = (
                rng.choice(makes), rng.choice(models), "Black",
                2000 + rng.randint(0, 5), "low miles",
            )
            rid = view.offer_row(row)
            assert rid is not None
            matching.append(engine.index.dewey.dewey_of(rid))
            if i % 10 == 0:
                assert is_diverse(view.deweys(), matching, 6)
        assert is_diverse(view.deweys(), matching, 6)


@given(
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(1, 8),
    st.booleans(),
)
@settings(deadline=None)
def test_view_against_recompute_under_any_offer_order(seed, k, scored):
    """Rows are indexed first and offered in shuffled order, so the view's
    tree is fed out of document order.  Until the first retraction the view
    is a diverse (scored-diverse) top-k of everything offered; a retraction
    leaves exactly the previous kept set minus that id — the view cannot
    recall what it evicted, so no diversity is claimed over the survivors."""
    rng = random.Random(seed)
    source = random_relation(rng, max_rows=40)
    relation = Relation(source.schema)
    engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    query = random_query(rng, weighted=scored)
    view = DiverseView(engine, query, k, scored=scored)
    rids = relation.extend(source)
    for rid in rids:
        engine.index.insert(rid)
    rng.shuffle(rids)
    retract_from = rng.randint(0, len(rids))
    dewey_of = engine.index.dewey.dewey_of
    offered: dict = {}
    for position, rid in enumerate(rids):
        if position >= retract_from and rng.random() < 0.4:
            gone = rng.choice(rids)
            expected = view.scores()
            assert view.retract_rid(gone) == (dewey_of(gone) in expected)
            expected.pop(dewey_of(gone), None)
            assert view.scores() == expected
        if view.offer_rid(rid):
            mapping = relation.row_dict(rid)
            offered[dewey_of(rid)] = query.score(mapping) if scored else 0.0
        if position < retract_from:
            if scored:
                assert is_scored_diverse(view.deweys(), offered, k)
            else:
                assert is_diverse(view.deweys(), list(offered), k)
        assert len(view) <= k and set(view.deweys()) <= set(offered)
        check_onepass_tree(view._tree)


class TestScoringModels:
    @pytest.fixture
    def index(self, cars):
        return InvertedIndex.build(cars, figure1_ordering())

    def test_idf_monotone(self):
        assert idf(1, 100) > idf(50, 100) > idf(99, 100) > 0
        assert idf(5, 0) == 0.0

    def test_idf_weights_prefer_rare_terms(self, index):
        query = parse_query(
            "Description CONTAINS 'rare' OR Description CONTAINS 'miles'"
        )
        weighted = idf_weights(query, index)
        weights = {
            leaf.predicate.terms[0]: leaf.weight for leaf in weighted.leaves()
        }
        assert weights["rare"] > weights["miles"] > 0

    def test_idf_weights_multi_token_sum(self, index):
        single = idf_weights(parse_query("Description CONTAINS 'miles'"), index)
        double = idf_weights(parse_query("Description CONTAINS 'good miles'"), index)
        assert double.weight > single.weight

    def test_scalar_leaves_untouched_by_default(self, index):
        query = parse_query("Make = 'Honda' [7] OR Description CONTAINS 'rare'")
        weighted = idf_weights(query, index)
        scalar = [l for l in weighted.leaves() if l.predicate.attribute == "Make"]
        assert scalar[0].weight == 7.0

    def test_include_scalars(self, index):
        query = parse_query("Make = 'Honda' OR Make = 'Toyota'")
        weighted = idf_weights(query, index, include_scalars=True)
        weights = {l.predicate.value: l.weight for l in weighted.leaves()}
        assert weights["Toyota"] > weights["Honda"]  # Toyota is rarer

    def test_idf_weighted_search_end_to_end(self, cars, index):
        engine = DiversityEngine(index)
        query = idf_weights(
            parse_query(
                "Description CONTAINS 'rare' OR Description CONTAINS 'miles'"
            ),
            index,
        )
        result = engine.search(query, k=3, scored=True)
        sres = {
            index.dewey.dewey_of(r): s for r, s in scored_res(cars, query)
        }
        assert is_scored_diverse(result.deweys, sres, 3)
        # The single 'Rare' listing outranks common 'miles' listings.
        assert result[0]["Description"] == "Rare"

    def test_scale_weights(self):
        query = parse_query("a = 1 [2] OR b = 2 [4]")
        scaled = scale_weights(query, 0.5)
        assert [l.weight for l in scaled.leaves()] == [1.0, 2.0]
        with pytest.raises(ValueError):
            scale_weights(query, -1)

    def test_coarsen_weights_buckets(self):
        query = parse_query("a = 1 [1] OR b = 2 [5.2] OR c = 3 [9.9]")
        coarse = coarsen_weights(query, buckets=2)
        weights = sorted({l.weight for l in coarse.leaves()})
        assert len(weights) == 2  # two distinct levels remain

    def test_coarsen_increases_tie_tiers(self):
        query = parse_query("a = 1 [1] OR b = 2 [2] OR c = 3 [3] OR d = 4 [4]")
        coarse = coarsen_weights(query, buckets=1)
        assert len({l.weight for l in coarse.leaves()}) == 1

    def test_coarsen_validation(self):
        query = parse_query("a = 1")
        with pytest.raises(ValueError):
            coarsen_weights(query, buckets=0)

    def test_coarsen_zero_weights_passthrough(self):
        query = parse_query("a = 1 [0]")
        assert coarsen_weights(query, buckets=3) == query
