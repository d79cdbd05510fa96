"""Tests for the probing algorithms (Section IV): ProbeNode internals, the
bidirectional walkthrough of Section IV-A, Theorem 2, and oracle
equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dewey import LEFT, MAX_COMPONENT, MIDDLE, RIGHT
from repro.core.ordering import DiversityOrdering
from repro.core.probe_node import ProbeNode
from repro.core.probing import probe_scored, probe_unscored
from repro.core.similarity import is_diverse, is_scored_diverse
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.query.evaluate import res, scored_res
from repro.query.parser import parse_query

from .conftest import RANDOM_ORDERING, random_query, random_relation


class TestProbeNodeInit:
    """A new node is a stub; ``grow()`` gives it the frontier the paper's
    initializer prescribes for its level, and one child stub."""

    def test_new_node_is_a_stub_with_the_right_counts(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        assert root.landed == (0, 0, 0) and root.direction == LEFT
        assert (root.count, root.tentative_count, root.done) == (1, 0, False)
        assert root.items() == [(0, 0, 0)]
        assert root.contains((0, 0, 0)) and not root.contains((0, 0, 1))
        assert not hasattr(root, "children")

    def test_left_created_root_edges(self):
        """Per Section IV-A: a LEFT-created root excludes the discovered
        branch on the left and keeps the region maximum on the right."""
        root = ProbeNode((0, 0, 0, 0, 0), 0, LEFT).grow()
        assert root.edge_left == (1, 0, 0, 0, 0)
        assert root.edge_right == (MAX_COMPONENT,) * 5
        assert root.next_dir == RIGHT

    def test_spine_grows_one_level_at_a_time(self):
        root = ProbeNode((0, 0, 0), 0, LEFT).grow()
        assert root.landed is None
        child = root.children[0]
        assert child.landed == (0, 0, 0) and child.prefix == (0,)
        child.grow()
        assert child.edge_left == (0, 1, 0)
        assert child.edge_right == (0, MAX_COMPONENT, MAX_COMPONENT)
        grandchild = child.children[0]
        assert grandchild.level == 2
        assert grandchild.landed == (0, 0, 0)

    def test_first_touch_grows(self):
        """get_probe_id, add and close_frontier each grow the node they
        reach — and nothing below it."""
        for touch in (
            lambda node: node.get_probe_id(),
            lambda node: node.add((1, 0, 0), RIGHT),
            lambda node: node.close_frontier(),
        ):
            root = ProbeNode((0, 0, 0), 0, LEFT)
            touch(root)
            assert root.landed is None
            assert root.children[0].landed == (0, 0, 0)

    def test_leaf_never_grows(self):
        leaf = ProbeNode((0, 0, 0), 3, LEFT)
        assert leaf.done and leaf.grow() is leaf
        assert leaf.landed == (0, 0, 0)
        assert leaf.get_probe_id() is None

    def test_right_created_edges(self):
        node = ProbeNode((1, 3, 0), 0, RIGHT).grow()
        assert node.edge_right == (0, MAX_COMPONENT, MAX_COMPONENT)
        assert node.edge_left == (0, 0, 0)
        assert node.next_dir == LEFT

    def test_right_created_at_zero_closes_left_side(self):
        node = ProbeNode((0, 5, 0), 0, RIGHT).grow()
        # Nothing can be left of branch 0: frontier is already closed.
        assert not node.frontier_open()

    def test_middle_created_keeps_full_region(self):
        node = ProbeNode((2, 1, 0), 0, MIDDLE).grow()
        assert node.edge_left == (0, 0, 0)
        assert node.edge_right == (MAX_COMPONENT,) * 3
        assert node.frontier_open()

    def test_counts(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        assert root.count == 1
        root.add((2, 0, 0), RIGHT)
        assert root.count == 2
        assert root.items() == [(0, 0, 0), (2, 0, 0)]

    def test_duplicate_from_the_other_side_closes_every_level(self):
        """The lone match of a query answers the first LEFT and the first
        RIGHT probe: each level of its spine crosses its own edges."""
        root = ProbeNode((1, 2, 0), 0, LEFT)
        assert root.add((1, 2, 0), RIGHT) is False
        node = root
        while node.level < node.depth:
            assert node.landed is None and not node.frontier_open()
            node = node.children[(1, 2, 0)[node.level]]
        assert root.get_probe_id() is None and root.done

    def test_middle_stub_takes_the_direction_of_a_duplicate(self):
        """A WAND member re-found by a frontier probe: the spine created
        MIDDLE and then advanced is the spine created with that direction."""
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((2, 1, 0), MIDDLE)
        stub = root.children[2]
        assert root.add((2, 1, 0), RIGHT) is False
        assert stub.landed == (2, 1, 0) and stub.direction == RIGHT


class TestProbeNodeAddAndProbe:
    def test_first_probe_is_rightmost(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        probe_id, direction, owner = root.get_probe_id()
        assert probe_id == (MAX_COMPONENT,) * 3
        assert direction == RIGHT
        assert owner is root

    def test_probe_alternates_direction(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((5, 0, 0), RIGHT)
        probe_id, direction, _ = root.get_probe_id()
        assert direction == LEFT
        assert probe_id == (1, 0, 0)

    def test_add_updates_edges_only_in_phase_one(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.close_frontier()
        root.add((5, 0, 0), RIGHT)
        assert not root.frontier_open()

    def test_add_duplicate_returns_false(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        assert root.add((0, 0, 0), LEFT) is False
        assert root.count == 1

    def test_min_child_phase(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((0, 1, 0), LEFT)      # second item under branch 0
        root.add((4, 2, 0), RIGHT)     # one item under branch 4 (gap below)
        root.close_frontier()
        # Branch 4 (1 item) has fewer than branch 0 (2): probes go there.
        request = root.get_probe_id()
        assert request is not None
        probe_id, _, owner = request
        assert probe_id[0] == 4
        assert owner.prefix == (4,)

    def test_right_discovered_zero_branch_is_exhausted(self):
        """A RIGHT-discovered branch at component 0 has no unexplored gap:
        the probe that found it proved nothing lies beyond (Section IV-A's
        bidirectional-exploration advantage)."""
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((0, 1, 0), LEFT)
        root.add((4, 0, 0), RIGHT)
        root.close_frontier()
        request = root.get_probe_id()
        assert request is not None
        probe_id, _, _ = request
        # Branch 4 is exhausted despite having fewest items; probing falls
        # back to branch 0's remaining gap.
        assert probe_id[0] == 0

    def test_tentative_not_counted_until_confirmed(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((0, 1, 0), LEFT, tentative=True)
        assert root.count == 1
        assert root.tentative_items() == [(0, 1, 0)]
        assert root.confirm((0, 1, 0))
        assert root.count == 2
        assert not root.confirm((0, 1, 0))  # already confirmed

    def test_confirm_unknown_is_false(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        assert not root.confirm((9, 9, 9))

    def test_contains(self):
        root = ProbeNode((0, 0, 0), 0, LEFT)
        root.add((2, 1, 0), RIGHT)
        assert root.contains((2, 1, 0))
        assert not root.contains((2, 0, 0))

    def test_exhaustion_marks_done(self):
        root = ProbeNode((0, 0), 0, LEFT)
        root.close_frontier()
        for child in root.children.values():
            child.close_frontier()
        # Repeated probing drains every frontier, then returns None forever.
        while True:
            request = root.get_probe_id()
            if request is None:
                break
            _, _, owner = request
            owner.close_frontier()
        assert root.get_probe_id() is None


class TestUnscoredProbingOnFigure1:
    def test_section_iv_narrative(self, cars, cars_index):
        """Query 'Low', k=3: first Honda Civic, then a Toyota from the right,
        then another distinct Toyota — one Honda and two Toyotas, diverse."""
        query = parse_query("Description CONTAINS 'Low'")
        merged = MergedList(query, cars_index)
        got = probe_unscored(merged, 3)
        full = [cars_index.dewey.dewey_of(r) for r in res(cars, query)]
        assert is_diverse(got, full, 3)
        assert len(got) == 3
        assert {d[0] for d in got} == {0, 1}

    def test_theorem2_bound(self, cars, cars_index):
        """At most 2k calls to next (Theorem 2)."""
        for text in ["", "Make = 'Honda'", "Year = 2007",
                     "Description CONTAINS 'miles'"]:
            for k in (1, 2, 3, 5, 8, 15):
                merged = MergedList(parse_query(text), cars_index)
                probe_unscored(merged, k)
                assert merged.next_calls <= 2 * k

    def test_no_matches(self, cars_index):
        merged = MergedList(parse_query("Make = 'Tesla'"), cars_index)
        assert probe_unscored(merged, 3) == []

    def test_k_zero(self, cars_index):
        merged = MergedList(parse_query(""), cars_index)
        assert probe_unscored(merged, 0) == []

    def test_fewer_matches_than_k(self, cars, cars_index):
        query = parse_query("Make = 'Toyota'")
        merged = MergedList(query, cars_index)
        got = probe_unscored(merged, 10)
        assert len(got) == 4


class TestScoredProbingOnFigure1:
    def test_forced_items_present(self, cars, cars_index):
        query = parse_query("Make = 'Toyota' [5] OR Description CONTAINS 'miles'")
        merged = MergedList(query, cars_index)
        got = probe_scored(merged, 6)
        sres = {
            cars_index.dewey.dewey_of(rid): score
            for rid, score in scored_res(cars, query)
        }
        assert is_scored_diverse(list(got), sres, 6)
        # All four Toyotas (score 6) are forced in.
        toyota_count = sum(1 for d in got if d[0] == 1)
        assert toyota_count == 4

    def test_uniform_scores_behave_like_unscored(self, cars, cars_index):
        query = parse_query("Year = 2007")
        merged = MergedList(query, cars_index)
        got = probe_scored(merged, 5)
        full = [cars_index.dewey.dewey_of(r) for r in res(cars, query)]
        assert is_diverse(list(got), full, 5)

    def test_k_zero_and_empty(self, cars_index):
        merged = MergedList(parse_query("Make = 'Tesla'"), cars_index)
        assert probe_scored(merged, 3) == {}
        merged = MergedList(parse_query(""), cars_index)
        assert probe_scored(merged, 0) == {}


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=1, max_value=10),
)
def test_unscored_probe_oracle_equivalence(seed, k):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=45)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = random_query(rng)
    merged = MergedList(query, index)
    got = probe_unscored(merged, k)
    full = [index.dewey.dewey_of(rid) for rid in res(relation, query)]
    assert is_diverse(got, full, k)
    assert merged.next_calls <= 2 * k + 1


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000_000),
    st.integers(min_value=1, max_value=10),
)
def test_scored_probe_oracle_equivalence(seed, k):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=45)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = random_query(rng, weighted=True)
    merged = MergedList(query, index)
    got = probe_scored(merged, k)
    sres = {
        index.dewey.dewey_of(rid): score
        for rid, score in scored_res(relation, query)
    }
    assert is_scored_diverse(list(got), sres, k)
    for dewey, score in got.items():
        assert score == pytest.approx(sres[dewey])
