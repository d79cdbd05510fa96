"""Differential tests for the lazy one-pass structure.

``reference_onepass_tree.OnePassTree`` is the eager structure the repository
used before stubs: three dicts keyed by prefix tuple.  Every test here
drives it and ``repro.core.onepass.OnePassTree`` with the same inputs and
demands the same victims and skip ids at every step — and therefore the
same answers, ``next`` counts and index accesses.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import onepass
from repro.core.onepass import OnePassTree, one_pass_scored, one_pass_unscored
from repro.index.merged import MergedList

from .reference_onepass_tree import OnePassTree as EagerOnePassTree
from .test_invariants import check_onepass_tree
from .test_probe_lazy import random_case
from .tracing import TracingMergedList


def run_recorded(tree_class, driver, query, index, k):
    """Run a real driver over ``tree_class``; returns the index accesses,
    what every tree operation answered and left behind, and the answer."""
    steps = []
    merged = TracingMergedList(MergedList(query, index))

    def snapshot(tree, *event):
        assert merged.scan_restarts == 0
        steps.append((
            *event,
            tree.results(), tree.scored_results(),
            tree.min_score() if tree.num_items() else None,
            merged.next_calls, merged.scored_next_calls, merged.skip_jumps,
        ))

    class RecordingTree(tree_class):
        def add(self, dewey, score=0.0):
            super().add(dewey, score)
            snapshot(self, "add", dewey, score)

        def remove(self):
            victim = super().remove()
            snapshot(self, "remove", victim)
            return victim

        def get_skip_id(self, current):
            skip_id = super().get_skip_id(current)
            snapshot(self, "skip", current, skip_id)
            return skip_id

    with mock.patch.object(onepass, "OnePassTree", RecordingTree):
        answer = driver(merged, k)
    return merged.events, steps, answer


@given(st.integers(min_value=0, max_value=1_000_000), st.integers(0, 12))
@settings(deadline=None)
def test_unscored_driver_cannot_tell_lazy_from_eager(seed, k):
    query, index = random_case(seed, weighted=False)
    eager = run_recorded(EagerOnePassTree, one_pass_unscored, query, index, k)
    lazy = run_recorded(OnePassTree, one_pass_unscored, query, index, k)
    assert lazy == eager


@given(st.integers(min_value=0, max_value=1_000_000), st.integers(0, 12))
@settings(deadline=None)
def test_scored_driver_cannot_tell_lazy_from_eager(seed, k):
    """Several score tiers: evictions restricted to the minimum one, and
    the Section III-D skip that only binds tuples tied at it."""
    query, index = random_case(seed, weighted=True)
    eager = run_recorded(EagerOnePassTree, one_pass_scored, query, index, k)
    lazy = run_recorded(OnePassTree, one_pass_scored, query, index, k)
    assert lazy == eager


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(deadline=None)
def test_random_operations_pick_the_same_victims_and_skip_ids(seed):
    """Beyond what the drivers do, and what ``DiverseView`` does: adds out
    of document order, removals at any size, discards of kept and unkept
    ids, skip ids asked from anywhere, over one to three score tiers."""
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    fanout = rng.randint(1, 3)
    scores = [float(score) for score in range(1, rng.randint(1, 3) + 1)]

    def random_id():
        return tuple(rng.randrange(fanout) for _ in range(depth))

    eager = EagerOnePassTree(depth, 5)
    lazy = OnePassTree(depth, 5)
    for _ in range(rng.randint(1, 40)):
        action = rng.random()
        if action < 0.45:
            dewey, score = random_id(), rng.choice(scores)
            eager.add(dewey, score)
            lazy.add(dewey, score)
        elif action < 0.6:
            assert lazy.remove() == eager.remove()
        elif action < 0.75:
            dewey = random_id()
            kept = eager.scored_results()
            if dewey in kept:
                eager._delete(dewey, kept[dewey])
            assert lazy.discard(dewey) == (dewey in kept)
        else:
            current = random_id()
            assert lazy.get_skip_id(current) == eager.get_skip_id(current)
        assert lazy.scored_results() == eager.scored_results()
        if lazy.num_items():
            assert lazy.min_score() == eager.min_score()
        check_onepass_tree(lazy)


def test_equally_crowded_branches_lose_from_the_left():
    """The eviction tie-break is a rule, not an iteration order: the old
    structure iterated a ``set`` of components, and ``{8, 1}`` lists 8
    first in an 8-slot table, so it evicted ``(8, 0)`` here."""
    tree = OnePassTree(depth=2, k=4)
    for dewey in [(8, 0), (8, 1), (1, 0), (1, 1)]:
        tree.add(dewey)
    assert tree.remove() == (1, 0)
    assert tree.results() == [(1, 1), (8, 0), (8, 1)]


@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 12))
@settings(deadline=None)
def test_an_unscored_run_keeps_no_score_tiers(seed, k):
    """Every unscored leaf scores alike, so no node pays for a per-score
    counter, however many adds, evictions and stub growths the scan makes."""
    trees = []

    class KeptTree(OnePassTree):
        def __init__(self, depth, k):
            super().__init__(depth, k)
            trees.append(self)

    query, index = random_case(seed, weighted=False)
    with mock.patch.object(onepass, "OnePassTree", KeptTree):
        one_pass_unscored(MergedList(query, index), k)
    (tree,) = trees
    assert tree._root.tier is None  # and so, checked below, is every node's
    check_onepass_tree(tree)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(deadline=None)
def test_a_second_score_builds_tiers_mid_run(seed):
    """Equal scores for a while, then a second score: tiers are built at
    that add, from the kept leaves, and victims and skip ids still match
    the eager structure at every step before and after."""
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    fanout = rng.randint(1, 3)
    other = rng.choice([0.5, 2.0])  # below or above the first score
    switch = rng.randint(1, 25)

    def random_id():
        return tuple(rng.randrange(fanout) for _ in range(depth))

    eager = EagerOnePassTree(depth, 5)
    lazy = OnePassTree(depth, 5)
    for step in range(switch + rng.randint(1, 30)):
        action = rng.random()
        if step == switch:
            dewey = random_id()
            while dewey in lazy.scored_results():
                dewey = tuple(rng.randrange(fanout + 1) for _ in range(depth))
            was_empty = not lazy.num_items()
            assert lazy._root.tier is None
            eager.add(dewey, other)
            lazy.add(dewey, other)
            assert (lazy._root.tier is None) == was_empty
        elif action < 0.5:
            dewey = random_id()
            score = 1.0 if step < switch else rng.choice([1.0, other])
            eager.add(dewey, score)
            lazy.add(dewey, score)
        elif action < 0.65:
            assert lazy.remove() == eager.remove()
        elif action < 0.75:
            dewey = random_id()
            kept = eager.scored_results()
            if dewey in kept:
                eager._delete(dewey, kept[dewey])
            assert lazy.discard(dewey) == (dewey in kept)
        else:
            current = random_id()
            assert lazy.get_skip_id(current) == eager.get_skip_id(current)
        assert lazy.scored_results() == eager.scored_results()
        if lazy.num_items():
            assert lazy.min_score() == eager.min_score()
        check_onepass_tree(lazy)
