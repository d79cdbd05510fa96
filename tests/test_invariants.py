"""Deep invariant tests: the paper's stated invariants, checked *during*
algorithm execution (not just on the outputs)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dewey import LEFT, MIDDLE, RIGHT, in_region, zeros
from repro.core.onepass import OnePassTree, one_pass_unscored
from repro.core.ordering import DiversityOrdering
from repro.core.probe_node import ProbeNode
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList

from .conftest import RANDOM_ORDERING, grown_copy, random_query, random_relation


def check_probe_tree(node: ProbeNode, members: set, tentatives: set) -> None:
    """Recursively verify the bookkeeping of a fully grown probing structure
    (``grown_copy``: the logical tree, whatever the live one has grown):

    * ``count`` equals the number of confirmed leaves below,
    * ``tentative_count`` likewise for tentative leaves,
    * every leaf lies inside its ancestors' regions.
    """
    if node.level == node.depth:
        assert node.count + node.tentative_count == 1
        if node.tentative_count:
            tentatives.add(node.prefix)
        else:
            members.add(node.prefix)
        return
    child_members: set = set()
    child_tentatives: set = set()
    for component, child in node.children.items():
        assert child.prefix == node.prefix + (component,)
        check_probe_tree(child, child_members, child_tentatives)
    for leaf in child_members | child_tentatives:
        assert in_region(leaf, node.prefix)
    assert node.count == len(child_members)
    assert node.tentative_count == len(child_tentatives)
    members |= child_members
    tentatives |= child_tentatives


def check_paper_invariant(node: ProbeNode, all_ids) -> None:
    """Section IV-A: "Whenever id ∈ node, either id belongs to some child of
    node in our data structure, or node.edge[LEFT] <= id <= node.edge[RIGHT]"
    — checked for every match of the query against every node of the fully
    grown structure."""
    if node.level == node.depth:
        return
    for dewey in all_ids:
        if not in_region(dewey, node.prefix):
            continue
        child = node.children.get(dewey[node.level])
        inside_child = child is not None and in_region(dewey, child.prefix)
        in_gap = (
            node.edge_left is not None
            and node.edge_right is not None
            and node.edge_left <= dewey <= node.edge_right
        )
        assert inside_child or in_gap, (
            f"{dewey} lost by node {node.prefix}: not in any child and "
            f"outside [{node.edge_left}, {node.edge_right}]"
        )
    for child in node.children.values():
        check_paper_invariant(child, all_ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 8))
def test_probe_structure_invariants_throughout_execution(seed, k):
    """Run the unscored probing driver step by step, checking the structure
    and the paper's containment invariant after every add."""
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=35)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    query = random_query(rng)
    merged = MergedList(query, index)
    from repro.core.baselines import collect_all

    all_ids = collect_all(MergedList(query, index))
    first = merged.next(zeros(merged.depth), LEFT)
    if first is None:
        return
    root = ProbeNode(first, 0, LEFT)
    steps = 0
    while root.count < k and steps < 4 * k + 20:
        steps += 1
        request = root.get_probe_id()
        if request is None:
            break
        probe_id, direction, owner = request
        found = merged.next(probe_id, direction)
        if found is None or not in_region(found, owner.prefix):
            owner.close_frontier()
            continue
        root.add(found, direction)
        tree = grown_copy(root)
        members: set = set()
        tentatives: set = set()
        check_probe_tree(tree, members, tentatives)
        assert members <= set(all_ids)
        assert sorted(members) == root.items()
        check_paper_invariant(tree, all_ids)
    assert root.count == min(k, len(all_ids))


def check_onepass_tree(tree: OnePassTree) -> None:
    """Walk OnePassTree's nodes and verify the bookkeeping on each:

    * ``count`` equals the number of kept leaves below; no reachable node
      has a count of zero,
    * a tree with tiers: every node's ``tier`` is the Counter of the scores
      below it, and the unit tiers stubs share are still ``{score: 1}``, one
      per kept score,
    * a tree without tiers: no node has one, and every kept score is equal,
    * a stub's ``item`` extends the prefix of the place it hangs from,
    * the leaves are exactly the ids ``_scores`` holds.
    """
    kept = tree.scored_results()
    root = tree._root
    tiered = root.tier is not None

    def walk(node, prefix):
        """The kept ids below ``node``, which hangs at ``prefix``."""
        if node.children is None:
            assert node.item[: len(prefix)] == prefix
            if tiered:
                assert node.tier is tree._unit_tiers[kept[node.item]]
            below = [node.item]
        else:
            assert node.item is None
            assert len(prefix) < tree.depth
            below = [
                leaf
                for component, child in node.children.items()
                for leaf in walk(child, prefix + (component,))
            ]
        assert node.count == len(below) > 0
        if tiered:
            assert node.tier == Counter(kept[leaf] for leaf in below)
        else:
            assert node.tier is None
        return below

    assert root.children is not None and root.count == len(kept)
    leaves = [
        leaf
        for component, child in root.children.items()
        for leaf in walk(child, (component,))
    ]
    assert sorted(leaves) == tree.results() == sorted(kept)
    if tiered:
        assert root.tier == Counter(kept.values())
        assert tree._unit_tiers == {score: {score: 1} for score in root.tier}
    else:
        assert len(set(kept.values())) <= 1
        assert tree._unit_tiers == {}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_onepass_tree_bookkeeping(seed):
    """Random add/remove sequences keep every counter consistent."""
    rng = random.Random(seed)
    tree = OnePassTree(depth=4, k=6)
    live = 0
    for _ in range(rng.randint(1, 60)):
        if live and rng.random() < 0.4:
            victim = tree.remove()
            assert victim is not None
            live -= 1
        else:
            dewey = (
                rng.randint(0, 2), rng.randint(0, 2),
                rng.randint(0, 2), rng.randint(0, 4),
            )
            before = tree.num_items()
            tree.add(dewey, score=float(rng.randint(1, 3)))
            live += tree.num_items() - before
        check_onepass_tree(tree)
        assert tree.num_items() == live


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 8))
def test_onepass_remove_always_evicts_minimum_score(seed, k):
    rng = random.Random(seed)
    tree = OnePassTree(depth=3, k=k)
    for _ in range(rng.randint(1, 30)):
        tree.add(
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 9)),
            score=float(rng.randint(1, 3)),
        )
    while tree.num_items():
        scores = tree.scored_results()
        minimum = min(scores.values())
        victim = tree.remove()
        assert scores[victim] == minimum
