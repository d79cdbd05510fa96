"""Differential tests for the lazy probing structure.

``reference_probe_node.ProbeNode`` is the eager structure the repository
used before stubs (the paper's initializer taken literally).  Every test
here drives it and ``repro.core.probe_node.ProbeNode`` with the same inputs
and demands the same logical tree — and therefore the same probes, answers
and ``next`` counts.  A last test bounds how many nodes the lazy structure
may build per ``next`` call.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import probing
from repro.core.baselines import collect_all
from repro.core.dewey import LEFT, MIDDLE, RIGHT
from repro.core.ordering import DiversityOrdering
from repro.core.probe_node import ProbeNode
from repro.core.probing import probe_scored, probe_unscored
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList

from .conftest import RANDOM_ORDERING, logical_tree, random_query, random_relation
from .reference_probe_node import ProbeNode as EagerProbeNode
from .tracing import TracingMergedList


def run_recorded(node_class, driver, query, index, k):
    """Run a real driver over ``node_class``; returns the index accesses,
    the root's state before every step, and the answer."""
    steps = []

    class RecordingRoot(node_class):
        """Only the driver's root is one of these: both structures create
        their inner nodes from their own module's class."""

        __slots__ = ()

        def get_probe_id(self):
            steps.append((
                self.count, self.tentative_count,
                self.items(), self.tentative_items(), logical_tree(self),
            ))
            return super().get_probe_id()

    merged = TracingMergedList(MergedList(query, index))
    with mock.patch.object(probing, "ProbeNode", RecordingRoot):
        answer = driver(merged, k)
    return merged.events, steps, answer, merged.next_calls


def random_case(seed, weighted):
    rng = random.Random(seed)
    relation = random_relation(rng, max_rows=45)
    index = InvertedIndex.build(relation, DiversityOrdering(RANDOM_ORDERING))
    return random_query(rng, weighted=weighted), index


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 12))
def test_unscored_driver_cannot_tell_lazy_from_eager(seed, k):
    query, index = random_case(seed, weighted=False)
    eager = run_recorded(EagerProbeNode, probe_unscored, query, index, k)
    lazy = run_recorded(ProbeNode, probe_unscored, query, index, k)
    assert lazy == eager


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000), st.integers(1, 12))
def test_scored_driver_cannot_tell_lazy_from_eager(seed, k):
    """MIDDLE insertions, duplicates landing on WAND members, the tentative
    cache and its confirmations."""
    query, index = random_case(seed, weighted=True)
    eager = run_recorded(EagerProbeNode, probe_scored, query, index, k)
    lazy = run_recorded(ProbeNode, probe_scored, query, index, k)
    assert lazy == eager


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_random_operations_build_the_same_logical_tree(seed):
    """Beyond what the drivers do: arbitrary adds (any direction, tentative
    or not, duplicates from either side), confirmations and frontier
    closures, with every return value and the whole tree compared."""
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    fanout = rng.randint(1, 3)

    def random_id():
        return tuple(rng.randrange(fanout) for _ in range(depth))

    first, direction = random_id(), rng.choice((LEFT, RIGHT, MIDDLE))
    eager = EagerProbeNode(first, 0, direction)
    lazy = ProbeNode(first, 0, direction)
    for _ in range(rng.randint(1, 25)):
        action = rng.random()
        if action < 0.55:
            dewey, direction = random_id(), rng.choice((LEFT, RIGHT, MIDDLE))
            tentative = rng.random() < 0.3
            assert lazy.add(dewey, direction, tentative) == eager.add(
                dewey, direction, tentative
            )
        elif action < 0.7:
            dewey = random_id()
            assert lazy.contains(dewey) == eager.contains(dewey)
            assert lazy.confirm(dewey) == eager.confirm(dewey)
        else:
            mine, theirs = lazy.get_probe_id(), eager.get_probe_id()
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert mine[:2] == theirs[:2]
                assert mine[2].prefix == theirs[2].prefix
                if mine[1] != MIDDLE and rng.random() < 0.5:
                    mine[2].close_frontier()
                    theirs[2].close_frontier()
        assert lazy.items() == eager.items()
        assert lazy.tentative_items() == eager.tentative_items()
        assert logical_tree(lazy) == logical_tree(eager)


def count_constructions(node_class, query, index, k):
    """``(nodes built, next calls, answer)`` of one unscored probe run."""
    built = []
    init = node_class.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    merged = MergedList(query, index)
    with mock.patch.object(node_class, "__init__", counting_init), \
            mock.patch.object(probing, "ProbeNode", node_class):
        answer = probe_unscored(merged, k)
    return len(built), merged.next_calls, answer


#: Nodes per ``next`` call on a query the structure has to dig through
#: completely.  Measured, not derived (worst 2.67 over autos at 300, 3 000
#: and 30 000 rows, 0-3 predicates, k in 1..100); the derivable ceiling is
#: the eager structure's ``depth`` per landing.
DUG_NODES_PER_NEXT_CALL = 3


def test_autos_workload_builds_at_most_two_nodes_per_next_call():
    """One stub per landing and one growth per descent: where the result
    set has answers to spare (at least ``4k`` matches) a query builds at
    most ``2 * next_calls + depth + 1`` nodes — the ``depth + 1`` is the
    root plus one spine grown to its leaf by a duplicate arriving from the
    other side.

    That bound does not hold on every query.  Two steps build nodes without
    a ``next`` call of their own: a second id arriving in a branch grows
    every level it shares with the first, and a stub that landed from the
    RIGHT in branch 0 is born with its frontier closed, so water-filling
    falls straight through it.  A query with barely ``k`` matches has to dig
    through every branch that way and the lazy structure converges on the
    eager one.  Every query is therefore held to the eager count *and* to
    ``DUG_NODES_PER_NEXT_CALL`` nodes per ``next`` call."""
    relation = generate_autos(AutosSpec(rows=3000, seed=42))
    index = InvertedIndex.build(relation, autos_ordering())
    queries = [
        query
        for predicates in (0, 1, 2)
        for selectivity in (0.1, 0.5, 0.9)
        for query in WorkloadGenerator(
            relation,
            WorkloadSpec(queries=12, predicates=predicates,
                         selectivity=selectivity, seed=7),
        ).queries()
    ]
    roomy = lazy_total = eager_total = 0
    for query in queries:
        matches = len(collect_all(MergedList(query, index)))
        for k in (10, 25):
            built, next_calls, answer = count_constructions(
                ProbeNode, query, index, k)
            eager_built, eager_calls, eager_answer = count_constructions(
                EagerProbeNode, query, index, k)
            assert (next_calls, answer) == (eager_calls, eager_answer)
            assert built <= eager_built
            assert built <= (
                DUG_NODES_PER_NEXT_CALL * next_calls + index.depth + 1
            ), f"{built} nodes for {next_calls} next calls: {query.describe()} k={k}"
            lazy_total += built
            eager_total += eager_built
            if matches >= 4 * k:
                roomy += 1
                assert built <= 2 * next_calls + index.depth + 1, (
                    f"{built} nodes for {next_calls} next calls: "
                    f"{query.describe()} k={k}"
                )
    assert roomy > len(queries)          # most of the workload is bounded
    assert 3 * lazy_total < eager_total  # and the saving is not marginal
