"""Shared fixtures: the paper's Figure 1 database and small random helpers."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

# The figure harness (``paper``) lives beside the served package, in
# benchmarks/; its tests import it from there.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from repro import DiversityEngine, Query, Relation, Schema
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.inverted import InvertedIndex
from repro.query.predicates import ScalarPredicate


@pytest.fixture
def cars() -> Relation:
    """The Cars relation of Figure 1(a)."""
    return figure1_relation()


@pytest.fixture
def cars_index(cars) -> InvertedIndex:
    return InvertedIndex.build(cars, figure1_ordering())


@pytest.fixture
def cars_engine(cars) -> DiversityEngine:
    return DiversityEngine.from_relation(cars, figure1_ordering())


MAKES = ["A", "B", "C", "D"]
MODELS = ["m1", "m2", "m3"]
COLORS = ["red", "blue", "green"]
WORDS = ["low", "miles", "price", "rare", "fun", "clean"]


def random_relation(rng: random.Random, max_rows: int = 50) -> Relation:
    """A small random car-like relation for oracle comparisons."""
    schema = Schema.of(
        make="categorical", model="categorical", color="categorical", desc="text"
    )
    rows = [
        (
            rng.choice(MAKES),
            rng.choice(MODELS),
            rng.choice(COLORS),
            " ".join(rng.sample(WORDS, rng.randint(1, 3))),
        )
        for _ in range(rng.randint(1, max_rows))
    ]
    return Relation.from_rows(schema, rows)


def random_query(rng: random.Random, weighted: bool = False) -> Query:
    """A random query in the paper's query model."""
    kind = rng.randint(0, 3)
    weight = (lambda: float(rng.randint(1, 3))) if weighted else (lambda: 1.0)
    if kind == 0:
        return Query.match_all()
    if kind == 1:
        return Query.scalar("make", rng.choice(MAKES), weight=weight())
    if kind == 2:
        return Query.conjunction(
            Query.scalar("make", rng.choice(MAKES), weight=weight()),
            Query.keyword("desc", rng.choice(WORDS), weight=weight()),
        )
    return Query.disjunction(
        Query.scalar("model", rng.choice(MODELS), weight=weight()),
        Query.keyword("desc", rng.choice(WORDS), weight=weight()),
        Query.scalar("color", rng.choice(COLORS), weight=weight()),
    )


RANDOM_ORDERING = ["make", "model", "color", "desc"]


class CountingLock:
    """Stands in for a component's ``_lock``; counts acquisitions."""

    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def home_shard(engine, query: Query):
    """The test-side oracle for shard pruning: the one shard a sharded
    engine reads for ``query`` — a leaf, or a top-level AND child, pinning
    the routing attribute — or ``None`` when it reads them all."""
    routing = engine.ordering.attributes[0]
    conjuncts = {"leaf": [query], "and": query.children}.get(query.kind, [])
    for conjunct in conjuncts:
        predicate = conjunct.predicate
        if isinstance(predicate, ScalarPredicate) and predicate.attribute == routing:
            return engine.sharded_index.router.shard_of(predicate.value)
    return None


def fanout_query(rng: random.Random, weighted: bool = False) -> Query:
    """A :func:`random_query` no shard pruning applies to: one that reads
    every shard, for tests that exercise the fan-out itself."""
    while True:
        query = random_query(rng, weighted)
        if query.kind == "or" or query.is_match_all():
            return query


def grown_copy(root):
    """A deep copy of a probing structure with every stub grown down to its
    leaf: the tree as the paper draws it.  ``ProbeNode.grow`` is the one way
    to force growth; copying first keeps the live tree exactly as lazy as
    the algorithm left it.  The eager oracle of ``reference_probe_node`` has
    nothing to grow and is only copied."""
    import copy

    def grow(node):
        if node.level < node.depth:
            if hasattr(node, "grow"):
                node.grow()
            for child in node.children.values():
                grow(child)

    root = copy.deepcopy(root)
    grow(root)
    return root


def logical_tree(root):
    """:func:`grown_copy` as nested tuples, for equality between the lazy
    structure and the eager oracle: inner nodes are ``(prefix, count,
    tentative_count, done, edge_left, edge_right, next_dir, {component:
    subtree})``, leaves ``(prefix, count, tentative_count)``."""

    def dump(node):
        if node.level == node.depth:
            return (node.prefix, node.count, node.tentative_count)
        return (
            node.prefix, node.count, node.tentative_count, node.done,
            node.edge_left, node.edge_right, node.next_dir,
            {c: dump(child) for c, child in sorted(node.children.items())},
        )

    return dump(grown_copy(root))
