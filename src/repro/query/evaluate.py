"""Reference (full-scan) query evaluation.

``res(relation, query)`` is the paper's ``RES(R, Q)``: the exact match set,
computed by scanning every row.  The index-based engines must agree with it;
the test oracles and the selectivity estimator are built on it.
"""

from __future__ import annotations

from ..storage.relation import Relation
from .query import Query


def res(relation: Relation, query: Query) -> list[int]:
    """All matching rids, in rid order (full scan; the correctness oracle)."""
    names = relation.schema.names
    matching = []
    for rid, row in relation.iter_live():
        mapping = dict(zip(names, row))
        if query.matches(mapping):
            matching.append(rid)
    return matching


def scored_res(relation: Relation, query: Query) -> list[tuple[int, float]]:
    """All ``(rid, score)`` matches, in rid order."""
    names = relation.schema.names
    matching = []
    for rid, row in relation.iter_live():
        mapping = dict(zip(names, row))
        if query.matches(mapping):
            matching.append((rid, query.score(mapping)))
    return matching


def selectivity(relation: Relation, query: Query) -> float:
    """|RES(R,Q)| / |R| — the quantity Figure 7 varies."""
    if relation.live_count == 0:
        return 0.0
    return len(res(relation, query)) / relation.live_count
