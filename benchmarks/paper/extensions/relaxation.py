"""Query relaxation (Section I: "they can also support query relaxation").

When a conjunctive query has fewer than k answers, online-shopping engines
prefer to *relax* the query rather than show an empty page.  The natural
relaxation in this framework reuses the scored machinery: turn the
conjunction's leaves into a weighted disjunction, so a tuple's score is the
number (or weighted sum) of predicates it satisfies, and run a *scored*
diversity algorithm — tuples satisfying more predicates always win, and
diversity kicks in among equally-relaxed tuples.  Exact matches, when they
exist, still surface first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.engine import DiversityEngine
from repro.core.result import DiverseResult
from repro.query.query import AND, LEAF, OR, Query


def relax_query(query: Query) -> Query:
    """The disjunctive relaxation of a query.

    Every conjunction in the tree becomes a disjunction; leaf predicates and
    weights are preserved.  For the common flat-AND case this is exactly
    "score = number of satisfied predicates".
    """
    if query.kind == LEAF:
        return query
    relaxed_children = tuple(relax_query(child) for child in query.children)
    if query.kind in (AND, OR):
        return Query.disjunction(*relaxed_children)
    raise ValueError(f"unknown query node kind {query.kind!r}")


@dataclass(frozen=True)
class RelaxedResult:
    """Outcome of a relaxed search."""

    result: DiverseResult
    relaxed: bool
    strict_matches: int


def relaxed_search(
    engine: DiversityEngine,
    query: Union[Query, str],
    k: int,
    algorithm: str = "probe",
) -> RelaxedResult:
    """Diverse top-k with automatic relaxation.

    Runs the strict query first; if it already yields k answers, returns
    them (unscored semantics).  Otherwise re-runs the *relaxed* query in
    scored mode: full matches score highest, near-misses fill the remaining
    slots diversity-preservingly.
    """
    if isinstance(query, str):
        from repro.query.parser import parse_query

        query = parse_query(query)
    strict = engine.search(query, k, algorithm=algorithm, scored=False)
    if len(strict) >= k:
        return RelaxedResult(result=strict, relaxed=False, strict_matches=len(strict))
    relaxed = engine.search(
        relax_query(query), k, algorithm=algorithm, scored=True
    )
    return RelaxedResult(
        result=relaxed, relaxed=True, strict_matches=len(strict)
    )
