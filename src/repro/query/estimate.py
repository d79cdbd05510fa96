"""Selectivity estimation from index statistics.

The inverted index knows exact posting-list lengths, which give exact
selectivities for leaf predicates and the usual independence-assumption
estimates for AND/OR trees.  The estimator drives the physical optimisation
in :mod:`repro.index.merged`: leapfrog intersection converges fastest when
the *rarest* list leads, so AND children are ordered by ascending estimated
cardinality before compilation.
"""

from __future__ import annotations

from ..index.inverted import InvertedIndex
from .predicates import KeywordPredicate, ScalarPredicate
from .query import AND, LEAF, OR, Query


def leaf_cardinality(query: Query, index: InvertedIndex) -> int:
    """Exact match count of a leaf predicate (posting-list lengths)."""
    predicate = query.predicate
    if isinstance(predicate, ScalarPredicate):
        return len(index.scalar_postings(predicate.attribute, predicate.value))
    if isinstance(predicate, KeywordPredicate):
        # Conjunction of tokens: bounded by the rarest token's list.
        lengths = [
            len(index.token_postings(predicate.attribute, token))
            for token in predicate.terms
        ]
        return min(lengths) if lengths else 0
    return len(index)  # match-all


def estimate_cardinality(query: Query, index: InvertedIndex) -> float:
    """Estimated match count under attribute independence.

    Exact for leaves; AND multiplies selectivities, OR uses inclusion-
    exclusion on the independence assumption.  Clamped to [0, |R|].
    """
    total = len(index)
    return total * estimate_selectivity(query, index, total)


def estimate_selectivity(query: Query, index: InvertedIndex, total=None) -> float:
    """Estimated match fraction.  ``total``: ``len(index)`` if the caller
    has it (a sum over shards when sharded: once per plan, not per node)."""
    if total is None:
        total = len(index)
    if total == 0:
        return 0.0
    if query.kind == LEAF:
        return min(1.0, leaf_cardinality(query, index) / total)
    if query.kind == AND:
        selectivity = 1.0
        for child in query.children:
            selectivity *= estimate_selectivity(child, index, total)
        return selectivity
    if query.kind == OR:
        miss = 1.0
        for child in query.children:
            miss *= 1.0 - estimate_selectivity(child, index, total)
        return 1.0 - miss
    raise ValueError(f"unknown query node kind {query.kind!r}")


def order_for_leapfrog(query: Query, index: InvertedIndex, total=None) -> Query:
    """Physical rewrite: order AND children rarest-first, recursively.

    Boolean/scoring semantics are untouched (AND is commutative and scores
    sum over leaves); only the intersection driver changes, which lets the
    leapfrog skip through the big lists guided by the small ones.
    """
    if query.kind == LEAF:
        return query
    if total is None:
        total = len(index)
    children = [order_for_leapfrog(child, index, total) for child in query.children]
    if query.kind == AND:
        children.sort(key=lambda c: total * estimate_selectivity(c, index, total))
        return Query.conjunction(*children)
    return Query.disjunction(*children)
