"""Scoring models: assigning leaf weights from corpus statistics.

The paper's data model says scores arise naturally "in the presence of
keyword search queries, e.g., using scoring techniques such as TF-IDF"
(Section II-A).  This module turns a plain query into a weighted one.  It
lives beside its test, not in the package: served leaf weights come from
the query alone, which is what lets the serving cache keep an answer
across every write whose row the query does not match.

* :func:`idf_weights` — each keyword leaf is weighted by its (smoothed)
  inverse document frequency in the indexed relation: rare terms dominate,
  exactly as in classical ranked retrieval.  Scalar leaves keep their
  weights (form fields are hard preferences, not ranking signals) unless
  ``include_scalars`` is set, in which case rare values also score higher.
* :func:`scale_weights` — multiply every leaf weight (tuning knob for the
  score/diversity balance: the paper notes "we can also achieve greater
  diversity by choosing a coarse scoring function").
* :func:`coarsen_weights` — round weights to a fixed number of buckets, the
  coarse-scoring trick made concrete: fewer distinct scores mean bigger tie
  tiers, hence more room for diversity.
"""

from __future__ import annotations

import math

from repro.index.inverted import InvertedIndex
from repro.query.predicates import KeywordPredicate, ScalarPredicate
from repro.query.query import LEAF, Query


def idf(term_documents: int, total_documents: int) -> float:
    """Smoothed inverse document frequency (BM25-style, always > 0)."""
    if total_documents <= 0:
        return 0.0
    return math.log(
        1.0 + (total_documents - term_documents + 0.5) / (term_documents + 0.5)
    )


def idf_weights(
    query: Query,
    index: InvertedIndex,
    include_scalars: bool = False,
) -> Query:
    """A copy of ``query`` with keyword leaves weighted by IDF.

    Multi-token keyword predicates use the *sum* of their tokens' IDFs
    (matching a tuple means matching every token).
    """
    total = len(index)

    def rewrite(node: Query) -> Query:
        if node.kind != LEAF:
            children = tuple(rewrite(child) for child in node.children)
            return Query(node.kind, children=children)
        predicate = node.predicate
        if isinstance(predicate, KeywordPredicate):
            weight = sum(
                idf(len(index.token_postings(predicate.attribute, token)), total)
                for token in predicate.terms
            )
            return Query(LEAF, predicate, weight=weight)
        if include_scalars and isinstance(predicate, ScalarPredicate):
            matches = len(
                index.scalar_postings(predicate.attribute, predicate.value)
            )
            return Query(LEAF, predicate, weight=idf(matches, total))
        return node

    return rewrite(query)


def scale_weights(query: Query, factor: float) -> Query:
    """Multiply every leaf weight by ``factor`` (must be non-negative)."""
    if factor < 0:
        raise ValueError("factor must be non-negative")
    if query.kind == LEAF:
        return Query(LEAF, query.predicate, weight=query.weight * factor)
    return Query(
        query.kind,
        children=tuple(scale_weights(child, factor) for child in query.children),
    )


def coarsen_weights(query: Query, buckets: int, maximum: float | None = None) -> Query:
    """Quantise leaf weights into ``buckets`` equal-width levels.

    Coarser scores -> larger tied tiers -> more diversity (Section II-B's
    "we can also achieve greater diversity by choosing a coarse scoring
    function").  ``maximum`` defaults to the query's largest leaf weight.
    """
    if buckets < 1:
        raise ValueError("need at least one bucket")
    leaves = list(query.leaves())
    top = maximum if maximum is not None else max(
        (leaf.weight for leaf in leaves), default=0.0
    )
    if top <= 0:
        return query

    def quantise(weight: float) -> float:
        level = min(buckets, max(1, math.ceil(buckets * weight / top)))
        return level * top / buckets

    def rewrite(node: Query) -> Query:
        if node.kind == LEAF:
            return Query(LEAF, node.predicate, weight=quantise(node.weight))
        return Query(
            node.kind, children=tuple(rewrite(child) for child in node.children)
        )

    return rewrite(query)
