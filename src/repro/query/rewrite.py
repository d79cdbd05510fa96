"""Logical query rewriting (normalisation).

A small, classical rewrite pass applied before compilation:

* flatten nested ANDs/ORs (the constructors already do this; rewriting keeps
  it true for programmatically assembled trees),
* merge duplicate sibling *leaves* by summing their weights
  (``a[2] OR a[3]`` with the same predicate becomes ``a[5]``) — every
  tuple's score is preserved exactly, since scores sum over satisfied
  leaves,
* drop match-all leaves from conjunctions (``TRUE AND p`` -> ``p``): every
  conjunction match satisfied the TRUE leaf, so scores shift *uniformly* by
  its weight, which preserves score order, ties, and therefore the scored
  diversity semantics,
* singleton collapse (an AND/OR of one child is that child).

Disjunctions containing match-all are left alone: they are boolean
tautologies but their members score differently, so collapsing would lose
information.

The property tests check boolean equivalence (and score equivalence up to
the documented uniform shift) against full-scan evaluation.
"""

from __future__ import annotations

from typing import Dict, List

from .predicates import KeywordPredicate, Predicate, ScalarPredicate
from .query import AND, LEAF, OR, Query, _MatchAllPredicate


def normalise(query: Query) -> Query:
    """Apply all semantics-preserving rewrites bottom-up."""
    if query.kind == LEAF:
        return query
    children = [normalise(child) for child in query.children]
    flattened: List[Query] = []
    for child in children:
        if child.kind == query.kind:
            flattened.extend(child.children)
        else:
            flattened.append(child)
    if query.kind == AND:
        real = [child for child in flattened if not is_match_all_leaf(child)]
        if real:
            flattened = real
        else:
            return Query.match_all()
    merged: List[Query] = []
    leaf_slots: Dict[Predicate, int] = {}
    for child in flattened:
        if child.kind == LEAF and not is_match_all_leaf(child):
            key = child.predicate
            slot = leaf_slots.get(key)
            if slot is not None:
                existing = merged[slot]
                merged[slot] = Query(
                    LEAF,
                    existing.predicate,
                    weight=existing.weight + child.weight,
                )
                continue
            leaf_slots[key] = len(merged)
        merged.append(child)
    if len(merged) == 1:
        return merged[0]
    if query.kind == AND:
        return Query.conjunction(*merged)
    return Query.disjunction(*merged)


def is_match_all_leaf(query: Query) -> bool:
    """True for the TRUE (match-everything) leaf."""
    return query.kind == LEAF and isinstance(query.predicate, _MatchAllPredicate)


def to_query_string(query: Query) -> str:
    """Render a query in the text syntax accepted by
    :func:`repro.query.parser.parse_query` (round-trippable).

    Unlike :meth:`Query.describe` (which is for humans), this emits parser
    weights (``[2]``) and quotes every literal.
    """
    if query.kind == LEAF:
        return _leaf_to_string(query)
    joiner = " AND " if query.kind == AND else " OR "
    parts = []
    for child in query.children:
        text = to_query_string(child)
        if child.kind != LEAF:
            text = f"({text})"
        parts.append(text)
    return joiner.join(parts)


def _leaf_to_string(query: Query) -> str:
    predicate = query.predicate
    weight = "" if query.weight == 1.0 else f" [{query.weight:g}]"
    if isinstance(predicate, ScalarPredicate):
        return f"{predicate.attribute} = {_literal(predicate.value)}{weight}"
    if isinstance(predicate, KeywordPredicate):
        return (
            f"{predicate.attribute} CONTAINS "
            f"{_literal(predicate.keywords)}{weight}"
        )
    return "*"


def _literal(value) -> str:
    if isinstance(value, bool):
        return f"'{value}'"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"
