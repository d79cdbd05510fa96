"""Query trees: conjunctions and disjunctions of predicates.

A :class:`Query` is a boolean tree whose leaves are
:class:`~repro.query.predicates.Predicate` objects.  The paper's queries are
flat ANDs or ORs; we allow arbitrary nesting (the evaluator, the cursor
compiler and the scorer all recurse), which strictly generalises the paper.

Scoring (Section II-A): each *leaf* may carry a weight; the score of a tuple
is the sum of the weights of the leaf predicates it satisfies — a monotone
combination, as required by threshold-style algorithms.  Conjunctive queries
therefore give every result the same score (scored diversity degenerates to
unscored, as the paper notes, and the engine runs the unscored drivers).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional, Sequence

from .predicates import KeywordPredicate, Predicate, ScalarPredicate

AND = "and"
OR = "or"
LEAF = "leaf"

#: Weight used for leaves whose weight was not specified.
DEFAULT_WEIGHT = 1.0


class Query:
    """An immutable boolean query tree."""

    __slots__ = ("kind", "predicate", "weight", "children")

    def __init__(
        self,
        kind: str,
        predicate: Optional[Predicate] = None,
        weight: float = DEFAULT_WEIGHT,
        children: Sequence["Query"] = (),
    ):
        if kind == LEAF:
            if predicate is None:
                raise ValueError("leaf query needs a predicate")
            if children:
                raise ValueError("leaf query cannot have children")
            if weight < 0:
                raise ValueError("leaf weight must be non-negative")
        elif kind in (AND, OR):
            if predicate is not None:
                raise ValueError(f"{kind} query cannot carry a predicate")
            if not children:
                raise ValueError(f"{kind} query needs at least one child")
        else:
            raise ValueError(f"unknown query node kind {kind!r}")
        self.kind = kind
        self.predicate = predicate
        self.weight = float(weight)
        self.children = tuple(children)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def scalar(cls, attribute: str, value: Any, weight: float = DEFAULT_WEIGHT) -> "Query":
        """``attribute = value`` leaf."""
        return cls(LEAF, ScalarPredicate(attribute, value), weight=weight)

    @classmethod
    def keyword(cls, attribute: str, keywords: str, weight: float = DEFAULT_WEIGHT) -> "Query":
        """``attribute CONTAINS keywords`` leaf."""
        return cls(LEAF, KeywordPredicate(attribute, keywords), weight=weight)

    @classmethod
    def conjunction(cls, *children: "Query") -> "Query":
        """AND of child queries (flattening nested ANDs)."""
        return cls(AND, children=_flatten(AND, children))

    @classmethod
    def disjunction(cls, *children: "Query") -> "Query":
        """OR of child queries (flattening nested ORs)."""
        return cls(OR, children=_flatten(OR, children))

    @classmethod
    def match_all(cls) -> "Query":
        """The predicate-free query (Fig. 4's default: no predicates)."""
        return cls(AND, children=(cls(LEAF, _MatchAllPredicate("*")),))

    def __and__(self, other: "Query") -> "Query":
        return Query.conjunction(self, other)

    def __or__(self, other: "Query") -> "Query":
        return Query.disjunction(self, other)

    # ------------------------------------------------------------------
    # Reference semantics
    # ------------------------------------------------------------------
    def matches(self, row: Mapping[str, Any]) -> bool:
        """Boolean match against a row mapping (reference implementation)."""
        if self.kind == LEAF:
            return self.predicate.matches(row)
        if self.kind == AND:
            return all(child.matches(row) for child in self.children)
        return any(child.matches(row) for child in self.children)

    def score(self, row: Mapping[str, Any]) -> float:
        """Sum of the weights of satisfied leaves (0.0 for a non-match...
        callers should check :meth:`matches` first for OR-query semantics)."""
        if self.kind == LEAF:
            return self.weight if self.predicate.matches(row) else 0.0
        return sum(child.score(row) for child in self.children)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leaves(self) -> Iterator["Query"]:
        """All leaf nodes, left to right."""
        if self.kind == LEAF:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def predicates(self) -> list[Predicate]:
        return [leaf.predicate for leaf in self.leaves()]

    def attributes(self) -> set[str]:
        """All attributes referenced anywhere in the tree."""
        return {leaf.predicate.attribute for leaf in self.leaves()}

    def is_match_all(self) -> bool:
        return any(
            isinstance(leaf.predicate, _MatchAllPredicate) for leaf in self.leaves()
        )

    def max_score(self) -> float:
        """Largest achievable score (every leaf satisfied)."""
        return sum(leaf.weight for leaf in self.leaves())

    def uniform_score(self) -> bool:
        """Does every match score :meth:`max_score`?  True for a leaf and
        for an AND of such plans, where Definition 2 is Definition 1."""
        return self.kind == LEAF or self.kind == AND and all(
            child.uniform_score() for child in self.children)

    def __repr__(self) -> str:
        return f"Query({self.describe()})"

    def describe(self) -> str:
        if self.kind == LEAF:
            text = self.predicate.describe()
            if self.weight != DEFAULT_WEIGHT:
                text += f" [w={self.weight:g}]"
            return text
        joiner = " AND " if self.kind == AND else " OR "
        return "(" + joiner.join(child.describe() for child in self.children) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.predicate == other.predicate
            and self.weight == other.weight
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.predicate, self.weight, self.children))


class _MatchAllPredicate(Predicate):
    """Internal predicate matching every row (the empty query)."""

    def matches(self, row: Mapping[str, Any]) -> bool:
        return True

    def describe(self) -> str:
        return "TRUE"


def _flatten(kind: str, children: Sequence[Query]) -> tuple[Query, ...]:
    flat: list[Query] = []
    for child in children:
        if child.kind == kind:
            flat.extend(child.children)
        else:
            flat.append(child)
    return tuple(flat)
