"""Inverted-List Based IR Systems, as formalised in Section II-C.

The impossibility result (Theorem 1) quantifies over a precise class of
engines: each attribute value / keyword owns an inverted list; every item in
a list carries a value-dependent score ``SCORE_A(i)``; a query picks lists
``A_1..A_l`` and per-query weights ``w_{A_1}..w_{A_l}``; the engine returns
the k items maximising the *monotone* aggregate
``f(w_{A_1} SCORE_{A_1}(i), ..., w_{A_l} SCORE_{A_l}(i))``.

This module implements exactly that machine, so the impossibility theorem
can be demonstrated executable-ly (see :mod:`paper.ir.impossibility`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.index.tokenize import token_set
from repro.storage.relation import Relation
from repro.storage.schema import AttributeKind

#: A list key: ("scalar", attribute, value) or ("token", attribute, token).
ListKey = Tuple[str, str, object]

#: ``SCORE_A(i)``: maps (list key, rid) -> float.
ScoreAssignment = Mapping[Tuple[ListKey, int], float]


def scalar_key(attribute: str, value: object) -> ListKey:
    return ("scalar", attribute, value)


def token_key(attribute: str, token: str) -> ListKey:
    return ("token", attribute, token.lower())


def sum_aggregator(scores: Sequence[float]) -> float:
    """The canonical monotone aggregation (weighted sum once weights are
    folded in)."""
    return sum(scores)


def max_aggregator(scores: Sequence[float]) -> float:
    return max(scores) if scores else 0.0


def min_aggregator(scores: Sequence[float]) -> float:
    return min(scores) if scores else 0.0


class InvertedListIRSystem:
    """A faithful instance of the paper's IR-system class.

    ``scores`` assigns each (list, item) pair its static, value-dependent
    score; items missing from a queried list contribute score 0 (they are
    not in that list).  ``aggregator`` must be monotone in each argument.
    """

    def __init__(
        self,
        relation: Relation,
        scores: ScoreAssignment,
        aggregator: Callable[[Sequence[float]], float] = sum_aggregator,
    ):
        self.relation = relation
        self.aggregator = aggregator
        self._lists: Dict[ListKey, List[int]] = {}
        self._scores = dict(scores)
        names = relation.schema.names
        text_attributes = [
            attribute.name
            for attribute in relation.schema
            if attribute.kind is AttributeKind.TEXT
        ]
        for rid, row in relation.iter_live():
            for name, value in zip(names, row):
                self._lists.setdefault(scalar_key(name, value), []).append(rid)
            for name in text_attributes:
                text = relation.value(rid, name)
                for token in token_set(text):
                    self._lists.setdefault(token_key(name, token), []).append(rid)

    def postings(self, key: ListKey) -> List[int]:
        """Items of one inverted list, ordered by their list score (desc)."""
        rids = self._lists.get(key, [])
        return sorted(
            rids, key=lambda rid: (-self._scores.get((key, rid), 0.0), rid)
        )

    def list_keys(self) -> List[ListKey]:
        return list(self._lists)

    def top_k(
        self,
        query: Sequence[Tuple[ListKey, float]],
        k: int,
        allowed: Optional[set] = None,
    ) -> List[int]:
        """The engine's answer: k items maximising the aggregated score.

        ``query`` is a list of (list key, per-query weight) pairs.  Exactly
        the Section II-C machine: items appearing in at least one queried
        list are candidates; each candidate aggregates its weighted per-list
        scores (0 for lists it is absent from); ties broken by rid so the
        engine is deterministic (any deterministic tie-break suffices for
        the theorem).

        ``allowed`` optionally restricts candidates (used to grant the
        engine perfect boolean filtering for conjunctive queries, which only
        strengthens the impossibility demonstration).
        """
        candidates: Dict[int, List[float]] = {}
        for position, (key, weight) in enumerate(query):
            for rid in self._lists.get(key, []):
                if allowed is not None and rid not in allowed:
                    continue
                entry = candidates.setdefault(rid, [0.0] * len(query))
                entry[position] = weight * self._scores.get((key, rid), 0.0)
        ranked = sorted(
            candidates.items(),
            key=lambda pair: (-self.aggregator(pair[1]), pair[0]),
        )
        return [rid for rid, _ in ranked[:k]]
