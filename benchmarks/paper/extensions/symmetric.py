"""Symmetric score/diversity trade-off (Section VII's second extension).

The paper's scored diversity is *lexicographic*: score strictly dominates,
and diversity only arbitrates among tuples tied at the k-th score.  Its
conclusion sketches an alternative: "exploring an alternative definition of
diversity that provides a more symmetric treatment of diversity and score
thereby ensuring diversity across different scores."

This module implements that extension as a submodular trade-off:

    F(S) = sum_{x in S} score(x)
         + sum_{levels l} weight_l * |{distinct length-l prefixes in S}|

The second term rewards *coverage* of the Dewey tree — each newly
represented make (level 1), model (level 2), ... earns its level weight
once.  Coverage is monotone submodular and the score term is modular, so
lazy greedy selection (:func:`greedy_symmetric_select`) is the classic
(1 - 1/e)-approximation; for the common case where level weights dominate
pairwise score gaps it is exact.

Compared to the paper's definition: a strong-but-redundant tuple can now
lose its slot to a slightly weaker tuple from an unrepresented branch —
diversity across different scores, as promised.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.dewey import DeweyId

Prefix = Tuple[int, ...]


class SymmetricObjective:
    """``F(S)``: total score plus weighted Dewey-tree coverage."""

    def __init__(self, level_weights: Sequence[float]):
        if not level_weights:
            raise ValueError("need at least one level weight")
        if any(w < 0 for w in level_weights):
            raise ValueError("level weights must be non-negative")
        self.level_weights = tuple(float(w) for w in level_weights)

    def coverage_gain(self, covered: Set[Prefix], dewey: DeweyId) -> float:
        """Marginal coverage value of adding ``dewey`` given covered
        prefixes."""
        gain = 0.0
        for level, weight in enumerate(self.level_weights, start=1):
            if level > len(dewey):
                break
            if weight and dewey[:level] not in covered:
                gain += weight
        return gain

    def cover(self, covered: Set[Prefix], dewey: DeweyId) -> None:
        for level in range(1, min(len(self.level_weights), len(dewey)) + 1):
            covered.add(dewey[:level])

    def value(
        self, selected: Iterable[DeweyId], scores: Mapping[DeweyId, float]
    ) -> float:
        """``F(S)`` evaluated from scratch."""
        selected = list(selected)
        total = sum(scores.get(dewey, 0.0) for dewey in selected)
        for level, weight in enumerate(self.level_weights, start=1):
            if not weight:
                continue
            distinct = {dewey[:level] for dewey in selected if len(dewey) >= level}
            total += weight * len(distinct)
        return total


def greedy_symmetric_select(
    scores: Mapping[DeweyId, float],
    k: int,
    objective: SymmetricObjective,
) -> List[DeweyId]:
    """Lazy-greedy maximisation of ``F`` over size-k subsets.

    Deterministic: ties break toward higher score, then smaller Dewey ID.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = min(k, len(scores))
    if budget == 0:
        return []
    covered: Set[Prefix] = set()
    chosen: List[DeweyId] = []
    # Lazy greedy: heap of (-upper bound, tiebreak, dewey, stamp).  Upper
    # bounds only shrink as coverage grows (submodularity), so a popped
    # entry whose bound is stale gets re-pushed with its fresh gain.
    counter = itertools.count()
    heap = []
    for dewey, score in scores.items():
        bound = score + objective.coverage_gain(covered, dewey)
        heapq.heappush(heap, (-bound, dewey, next(counter), -1))
    generation = 0
    while heap and len(chosen) < budget:
        neg_bound, dewey, _, stamp = heapq.heappop(heap)
        if stamp == generation:
            chosen.append(dewey)
            objective.cover(covered, dewey)
            generation += 1
            continue
        fresh = scores[dewey] + objective.coverage_gain(covered, dewey)
        heapq.heappush(heap, (-fresh, dewey, next(counter), generation))
    return sorted(chosen)


def uniform_level_weights(depth: int, strength: float) -> List[float]:
    """Equal weight at every attribute level (none at the uniqueness level)."""
    if depth < 1:
        raise ValueError("depth must be positive")
    return [strength] * max(0, depth - 1) + [0.0]


def hierarchy_level_weights(depth: int, top: float, decay: float = 0.5) -> List[float]:
    """Geometrically decaying weights: varying Make matters more than Color."""
    if not 0 < decay <= 1:
        raise ValueError("decay must be in (0, 1]")
    weights = []
    weight = top
    for _ in range(max(0, depth - 1)):
        weights.append(weight)
        weight *= decay
    return weights + [0.0]


def symmetric_search(
    engine,
    query,
    k: int,
    level_weights: Optional[Sequence[float]] = None,
    strength: float = 1.0,
) -> List[Tuple[DeweyId, float]]:
    """Convenience wrapper: evaluate the query, trade off score vs coverage.

    Being a *selection* definition (like the paper's Definition 2, it needs
    the candidate pool), this runs over the materialised result set; the
    streaming algorithms keep the paper's lexicographic semantics.
    Returns ``[(dewey, score)]`` sorted by Dewey ID.
    """
    from repro.core.baselines import collect_all_scored
    from repro.index.merged import MergedList
    from repro.query.parser import parse_query

    if isinstance(query, str):
        query = parse_query(query)
    merged = MergedList(query, engine.index)
    scores = collect_all_scored(merged)
    depth = engine.index.depth
    if level_weights is None:
        level_weights = hierarchy_level_weights(depth, top=strength)
    objective = SymmetricObjective(level_weights)
    chosen = greedy_symmetric_select(scores, k, objective)
    return [(dewey, scores[dewey]) for dewey in chosen]
