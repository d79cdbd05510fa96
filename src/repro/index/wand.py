"""WAND: two-level top-k retrieval over weighted posting lists.

Broder et al.'s WAND algorithm (CIKM 2003, reference [1] of the paper) finds
the k highest-scoring matches of a weighted disjunction without scanning
every posting: lists are kept sorted by their current position, and the
*pivot* — the first list at which the cumulative score upper bound reaches
the current threshold — lower-bounds the next document that could possibly
enter the top-k, so everything before it is skipped.

The paper uses WAND both as the ``SBasic`` baseline engine and as the
bootstrap phase of the scored probing algorithm (Algorithm 4, line 1).

Scores here follow the engine's model: ``score(t) = sum of weights of the
query leaves containing t``; each leaf cursor's upper bound is its weight.
The pivot loop is :meth:`MergedList.wand_pivot`, the one the scored
``next(id, dir, theta)`` runs; this driver only raises the threshold as the
top-k fills and resumes the loop beyond each landing.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..core.dewey import LEFT, DeweyId, successor
from .merged import MergedList


def wand_topk(merged: MergedList, k: int) -> List[Tuple[DeweyId, float]]:
    """Top-k ``(dewey, score)`` of ``merged``'s query, best score first.

    Ties at the threshold are broken toward smaller Dewey IDs (the ones WAND
    encounters first).  Returns fewer than k pairs when the query has fewer
    matches.  Exact: verified against exhaustive scoring in the tests.
    """
    if k <= 0:
        return []
    # Min-heap of the current top-k as (score, negated-dewey, dewey): among
    # score ties the heap minimum is the *largest* Dewey ID, so evictions
    # keep the first-encountered (smallest) IDs — matching the oracle.
    heap: List[Tuple[float, DeweyId, DeweyId]] = []
    threshold = float("-inf")
    bound = (0,) * merged.depth
    states = merged.wand_states(bound, LEFT, threshold, True)
    while True:
        landing = merged.wand_pivot(states, bound, LEFT, threshold, True)
        if landing is None:
            break
        dewey, score = landing
        _offer(heap, k, score, dewey)
        if len(heap) == k:
            threshold = heap[0][0]
        bound = successor(dewey)
    return sorted(
        ((d, s) for s, _, d in heap), key=lambda pair: (-pair[1], pair[0])
    )


def _offer(
    heap: List[Tuple[float, DeweyId, DeweyId]], k: int, score: float, dewey: DeweyId
) -> None:
    """Keep the k best (score, dewey) pairs, smaller IDs winning ties."""
    entry = (score, tuple(-component for component in dewey), dewey)
    if len(heap) < k:
        heapq.heappush(heap, entry)
    elif entry > heap[0]:
        heapq.heapreplace(heap, entry)
