"""Exact diverse-subset selection (the gold standard / post-processing step).

Given the *full* result set, these functions compute a maximally diverse
top-k directly from the definitions: top-down water-filling over the Dewey
tree.  They serve two roles:

* the selection step of the ``Naive`` baseline (evaluate everything, then
  pick a diverse subset), and
* the oracle against which the one-pass and probing algorithms are verified.

Both functions are deterministic: ties are resolved toward smaller Dewey
IDs, so tests can compare allocations (not just objectives) when convenient.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from .dewey import DeweyId


def waterfill(budget: int, capacities: Sequence[int],
              lower_bounds: Sequence[int] | None = None) -> List[int]:
    """Balanced integer allocation minimising ``sum n_i^2``.

    Distributes ``budget`` units over bins with the given capacities (and
    optional forced lower bounds), always topping up a currently-smallest
    bin.  Raises ``ValueError`` for infeasible budgets.
    """
    if lower_bounds is None:
        lower_bounds = [0] * len(capacities)
    if len(lower_bounds) != len(capacities):
        raise ValueError("capacity/lower-bound vectors must align")
    base = sum(lower_bounds)
    room = sum(capacities)
    if not base <= budget <= room:
        raise ValueError(f"infeasible budget {budget}: bounds give [{base}, {room}]")
    counts = list(lower_bounds)
    heap = [(count, i) for i, count in enumerate(counts) if count < capacities[i]]
    heapq.heapify(heap)
    remaining = budget - base
    while remaining > 0:
        count, i = heapq.heappop(heap)
        counts[i] = count + 1
        remaining -= 1
        if counts[i] < capacities[i]:
            heapq.heappush(heap, (counts[i], i))
    return counts


def diverse_subset(deweys: Iterable[DeweyId], k: int) -> List[DeweyId]:
    """A maximally diverse ``min(k, n)``-subset of ``deweys`` (Definition 2),
    in Dewey order."""
    ids = sorted(deweys)  # one pass over input that is already in order
    if k < 0:
        raise ValueError("k must be non-negative")
    chosen: List[DeweyId] = []
    if ids and k:
        _select(ids, 0, len(ids), 0, min(k, len(ids)), chosen)
    return chosen


def _select(ids: List[DeweyId], lo: int, hi: int, level: int, budget: int,
            chosen: List[DeweyId]) -> None:
    """Append a diverse ``budget``-subset of ``ids[lo:hi]`` (which share
    their first ``level`` components) to ``chosen``, in order."""
    if budget >= hi - lo or budget == 1 or level >= len(ids[lo]):
        chosen.extend(ids[lo:lo + budget])  # all, the smallest, or the first
        return
    bounds = [lo]  # group starts, by bisecting past each group's head
    while bounds[-1] < hi and len(bounds) <= budget:
        head = ids[bounds[-1]]
        bounds.append(bisect_left(ids, head[:level] + (head[level] + 1,),
                                  bounds[-1] + 1, hi))
    if bounds[-1] < hi:
        # More groups than budget: waterfill's ties give one to each of the
        # first ``budget``, and a one-ID share takes the group's smallest.
        chosen.extend(map(ids.__getitem__, bounds[:budget]))
        return
    shares = waterfill(budget, [end - start for start, end in zip(bounds, bounds[1:])])
    for start, end, share in zip(bounds, bounds[1:], shares):
        if share:
            _select(ids, start, end, level + 1, share, chosen)


def scored_diverse_subset(
    scores: Dict[DeweyId, float], k: int
) -> List[DeweyId]:
    """A maximally diverse maximal-score ``min(k, n)``-subset (scored
    Definition 2): all tuples above the k-th best score, plus a diverse
    completion from the tied tier."""
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = min(k, len(scores))
    if budget == 0:
        return []
    ranked = sorted(scores.values(), reverse=True)
    theta = ranked[budget - 1]
    forced = sorted(d for d, s in scores.items() if s > theta)
    tier = sorted(d for d, s in scores.items() if abs(s - theta) <= 1e-9)
    return sorted(_select_scored(forced, tier, 0, budget))


def _select_scored(
    forced: List[DeweyId], tier: List[DeweyId], level: int, budget: int
) -> List[DeweyId]:
    if budget < len(forced):
        raise ValueError("budget below forced count: scores are inconsistent")
    if budget == len(forced):
        return list(forced)
    if budget >= len(forced) + len(tier):
        return forced + tier
    if level >= _depth(forced, tier):
        return forced + tier[: budget - len(forced)]
    forced_groups = _group_map(forced, level)
    tier_groups = _group_map(tier, level)
    keys = sorted(set(forced_groups) | set(tier_groups))
    lower = [len(forced_groups.get(key, ())) for key in keys]
    caps = [
        len(forced_groups.get(key, ())) + len(tier_groups.get(key, ()))
        for key in keys
    ]
    allocation = waterfill(budget, caps, lower)
    chosen: List[DeweyId] = []
    for key, share in zip(keys, allocation):
        if share:
            chosen.extend(
                _select_scored(
                    list(forced_groups.get(key, ())),
                    list(tier_groups.get(key, ())),
                    level + 1,
                    share,
                )
            )
    return chosen


def _depth(*id_lists: List[DeweyId]) -> int:
    for ids in id_lists:
        if ids:
            return len(ids[0])
    return 0


def _group_map(ids: List[DeweyId], level: int) -> Dict[int, List[DeweyId]]:
    groups: Dict[int, List[DeweyId]] = defaultdict(list)
    for dewey in ids:
        groups[dewey[level]].append(dewey)
    return dict(groups)
