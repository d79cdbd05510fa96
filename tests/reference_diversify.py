"""Test oracle: ``diverse_subset`` as it stood before it selected over
index ranges of one sorted list — sort, copy every group at every level
(:func:`_group`), water-fill over all of them.  Kept close to verbatim so
``test_diversify.py`` can demand identical output from both."""

from __future__ import annotations

from typing import Iterable, List

from repro.core.dewey import DeweyId
from repro.core.diversify import waterfill


def diverse_subset(deweys: Iterable[DeweyId], k: int) -> List[DeweyId]:
    ids = sorted(deweys)
    if k < 0:
        raise ValueError("k must be non-negative")
    budget = min(k, len(ids))
    if budget == 0:
        return []
    return sorted(_select(ids, 0, budget))


def _select(sorted_ids: List[DeweyId], level: int, budget: int) -> List[DeweyId]:
    if budget >= len(sorted_ids):
        return list(sorted_ids)
    if level >= len(sorted_ids[0]):
        return sorted_ids[:budget]
    groups = _group(sorted_ids, level)
    allocation = waterfill(budget, [len(group) for group in groups])
    chosen: List[DeweyId] = []
    for group, share in zip(groups, allocation):
        if share:
            chosen.extend(_select(group, level + 1, share))
    return chosen


def _group(sorted_ids: List[DeweyId], level: int) -> List[List[DeweyId]]:
    """Split component-``level``-sorted IDs into per-component runs."""
    groups: List[List[DeweyId]] = []
    current_key = object()
    for dewey in sorted_ids:
        key = dewey[level]
        if key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append(dewey)
    return groups
