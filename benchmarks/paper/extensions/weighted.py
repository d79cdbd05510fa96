"""Weighted diversity (the first extension in Section VII).

    "A natural extension to our definition of diversity is producing
    weighted results by assigning weights to different attribute values.
    For instance, we may assign higher weights to Hondas and Toyotas when
    compared to Teslas, so that the diverse results have more Hondas and
    Toyotas."

We generalise the balanced allocation: at every Dewey-tree node, child
counts minimise ``sum_i n_i^2 / w_i`` (instead of ``sum_i n_i^2``), where
``w_i`` is the child value's weight.  With all weights 1 this is exactly the
unweighted definition; a child with weight 2 is allowed roughly twice the
representation before it counts as redundant.  The greedy marginal-cost
water-fill (give the next unit to the child with the smallest
``(2 n_i + 1) / w_i``) is optimal for this separable convex objective.

Following the paper, weighted diversity is offered as a *selection* layer
(apply to a materialised result set or compose with any algorithm's
candidate superset); the streaming algorithms themselves stay unweighted.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from repro.core.baselines import collect_all
from repro.core.dewey import DeweyId
from repro.core.engine import DiversityEngine
from repro.core.result import DiverseResult
from repro.index.dewey_index import DeweyIndex
from repro.index.merged import MergedList
from repro.query.parser import parse_query
from repro.query.query import Query

Prefix = Tuple[int, ...]

#: Weight lookup: (attribute name, value) -> weight.  Missing pairs get 1.0.
ValueWeights = Mapping[Tuple[str, object], float]


def weighted_waterfill(
    budget: int,
    capacities: Sequence[int],
    weights: Sequence[float],
) -> List[int]:
    """Allocation minimising ``sum n_i^2 / w_i`` under capacity bounds."""
    if len(weights) != len(capacities):
        raise ValueError("capacity/weight vectors must align")
    for weight in weights:
        if weight <= 0:
            raise ValueError("value weights must be positive")
    if not 0 <= budget <= sum(capacities):
        raise ValueError(f"infeasible budget {budget}")
    counts = [0] * len(capacities)
    heap = [
        (1.0 / weights[i], i) for i in range(len(capacities)) if capacities[i] > 0
    ]
    heapq.heapify(heap)
    remaining = budget
    while remaining > 0:
        _, i = heapq.heappop(heap)
        counts[i] += 1
        remaining -= 1
        if counts[i] < capacities[i]:
            marginal = (2 * counts[i] + 1) / weights[i]
            heapq.heappush(heap, (marginal, i))
    return counts


def is_weighted_balanced(
    selected_counts: Sequence[int],
    availabilities: Sequence[int],
    weights: Sequence[float],
) -> bool:
    """Single-exchange optimality for the weighted objective."""
    for n, cap in zip(selected_counts, availabilities):
        if not 0 <= n <= cap:
            return False
    for i, (n_i, w_i) in enumerate(zip(selected_counts, weights)):
        if n_i == 0:
            continue
        saving = (2 * n_i - 1) / w_i
        for j, (n_j, cap_j, w_j) in enumerate(
            zip(selected_counts, availabilities, weights)
        ):
            if i == j or n_j >= cap_j:
                continue
            cost = (2 * n_j + 1) / w_j
            if cost < saving - 1e-12:
                return False
    return True


class WeightedDiversifier:
    """Selects weighted-diverse subsets of materialised Dewey ID sets."""

    def __init__(self, dewey_index: DeweyIndex, weights: ValueWeights):
        self._dewey = dewey_index
        self._weights = dict(weights)
        self._ordering = dewey_index.ordering

    def weight_of(self, level: int, prefix: Prefix, component: int) -> float:
        """Weight of the child ``component`` under ``prefix`` (1.0 default).

        ``level`` is 0-based: level 0 children are values of the first
        ordering attribute.  The synthetic uniqueness level has no values,
        so its children always weigh 1.
        """
        if level >= len(self._ordering):
            return 1.0
        attribute = self._ordering.attribute_at(level + 1)
        value = self._decode(prefix, component)
        return float(self._weights.get((attribute, value), 1.0))

    def _decode(self, prefix: Prefix, component: int):
        # values_of needs a full-depth id; decode just this step instead.
        return self._dewey._dictionary.decode(prefix, component)  # noqa: SLF001

    def select(self, deweys: Iterable[DeweyId], k: int) -> List[DeweyId]:
        """A weighted-diverse min(k, n)-subset of ``deweys``."""
        ids = sorted(deweys)
        budget = min(k, len(ids))
        if budget == 0:
            return []
        return sorted(self._select(ids, 0, budget, ()))

    def _select(
        self, sorted_ids: List[DeweyId], level: int, budget: int, prefix: Prefix
    ) -> List[DeweyId]:
        if budget >= len(sorted_ids):
            return list(sorted_ids)
        if level >= len(sorted_ids[0]):
            return sorted_ids[:budget]
        groups: Dict[int, List[DeweyId]] = {}
        for dewey in sorted_ids:
            groups.setdefault(dewey[level], []).append(dewey)
        components = sorted(groups)
        capacities = [len(groups[c]) for c in components]
        weights = [self.weight_of(level, prefix, c) for c in components]
        allocation = weighted_waterfill(budget, capacities, weights)
        chosen: List[DeweyId] = []
        for component, share in zip(components, allocation):
            if share:
                chosen.extend(
                    self._select(
                        groups[component], level + 1, share, prefix + (component,)
                    )
                )
        return chosen

    def is_weighted_diverse(
        self, selected: Iterable[DeweyId], result_set: Iterable[DeweyId]
    ) -> bool:
        """Checker: single-exchange optimality at every populated prefix."""
        from repro.core.similarity import children_of, count_tree

        chosen = set(selected)
        universe = set(result_set)
        if not chosen <= universe:
            return False
        if not chosen:
            return True
        availability = count_tree(universe)
        picked = count_tree(chosen)
        depth = len(next(iter(chosen)))
        for prefix, _ in picked.items():
            if len(prefix) >= depth:
                continue
            child_prefixes = children_of(availability, prefix)
            counts = [picked.get(child, 0) for child in child_prefixes]
            caps = [availability[child] for child in child_prefixes]
            weights = [
                self.weight_of(len(prefix), prefix, child[-1])
                for child in child_prefixes
            ]
            if not is_weighted_balanced(counts, caps, weights):
                return False
        return True


def weighted_search(
    engine: DiversityEngine,
    query: Union[Query, str],
    k: int,
    value_weights: ValueWeights,
) -> DiverseResult:
    """Weighted-diverse top-k over ``engine``'s index.

    ``value_weights`` maps ``(attribute, value)`` to a positive weight;
    heavier values earn proportionally more slots.  Exact selection over the
    materialised result set, since the extension is a selection-level
    refinement.
    """
    if isinstance(query, str):
        query = parse_query(query)
    merged = MergedList(query, engine.index)
    diversifier = WeightedDiversifier(engine.index.dewey, value_weights)
    chosen = diversifier.select(collect_all(merged), k)
    return DiverseResult.package(
        engine.index, chosen, None, k, "weighted", False,
        {"next_calls": merged.next_calls,
         "scored_next_calls": merged.scored_next_calls})
