"""Test oracle: the *eager* one-pass structure, as it stood before
``repro.core.onepass.OnePassTree`` became a lazy node tree — three parallel
dicts keyed by prefix tuple, ``depth + 1`` entries of each per kept item.
Kept verbatim (only the import path changed) so ``test_onepass_lazy.py`` can
drive both structures through the real drivers and demand identical victims,
skip ids, answers and ``next`` counts.

One line differs from the class as it stood, on purpose: ``remove`` iterates
``sorted(children[prefix])``.  The original iterated the ``set`` itself, so
a tie between equally crowded children went to whichever component came
first in hash-slot order — a function of table size and insertion history.
The lazy tree sends ties to the smallest component; sorting here gives the
oracle the same rule and changes nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.dewey import LEFT, DeweyId, next_id, successor

Prefix = Tuple[int, ...]

#: Score used for every tuple in the unscored variant (any constant works:
#: with all scores equal, scored diversity reduces to unscored diversity).
_UNSCORED = 0.0


class OnePassTree:
    """The paper's ``Node`` structure: a Dewey tree over the kept items.

    All bookkeeping is incremental so every operation is O(depth x fan-out):
    per-prefix item counts, child sets, and per-prefix counters of
    minimum-score ("evictable") leaves, keyed by score value.
    """

    def __init__(self, depth: int, k: int):
        if depth < 1:
            raise ValueError("Dewey depth must be positive")
        if k < 0:
            raise ValueError("k must be non-negative")
        self.depth = depth
        self.k = k
        self._scores: Dict[DeweyId, float] = {}
        self._counts: Dict[Prefix, int] = {}
        self._children: Dict[Prefix, Set[int]] = {}
        # prefix -> {score value -> number of leaves with that score below}.
        self._score_counts: Dict[Prefix, Dict[float, int]] = {}
        # Multiset of all kept scores, plus a cached minimum.
        self._score_totals: Dict[float, int] = {}
        self._cached_min: Optional[float] = None

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def num_items(self) -> int:
        return len(self._scores)

    def min_score(self) -> float:
        if not self._scores:
            raise ValueError("empty tree has no minimum score")
        if self._cached_min is None:
            self._cached_min = min(self._score_totals)
        return self._cached_min

    def results(self) -> List[DeweyId]:
        return sorted(self._scores)

    def scored_results(self) -> Dict[DeweyId, float]:
        return dict(self._scores)

    def add(self, dewey: DeweyId, score: float = _UNSCORED) -> None:
        if len(dewey) != self.depth:
            raise ValueError(f"expected depth {self.depth}, got {dewey}")
        if dewey in self._scores:
            return
        self._scores[dewey] = score
        self._score_totals[score] = self._score_totals.get(score, 0) + 1
        if self._cached_min is not None and score < self._cached_min:
            self._cached_min = score
        counts = self._counts
        children = self._children
        score_counts = self._score_counts
        for level in range(self.depth + 1):
            prefix = dewey[:level]
            counts[prefix] = counts.get(prefix, 0) + 1
            per_score = score_counts.get(prefix)
            if per_score is None:
                per_score = {}
                score_counts[prefix] = per_score
            per_score[score] = per_score.get(score, 0) + 1
            if level < self.depth:
                bucket = children.get(prefix)
                if bucket is None:
                    bucket = set()
                    children[prefix] = bucket
                bucket.add(dewey[level])

    def remove(self) -> Optional[DeweyId]:
        """Drop one most redundant minimum-score leaf; returns it.

        Descends from the root into a highest-count child that still holds a
        minimum-score leaf — the reverse-greedy step of the (bounded)
        water-fill, which keeps every prefix optimal for its shrunken
        cardinality (allocations are nested, DESIGN.md §3).
        """
        if not self._scores:
            return None
        theta = self.min_score()
        counts = self._counts
        children = self._children
        score_counts = self._score_counts
        prefix: Prefix = ()
        for _ in range(self.depth):
            best_component = None
            best_count = -1
            for component in sorted(children[prefix]):
                child = prefix + (component,)
                if not score_counts[child].get(theta, 0):
                    continue
                count = counts[child]
                if count > best_count:
                    best_component, best_count = component, count
            prefix = prefix + (best_component,)
        victim = prefix
        self._delete(victim, theta)
        return victim

    def _delete(self, victim: DeweyId, score: float) -> None:
        del self._scores[victim]
        remaining_total = self._score_totals[score] - 1
        if remaining_total:
            self._score_totals[score] = remaining_total
        else:
            del self._score_totals[score]
            if self._cached_min == score:
                self._cached_min = None
        counts = self._counts
        children = self._children
        score_counts = self._score_counts
        for level in range(self.depth, -1, -1):
            prefix = victim[:level]
            remaining = counts[prefix] - 1
            if remaining == 0 and level > 0:
                del counts[prefix]
                del score_counts[prefix]
                children.pop(prefix, None)
                bucket = children.get(victim[: level - 1])
                if bucket is not None:
                    bucket.discard(victim[level - 1])
            else:
                counts[prefix] = remaining
                per_score = score_counts[prefix]
                if per_score.get(score, 0) <= 1:
                    per_score.pop(score, None)
                else:
                    per_score[score] -= 1

    # ------------------------------------------------------------------
    # Skipping
    # ------------------------------------------------------------------
    def get_skip_id(self, current: DeweyId) -> Optional[DeweyId]:
        """Smallest ID beyond ``current`` that could still improve the kept
        set, assuming equal scores (i.e. within the minimum-score tier).
        ``None`` means no future ID can help: the scan may stop (unscored)
        or continue for strictly-higher scores only (scored).
        """
        if not self._scores:
            return None
        theta = self.min_score()
        counts = self._counts
        children = self._children
        score_counts = self._score_counts
        deepest = -1
        ancestor_benefit = False
        for level in range(self.depth):
            prefix = current[:level]
            path_child = current[: level + 1]
            path_count = counts.get(path_child, 0)
            swap_here = False        # A(level): new branch at level+1 helps
            swap_below = False       # B(level): insertions below path help
            for component in children.get(prefix, ()):
                child = prefix + (component,)
                count = counts.get(child, 0)
                if count < 2 or not score_counts[child].get(theta, 0):
                    continue
                swap_here = True
                if child != path_child and count >= path_count + 2:
                    swap_below = True
                    break
            if swap_here or ancestor_benefit:
                deepest = level
            ancestor_benefit = ancestor_benefit or swap_below
        if deepest < 0:
            return None
        if deepest == self.depth - 1:
            return successor(current)
        return next_id(current, deepest + 1, LEFT)

