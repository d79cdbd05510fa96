"""One-pass diversity algorithms (Section III).

Both variants make a single left-to-right scan of the merged posting list,
maintaining a diverse top-k of everything seen so far and *skipping* regions
that provably cannot contribute.  The paper gives the driver (Algorithm 1)
but leaves the ``Node`` data structure abstract; :class:`OnePassTree` is our
realisation, derived in DESIGN.md §3 ("One-pass skipping rule"):

* ``remove`` deletes the leaf whose root-to-leaf count vector is
  lexicographically largest (the most over-represented item), restricted to
  minimum-score ("evictable") leaves in the scored case, so the kept set
  stays a maximally diverse (min(k, seen))-subset of the scanned prefix.
* ``get_skip_id`` walks the current Dewey path for the deepest level where a
  new sibling branch could still survive a rebalancing swap.  **A(j)**: some
  child of the level-``j`` node holds >= 2 items, one evictable.  **B(j')**:
  an ancestor's child other than the path's holds >= (path child count + 2)
  evictable items, so any insertion below the path helps.  The scan jumps
  there; if no level can benefit it terminates (unscored) or continues for
  strictly higher scores only (scored).

The tree of :class:`OnePassNode` is lazy.  A branch holding one item is a
single *stub* (``children is None``, the id in ``item``) that grows by one
level only when a second item arrives in it; a grown node that falls back
to one item stays grown.  Per-score ``tier`` counters appear only once a
second distinct score is added; until then (always, unscored) every leaf is
evictable and nodes keep counts alone.  ``remove`` drops counts on its way
down and unlinks the first child holding the victim alone: one walk.
``get_skip_id`` returns the plain next id at the first B(j'), since every
deeper level then benefits, and stops at the first stub or missing child,
below which A(j) fails.  ``tests/test_onepass_lazy.py`` holds the tree to
the eager structure of ``tests/reference_onepass_tree.py``: the same
victims and skip ids at every step.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..index.merged import MergedList
from .dewey import DeweyId, successor

#: Score used for every tuple in the unscored variant (any constant works:
#: with all scores equal, scored diversity reduces to unscored diversity).
_UNSCORED = 0.0


class OnePassNode:
    """One node of :class:`OnePassTree`: a stub while ``children`` is None
    (``item`` is the one kept id below it), grown otherwise."""

    __slots__ = ("count", "tier", "children", "item")

    def __init__(self, count, tier, children, item):
        self.count: int = count  # kept items below
        self.tier: Optional[Dict[float, int]] = tier  # per score, or None
        self.children: Optional[Dict[int, OnePassNode]] = children
        self.item: Optional[DeweyId] = item


class OnePassTree:
    """The paper's ``Node`` structure: a Dewey tree over the kept items.

    All bookkeeping is incremental and lives on the nodes; every operation
    is a walk down the grown part of one path, O(depth x fan-out) at worst.
    """

    def __init__(self, depth: int, k: int):
        if depth < 1:
            raise ValueError("Dewey depth must be positive")
        if k < 0:
            raise ValueError("k must be non-negative")
        self.depth = depth
        self.k = k
        self._scores: Dict[DeweyId, float] = {}
        # Always grown; once tiered, its tier is the multiset of kept scores.
        self._root = OnePassNode(0, None, {}, None)
        self._tiered = False
        # score -> the ``{score: 1}`` tier shared by every stub of that
        # score.  Never mutated: growing a stub copies it.
        self._unit_tiers: Dict[float, Dict[float, int]] = {}
        self._cached_min: Optional[float] = None  # untiered: the one score

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def num_items(self) -> int:
        return len(self._scores)

    def min_score(self) -> float:
        if not self._scores:
            raise ValueError("empty tree has no minimum score")
        if self._cached_min is None:
            self._cached_min = min(self._root.tier)
        return self._cached_min

    def results(self) -> List[DeweyId]:
        return sorted(self._scores)

    def scored_results(self) -> Dict[DeweyId, float]:
        return dict(self._scores)

    def _build_tiers(self) -> None:
        """A second distinct score arrives: give every node the tier it
        would have kept all along, every kept item scoring ``_cached_min``."""
        score = self._cached_min
        unit = self._unit_tiers[score] = {score: 1}
        nodes = [self._root]
        for node in nodes:  # grows as it goes: breadth first
            if node.children is None:
                node.tier = unit
            else:
                node.tier = {score: node.count}
                nodes.extend(node.children.values())
        self._tiered = True

    def add(self, dewey: DeweyId, score: float = _UNSCORED) -> None:
        if len(dewey) != self.depth:
            raise ValueError(f"expected depth {self.depth}, got {dewey}")
        if dewey in self._scores:
            return
        if self._scores and not self._tiered and score != self._cached_min:
            self._build_tiers()
        cached = self._cached_min
        if not self._scores or cached is not None and score < cached:
            self._cached_min = score
        self._scores[dewey] = score
        unit = None
        if self._tiered:
            unit = self._unit_tiers.setdefault(score, {score: 1})
        node = self._root
        for level, component in enumerate(dewey, 1):
            node.count += 1
            if unit is not None:
                node.tier[score] = node.tier.get(score, 0) + 1
            child = node.children.get(component)
            if child is None:
                node.children[component] = OnePassNode(1, unit, None, dewey)
                return
            if child.children is None:
                # A stub in the way grows: its item moves into a new stub below.
                item = child.item
                child.children = {item[level]: OnePassNode(1, child.tier, None, item)}
                if unit is not None:
                    child.tier = dict(child.tier)  # the unit tier stays shared
                child.item = None
            node = child

    def remove(self) -> Optional[DeweyId]:
        """Drop one most redundant minimum-score leaf; returns it.

        Descends into a highest-count child that still holds a minimum-score
        leaf — the reverse-greedy step of the (bounded) water-fill, which
        keeps every prefix optimal for its shrunken cardinality (DESIGN.md
        §3).  Ties go left, to the smallest component: a left-to-right scan
        keeps the later-seen of two equals, whatever a dict's order.  Counts
        drop on the way down; the first child holding the victim alone is
        unlinked, where ``discard`` would unlink it.
        """
        if not self._scores:
            return None
        tiered = self._tiered
        theta = self.min_score() if tiered else None
        node = self._root
        while True:
            best, best_count, best_component = None, 0, 0
            for component, child in node.children.items():
                count = child.count
                if count < best_count or tiered and theta not in child.tier:
                    continue
                if count > best_count or component < best_component:
                    best, best_count, best_component = child, count, component
            node.count -= 1
            if tiered:
                self._untier(node.tier, theta)
            if best_count == 1:
                del node.children[best_component]
                break
            node = best
        while best.children is not None:  # a grown node left with one item
            (best,) = best.children.values()
        del self._scores[best.item]
        return best.item

    def discard(self, dewey: DeweyId) -> bool:
        """Drop ``dewey`` if it is kept; returns whether it was."""
        score = self._scores.pop(dewey, None)
        if score is None:
            return False
        node = self._root
        for component in dewey:
            node.count -= 1
            if self._tiered:
                self._untier(node.tier, score)
            child = node.children[component]
            if child.count == 1:
                # ``dewey`` is all that hangs here, stub or grown: unlink it.
                del node.children[component]
                break
            node = child
        return True

    def _untier(self, tier: Dict[float, int], score: float) -> None:
        tier[score] -= 1
        if not tier[score]:
            del tier[score]
            if tier is self._root.tier:  # the last of its score: forget it
                del self._unit_tiers[score]
                if self._cached_min == score:
                    self._cached_min = None

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
        tiered = self._tiered
        theta = self.min_score() if tiered else None
        deepest = -1
        node = self._root
        for level, component in enumerate(current):
            path_child = node.children.get(component)
            path_count = path_child.count if path_child is not None else 0
            for child in node.children.values():
                count = child.count
                if count < 2 or tiered and theta not in child.tier:
                    continue
                deepest = level  # A(level): a new branch at level+1 helps
                if count >= path_count + 2:
                    # B(level): any insertion below the path child helps.
                    return successor(current)
            if path_child is None or path_child.children is None:
                break  # off the grown tree: no A(j) below, no B(j') above
            node = path_child
        if deepest < 0:
            return None
        # The paper's nextId(current, deepest + 1, LEFT).
        tail = (current[deepest] + 1,) + (0,) * (self.depth - 1 - deepest)
        return current[:deepest] + tail


def one_pass_unscored(
    merged: MergedList, k: int, use_skips: bool = True
) -> List[DeweyId]:
    """Algorithm 1: unscored one-pass diverse top-k.

    ``use_skips=False`` disables the skip-ahead optimisation (the scan still
    terminates early when nothing can improve the kept set); used by the
    skipping ablation benchmark.
    """
    tree = OnePassTree(merged.depth, k)
    if k == 0:
        return []
    current = merged.first()
    # Fill phase (driver lines 1-6): accept the first k matches verbatim.
    while current is not None and tree.num_items() < k:
        tree.add(current)
        current = merged.next(successor(current))
    # Scan phase (driver lines 7-11): add, evict, skip.
    while current is not None:
        tree.add(current)
        tree.remove()
        skip_id = tree.get_skip_id(current)
        if skip_id is None:
            break
        step = successor(current)
        if not use_skips:
            skip_id = step
        elif skip_id > step:
            merged.skip_jumps += 1  # a branch-sized jump, not a plain step
        current = merged.next(skip_id)
    return tree.results()


def one_pass_scored(merged: MergedList, k: int) -> Dict[DeweyId, float]:
    """Scored one-pass (Section III-D): returns ``{dewey: score}``.

    Identical scan structure, but the skip boundary only applies to tuples
    tied at the current minimum kept score; anything scoring strictly higher
    is always picked up (the modified ``next`` call of Section III-D).
    """
    tree = OnePassTree(merged.depth, k)
    if k == 0:
        return {}
    current = merged.first()
    while current is not None and tree.num_items() < k:
        tree.add(current, merged.score(current))
        current = merged.next(successor(current))
    # ``current`` is now the first match that did NOT fit in the fill phase
    # (or None); process it, then continue with score-filtered steps.
    score = merged.score(current) if current is not None else 0.0
    while current is not None:
        tree.add(current, score)
        tree.remove()
        theta = tree.min_score()
        skip_id = tree.get_skip_id(current)
        start = successor(current)
        if skip_id is None or skip_id > start:
            # The tied-score tier is scanned from beyond ``start`` (or not
            # at all): a Section III-D skip, not a plain step.
            merged.skip_jumps += 1
        step = merged.next_onepass_scored(start, skip_id, theta)
        if step is None:
            break
        current, score = step
    return tree.scored_results()
