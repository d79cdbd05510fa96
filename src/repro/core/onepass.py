"""One-pass diversity algorithms (Section III).

Both variants make a single left-to-right scan of the merged posting list,
maintaining a diverse top-k of everything seen so far and *skipping* regions
that provably cannot contribute.  The paper gives the driver (Algorithm 1)
but leaves the ``Node`` data structure abstract; :class:`OnePassTree` is our
realisation, derived in DESIGN.md:

* ``add``/``remove`` keep the invariant that the kept set is a maximally
  diverse (min(k, seen))-subset of the scanned prefix: ``remove`` deletes
  the leaf whose root-to-leaf count vector is lexicographically largest (the
  most over-represented item), restricted to minimum-score leaves in the
  scored case.

* ``get_skip_id`` reasons about *where a future item could still improve*
  the kept set.  During the scan the tree always holds exactly k items, so a
  new item survives only through a rebalancing swap: evict one leaf from an
  over-represented *donor* child, insert the new item elsewhere.  Walking
  the current Dewey path, a new sibling branch at level ``j+1`` helps iff

  - **A(j)**: some child of the level-``j`` node holds >= 2 items, one of
    them evictable (the classic "two Civics, none of this model yet" swap,
    improving balance at level ``j+1``), or
  - **B(j')** for an ancestor ``j' < j``: some child *other than the current
    path's* holds >= (path child count + 2) evictable items — then any
    insertion below the path child improves the ancestor's balance, however
    deep it lands.

  The scan jumps to the next sibling branch of the deepest beneficial
  level; if no level can benefit, it terminates (unscored) or continues for
  strictly higher scores only (scored).  Evictability ("tier") means holding
  a minimum-score leaf — in the unscored case, any leaf.

Stubs: the lazy tree
--------------------

Every quantity above is a count below a prefix, so the structure is a tree
of :class:`OnePassNode`: int-keyed ``children``, the item ``count`` and the
per-score ``tier`` counter on the node.  A branch holding exactly one item
is a single *stub* (``children is None``, the id in ``item``) hanging where
its path leaves the rest of the tree.  A stub grows by one level — its item
moves into a new stub below — only when a second item arrives in its
branch; a grown node that falls back to one item stays grown.  A visited
item then usually costs one or two nodes, not ``depth + 1`` entries in each
of three prefix-keyed dicts as in the eager structure kept in
``tests/reference_onepass_tree.py`` (``tests/test_onepass_lazy.py`` holds
the two to the same victims and skip ids at every step).

``remove`` and ``get_skip_id`` descend through grown nodes only.  The first
stub ``remove`` meets is its victim (of equally crowded children the
smallest component loses; see its docstring).  ``get_skip_id`` may stop at
the first stub or missing child: no node below holds two items, so A(j)
fails at every deeper level and an ancestor's B(j') alone decides whether
the scan stays inside the branch.
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
        self.count: int = count  # kept items below; ``tier``: how many per score
        self.tier: Dict[float, int] = tier
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
        # Always grown; its tier is the multiset of all kept scores.
        self._root = OnePassNode(0, {}, {}, None)
        # score -> the ``{score: 1}`` tier shared by every stub of that
        # score.  Never mutated: growing a stub copies it.
        self._unit_tiers: Dict[float, Dict[float, int]] = {}
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
            self._cached_min = min(self._root.tier)
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
        if self._cached_min is not None and score < self._cached_min:
            self._cached_min = score
        unit = self._unit_tiers.get(score)
        if unit is None:
            unit = self._unit_tiers[score] = {score: 1}
        node = self._root
        for level, component in enumerate(dewey, 1):
            node.count += 1
            tier = node.tier
            tier[score] = tier.get(score, 0) + 1
            child = node.children.get(component)
            if child is None:
                node.children[component] = OnePassNode(1, unit, None, dewey)
                return
            if child.children is None:
                # A stub in the way grows: its item moves into a new stub below.
                item = child.item
                child.children = {item[level]: OnePassNode(1, child.tier, None, item)}
                child.tier = dict(child.tier)  # the unit tier stays shared
                child.item = None
            node = child

    def remove(self) -> Optional[DeweyId]:
        """Drop one most redundant minimum-score leaf; returns it.

        Descends from the root into a highest-count child that still holds a
        minimum-score leaf — the reverse-greedy step of the (bounded)
        water-fill, which keeps every prefix optimal for its shrunken
        cardinality (allocations are nested, DESIGN.md §3).  Ties between
        equally crowded children go left, to the smallest component: a
        left-to-right scan then always keeps the later-seen of two equals,
        and the answer does not depend on the order a dict or set happens
        to iterate in.
        """
        if not self._scores:
            return None
        theta = self.min_score()
        node = self._root
        while node.children is not None:
            best = None
            best_count = 0
            best_component = 0
            for component, child in node.children.items():
                count = child.count
                if count < best_count or theta not in child.tier:
                    continue
                if count > best_count or component < best_component:
                    best, best_count, best_component = child, count, component
            node = best
        victim = node.item
        self.discard(victim)
        return victim

    def discard(self, dewey: DeweyId) -> bool:
        """Drop ``dewey`` if it is kept; returns whether it was."""
        score = self._scores.pop(dewey, None)
        if score is None:
            return False
        node = self._root
        for component in dewey:
            node.count -= 1
            tier = node.tier
            left = tier[score] - 1
            if left:
                tier[score] = left
            else:
                del tier[score]
            child = node.children[component]
            if child.count == 1:
                # ``dewey`` is all that hangs here, stub or grown: unlink it.
                del node.children[component]
                break
            node = child
        if score not in self._root.tier:
            del self._unit_tiers[score]
            if self._cached_min == score:
                self._cached_min = None
        return True

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
        depth = self.depth
        deepest = -1
        ancestor_benefit = False
        node = self._root
        for level in range(depth):
            path_child = node.children.get(current[level])
            path_count = path_child.count if path_child is not None else 0
            swap_here = False        # A(level): new branch at level+1 helps
            swap_below = False       # B(level): insertions below path help
            for child in node.children.values():
                count = child.count
                if count < 2 or theta not in child.tier:
                    continue
                swap_here = True
                if child is not path_child and count >= path_count + 2:
                    swap_below = True
                    break
            if swap_here or ancestor_benefit:
                deepest = level
            ancestor_benefit = ancestor_benefit or swap_below
            if path_child is None or path_child.children is None:
                # Off the grown tree: only an ancestor's B(j') helps below.
                if ancestor_benefit:
                    deepest = depth - 1
                break
            node = path_child
        if deepest < 0:
            return None
        # The paper's nextId(current, deepest + 1, LEFT).
        tail = (current[deepest] + 1,) + (0,) * (depth - 1 - deepest)
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
        elif step is None or skip_id > step:
            # A branch-sized jump, not a plain step.  getattr tolerates
            # wrapper views (exclusion, tracing) that predate the counter.
            merged.skip_jumps = getattr(merged, "skip_jumps", 0) + 1
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
        if start is not None and (skip_id is None or skip_id > start):
            # The tied-score tier is scanned from beyond ``start`` (or not
            # at all): a Section III-D skip, not a plain step.
            merged.skip_jumps = getattr(merged, "skip_jumps", 0) + 1
        step = merged.next_onepass_scored(start, skip_id, theta)
        if step is None:
            break
        current, score = step
    return tree.scored_results()
