"""Test oracle: the *eager* probing structure, as it stood before
``repro.core.probe_node`` went lazy — the paper's initializer taken
literally, one node per level for every landed id.  Kept verbatim (only the
import path changed) so ``test_probe_lazy.py`` can drive both structures
with the same index and demand identical probes, answers and counts.

The original module docstring follows.

The probing data structure (Algorithm 3, plus the scored extensions).

Each :class:`ProbeNode` covers one Dewey-tree region (a prefix).  While a
node's *frontier* is open (``edge[LEFT] <= edge[RIGHT]``), the unexplored gap
between its edges is probed bidirectionally, alternating sides; once the
edges cross, the node is fully branch-discovered and further probes are
steered to the child with the fewest items (the water-filling phase).

Invariants (Section IV-A):

* whenever ``id`` is in a node's region, it is either inside one of the
  node's children or between ``edge[LEFT]`` and ``edge[RIGHT]``;
* a probe ``(probeId, dir)`` issued by a node returns an id inside that
  node — *except* when the gap holds no matches, which the paper's
  pseudocode leaves to its full version; the driver then closes the frontier
  explicitly (:meth:`close_frontier`) and re-probes.

Scored extensions (Section IV-B): items inserted with direction ``MIDDLE``
carry no frontier information, and frontier probes that land inside an
already-populated branch are cached as *tentative* — they are only
*confirmed* (counted) when the min-child descent later proves them helpful.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.dewey import (
    LEFT,
    MIDDLE,
    RIGHT,
    DeweyId,
    next_id,
    region_bounds,
    toggle,
)

#: A probe request: (id to pass to ``mergedList.next``, direction, the node
#: that issued it — needed to close the frontier on an empty gap, and
#: ``None`` direction-MIDDLE probes confirm the id without any index call).
ProbeRequest = Tuple[DeweyId, str, "ProbeNode"]


class ProbeNode:
    """One node of the probing structure."""

    __slots__ = (
        "prefix",
        "level",
        "depth",
        "children",
        "count",
        "tentative_count",
        "edge_left",
        "edge_right",
        "next_dir",
        "done",
        "is_tentative",
    )

    def __init__(
        self,
        dewey: DeweyId,
        level: int,
        direction: str,
        tentative: bool = False,
    ):
        self.depth = len(dewey)
        self.level = level
        self.prefix: Tuple[int, ...] = dewey[:level]
        self.children: Dict[int, ProbeNode] = {}
        self.is_tentative = False
        if level == self.depth:
            # Leaf: one concrete tuple.
            self.count = 0 if tentative else 1
            self.tentative_count = 1 if tentative else 0
            self.is_tentative = tentative
            self.edge_left = None
            self.edge_right = None
            self.next_dir = LEFT
            self.done = True
            return
        low, high = region_bounds(self.prefix, self.depth)
        self.edge_left: Optional[DeweyId] = low
        self.edge_right: Optional[DeweyId] = high
        if direction in (LEFT, RIGHT):
            # Exclude the branch the discovering id lies in (initializer
            # lines 4-6): the opposite edge stays at the region boundary.
            if direction == LEFT:
                self.edge_left = next_id(dewey, level + 1, LEFT)
            else:
                self.edge_right = next_id(dewey, level + 1, RIGHT)
            self.next_dir = toggle(direction)
        else:
            self.next_dir = LEFT
        self.done = False
        child = ProbeNode(dewey, level + 1, direction, tentative=tentative)
        self.children[dewey[level]] = child
        self.count = child.count
        self.tentative_count = child.tentative_count

    # ------------------------------------------------------------------
    # State queries
    # ------------------------------------------------------------------
    def frontier_open(self) -> bool:
        return (
            self.edge_left is not None
            and self.edge_right is not None
            and self.edge_left <= self.edge_right
        )

    def close_frontier(self) -> None:
        """Force phase 2: called by the driver when a frontier probe proved
        the unexplored gap holds no (eligible) matches."""
        self.edge_left = None
        self.edge_right = None

    def num_items(self) -> int:
        """Confirmed members below this node (the paper's ``numItems``)."""
        return self.count

    def contains(self, dewey: DeweyId) -> bool:
        """Is ``dewey`` present (as member or tentative) below this node?"""
        node = self
        for level in range(self.level, len(dewey)):
            child = node.children.get(dewey[level])
            if child is None:
                return False
            node = child
        return True

    def items(self) -> List[DeweyId]:
        """All confirmed member IDs below this node, in Dewey order."""
        collected: List[DeweyId] = []
        self._collect(self.prefix, collected, tentative=False)
        return collected

    def tentative_items(self) -> List[DeweyId]:
        collected: List[DeweyId] = []
        self._collect(self.prefix, collected, tentative=True)
        return collected

    def _collect(
        self, path: Tuple[int, ...], out: List[DeweyId], tentative: bool
    ) -> None:
        if self.level == self.depth:
            if self.is_tentative == tentative:
                out.append(path)
            return
        for component in sorted(self.children):
            self.children[component]._collect(
                path + (component,), out, tentative
            )

    # ------------------------------------------------------------------
    # Probe selection (Algorithm 3, getProbeId)
    # ------------------------------------------------------------------
    def get_probe_id(self) -> Optional[ProbeRequest]:
        if self.level == self.depth:
            if self.is_tentative:
                return (self.prefix, MIDDLE, self)
            return None
        if self.done and self.tentative_count == 0:
            return None
        if self.frontier_open():
            if self.next_dir == LEFT:
                return (self.edge_left, LEFT, self)
            return (self.edge_right, RIGHT, self)
        while True:
            candidates = [
                child for child in self.children.values() if not child.exhausted()
            ]
            if not candidates:
                self.done = True
                return None
            minimum = min(candidates, key=_min_child_key)
            request = minimum.get_probe_id()
            if request is not None:
                return request
            # That child just marked itself done; re-evaluate the rest.

    def exhausted(self) -> bool:
        """Nothing left to offer: no open frontier, no live children, and no
        tentative items awaiting confirmation."""
        if self.level == self.depth:
            return not self.is_tentative
        if self.done:
            return self.tentative_count == 0
        return False

    # ------------------------------------------------------------------
    # Insertion (Algorithm 3, add)
    # ------------------------------------------------------------------
    def add(self, dewey: DeweyId, direction: str, tentative: bool = False) -> bool:
        """Insert ``dewey`` below this node; returns True when a new leaf was
        created.  Updates this node's frontier edges when it is still in its
        exploration phase and the insertion carries direction information.
        """
        if self.level == self.depth:
            return False
        component = dewey[self.level]
        child = self.children.get(component)
        if child is not None:
            created = child.add(dewey, direction, tentative=tentative)
            if created:
                self.count += 0 if tentative else 1
                self.tentative_count += 1 if tentative else 0
        else:
            child = ProbeNode(dewey, self.level + 1, direction, tentative=tentative)
            self.children[component] = child
            self.count += child.count
            self.tentative_count += child.tentative_count
            created = True
        if direction in (LEFT, RIGHT) and self.frontier_open():
            if direction == LEFT:
                self.edge_left = next_id(dewey, self.level + 1, LEFT)
            else:
                self.edge_right = next_id(dewey, self.level + 1, RIGHT)
            self.next_dir = toggle(direction)
        return created

    def confirm(self, dewey: DeweyId) -> bool:
        """Promote a tentative leaf to a confirmed member (scored probing).

        Returns False if the leaf is unknown or already confirmed.
        """
        if self.level == self.depth:
            if not self.is_tentative:
                return False
            self.is_tentative = False
            self.count = 1
            self.tentative_count = 0
            return True
        child = self.children.get(dewey[self.level])
        if child is None:
            return False
        promoted = child.confirm(dewey)
        if promoted:
            self.count += 1
            self.tentative_count -= 1
        return promoted


def _min_child_key(node: ProbeNode) -> Tuple[int, int]:
    """Fewest confirmed items first; prefer children that still have frontier
    or tentative material on ties (smaller prefix as final tie-break is
    implicit in dict iteration being keyed later by min())."""
    return (node.count, 0 if node.tentative_count or not node.done else 1)
