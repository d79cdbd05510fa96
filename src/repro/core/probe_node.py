"""The probing data structure (Algorithm 3, plus the scored extensions).

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

Stubs: the lazy initializer
---------------------------

The paper's initializer (Algorithm 3, lines 1-8) builds, for a newly landed
``id``, one node per level from the landing level down to the leaf, and at
every level excludes the branch of ``id`` on the side the probe came from
(lines 4-6).  Every node of that spine is a pure function of
``(id, direction)``, and water-filling descends into it only when it wants
a *second* item from the same branch — which most branches never supply.

So a landing creates **one** node, a *stub*, that stands for the whole
spine: it remembers ``landed`` (the id) and ``direction``, and its
``count`` / ``tentative_count`` / ``done`` are already those of the spine's
top node.  That is all a parent's water-filling step, ``items()``,
``contains()`` and ``confirm()`` ever read or write.  A stub *grows* —
computes the edges lines 4-6 prescribe for its own level and hands
``(landed, direction)`` to one child stub a level down — the first time
:meth:`get_probe_id`, :meth:`add` or :meth:`close_frontier` needs its
frontier.  The leaf is the stub that never grows.  The grown tree is node
for node the tree the eager initializer builds
(``tests/reference_probe_node.py`` keeps that initializer as the oracle), so
every probe request, and with it Theorem 2, is unchanged.

One case needs care.  A probe may land on an id the structure already holds
(the lone match of a query answers the first LEFT and the first RIGHT
probe), and the eager ``add`` then moves an edge at *every* level of that
id's spine.  A ``MIDDLE`` stub simply takes the new direction — a spine
created ``MIDDLE`` and then advanced is the spine created with that
direction; a stub already holding the *other* side is grown down to the
leaf so each level can cross its own edges.

Before a stub has grown, ``edge_left`` / ``edge_right`` / ``next_dir`` /
``children`` are unset; white-box readers call :meth:`grow` first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .dewey import LEFT, MAX_COMPONENT, MIDDLE, RIGHT, DeweyId

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
        # Confirmed members below this node (the paper's ``numItems``).
        "count",
        "tentative_count",
        "done",
        # While a stub: the id this node was created for and the side its
        # probe came from.  ``landed`` is None once the node has grown.
        "landed",
        "direction",
        # Set by grow().
        "children",
        "edge_left",
        "edge_right",
        "next_dir",
    )

    def __init__(
        self,
        dewey: DeweyId,
        level: int,
        direction: str,
        tentative: bool = False,
    ):
        self.depth = depth = len(dewey)
        self.level = level
        self.prefix: Tuple[int, ...] = dewey[:level]
        self.landed: Optional[DeweyId] = dewey
        self.direction = direction
        self.count = 0 if tentative else 1
        self.tentative_count = 1 if tentative else 0
        self.done = level == depth

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def grow(self) -> "ProbeNode":
        """Give a stub its own frontier and one child stub (initializer
        lines 2-8 for this level).  No-op on a grown node and on a leaf;
        returns ``self`` so white-box checks can chain it."""
        dewey = self.landed
        level = self.level
        if dewey is None or level == self.depth:
            return self
        self.landed = None
        pad = self.depth - level
        self.edge_left: Optional[DeweyId] = self.prefix + (0,) * pad
        self.edge_right: Optional[DeweyId] = self.prefix + (MAX_COMPONENT,) * pad
        self.next_dir = LEFT
        direction = self.direction
        # Exclude the branch the discovering id lies in (initializer lines
        # 4-6): the opposite edge stays at the region boundary.
        self._advance(dewey, direction)
        self.children: Dict[int, ProbeNode] = {
            dewey[level]: ProbeNode(
                dewey, level + 1, direction, self.tentative_count == 1
            )
        }
        return self

    def _advance(self, dewey: DeweyId, direction: str) -> None:
        """Move the ``direction`` edge of an open frontier just past the
        branch of ``dewey`` (the paper's ``nextId(id, level + 1, dir)``) and
        probe from the other side next."""
        if not self.frontier_open():
            return
        level = self.level
        pad = self.depth - level - 1
        if direction == LEFT:
            self.edge_left = self.prefix + (dewey[level] + 1,) + (0,) * pad
            self.next_dir = RIGHT
        elif direction == RIGHT:
            # Nothing lies left of branch 0: the frontier closes.
            self.edge_right = (
                self.prefix + (dewey[level] - 1,) + (MAX_COMPONENT,) * pad
                if dewey[level]
                else None
            )
            self.next_dir = LEFT

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
        self.grow()
        self.edge_left = None
        self.edge_right = None

    def contains(self, dewey: DeweyId) -> bool:
        """Is ``dewey`` present (as member or tentative) below this node?"""
        node = self
        while node.landed is None:
            node = node.children.get(dewey[node.level])
            if node is None:
                return False
        return node.landed == dewey

    def items(self) -> List[DeweyId]:
        """All confirmed member IDs below this node, in Dewey order."""
        collected: List[DeweyId] = []
        self._collect(collected, 0)
        return collected

    def tentative_items(self) -> List[DeweyId]:
        collected: List[DeweyId] = []
        self._collect(collected, 1)
        return collected

    def _collect(self, out: List[DeweyId], tentative: int) -> None:
        if self.landed is not None:
            # A stub stands for exactly one id.
            if self.tentative_count == tentative:
                out.append(self.landed)
            return
        children = self.children
        for component in sorted(children):
            children[component]._collect(out, tentative)

    # ------------------------------------------------------------------
    # Probe selection (Algorithm 3, getProbeId)
    # ------------------------------------------------------------------
    def get_probe_id(self) -> Optional[ProbeRequest]:
        if self.landed is not None:
            if self.level == self.depth:
                if self.tentative_count:
                    return (self.landed, MIDDLE, self)
                return None
            self.grow()
        if self.done and self.tentative_count == 0:
            return None
        if self.frontier_open():
            if self.next_dir == LEFT:
                return (self.edge_left, LEFT, self)
            return (self.edge_right, RIGHT, self)
        while True:
            # Fewest confirmed items first, earliest-discovered on ties,
            # among the children that still have something to offer.
            minimum = None
            fewest = 0
            for child in self.children.values():
                if child.done and child.tentative_count == 0:
                    continue
                if minimum is None or child.count < fewest:
                    minimum = child
                    fewest = child.count
            if minimum is None:
                self.done = True
                return None
            request = minimum.get_probe_id()
            if request is not None:
                return request
            # That child just marked itself done; re-evaluate the rest.

    # ------------------------------------------------------------------
    # Insertion (Algorithm 3, add)
    # ------------------------------------------------------------------
    def add(self, dewey: DeweyId, direction: str, tentative: bool = False) -> bool:
        """Insert ``dewey`` below this node; returns True when a new leaf was
        created.  Every node on the way down that is still in its
        exploration phase has its frontier edge advanced when the insertion
        carries direction information.
        """
        directed = direction != MIDDLE
        path: List[ProbeNode] = []
        node = self
        created = False
        while True:
            if node.landed is not None:
                if node.landed == dewey:
                    # Already held: no new leaf, but a directed duplicate
                    # still advances every open frontier of its spine.
                    held = node.direction
                    if not directed or held == direction or node.level == node.depth:
                        break
                    if held == MIDDLE:
                        node.direction = direction
                        break
                    # Arriving from the other side: grow the spine to its
                    # leaf so each level can cross its own edges.
                node.grow()
            path.append(node)
            child = node.children.get(dewey[node.level])
            if child is None:
                node.children[dewey[node.level]] = ProbeNode(
                    dewey, node.level + 1, direction, tentative
                )
                created = True
                break
            node = child
        for node in path:
            if created:
                if tentative:
                    node.tentative_count += 1
                else:
                    node.count += 1
            if directed:
                node._advance(dewey, direction)
        return created

    def confirm(self, dewey: DeweyId) -> bool:
        """Promote a tentative leaf to a confirmed member (scored probing).

        Returns False if the leaf is unknown or already confirmed.
        """
        path: List[ProbeNode] = []
        node = self
        while node.landed is None:
            path.append(node)
            node = node.children.get(dewey[node.level])
            if node is None:
                return False
        if node.landed != dewey or node.tentative_count == 0:
            return False
        node.count = 1
        node.tentative_count = 0
        for node in path:
            node.count += 1
            node.tentative_count -= 1
        return True
