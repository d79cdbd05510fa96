"""Probing algorithm drivers (Section IV, Algorithms 2 and 4).

Unlike the one-pass scan, probing never retrieves an item it will later
throw away: every ``next`` call is aimed either at an unexplored frontier
gap or at the subtree currently holding the fewest answers, so the unscored
algorithm needs at most ~2k probes (Theorem 2, asserted in the tests).

The scored driver first runs WAND to learn the top-k score threshold
``theta``; items scoring strictly above ``theta`` are inserted with
direction MIDDLE (they are unconditional members but tell us nothing about
explored regions), and the remaining slots are filled by probing the
``score >= theta`` space, caching landings in already-populated branches as
*tentative* until the min-child descent proves them helpful (Section IV-B).
"""

from __future__ import annotations

from typing import Dict, List

from ..index.merged import MergedList
from ..index.wand import wand_topk
from .dewey import LEFT, MIDDLE, DeweyId, zeros
from .probe_node import ProbeNode


def _budget(k: int, depth: int) -> int:
    """Loop-iteration ceiling for the probing drivers.

    The algorithms terminate in ~2k probes plus bounded frontier-closure
    and edge-progress steps; this generous ceiling exists only so that an
    invariant violation fails loudly (RuntimeError) instead of hanging.
    """
    return 64 * (k + 4) * (depth + 4)


def probe_unscored(merged: MergedList, k: int) -> List[DeweyId]:
    """Algorithm 2: bidirectional probing, unscored."""
    if k <= 0:
        return []
    first = merged.next(zeros(merged.depth), LEFT)
    if first is None:
        return []
    root = ProbeNode(first, 0, LEFT)
    remaining = _budget(k, merged.depth)
    while root.count < k:
        remaining -= 1
        if remaining < 0:
            raise RuntimeError(
                "probing exceeded its iteration budget — data-structure "
                "invariant violation; please report this query"
            )
        request = root.get_probe_id()
        if request is None:
            break
        probe_id, direction, owner = request
        found = merged.next(probe_id, direction)
        if found is None or found[: owner.level] != owner.prefix:
            # The unexplored gap holds no matches (the case the paper defers
            # to its full version): close it and re-probe elsewhere.
            owner.close_frontier()
            continue
        root.add(found, direction)
    return root.items()


def probe_scored(merged: MergedList, k: int) -> Dict[DeweyId, float]:
    """Algorithm 4: scored probing; returns ``{dewey: score}``."""
    if k <= 0:
        return {}
    top = wand_topk(merged, k)
    if not top:
        return {}
    if len(top) < k:
        # Fewer matches than requested: the answer is everything.
        return dict(top)
    theta = top[-1][1]
    scores: Dict[DeweyId, float] = {}
    max_dewey, max_score = top[0]
    root = ProbeNode(max_dewey, 0, MIDDLE)
    scores[max_dewey] = max_score
    for dewey, score in top[1:]:
        if score > theta:
            root.add(dewey, MIDDLE)
            scores[dewey] = score
    pending: Dict[DeweyId, float] = {}
    remaining = _budget(k, merged.depth)
    while root.count < k:
        remaining -= 1
        if remaining < 0:
            raise RuntimeError(
                "scored probing exceeded its iteration budget — "
                "data-structure invariant violation; please report this query"
            )
        request = root.get_probe_id()
        if request is None:
            break
        probe_id, direction, owner = request
        if direction == MIDDLE:
            # A cached tentative item became helpful: no index work needed.
            if root.confirm(probe_id):
                scores[probe_id] = pending.pop(probe_id, theta)
            continue
        found = merged.next_scored(probe_id, direction, theta)
        if found is None or found[: owner.level] != owner.prefix:
            owner.close_frontier()
            continue
        if root.contains(found):
            # Duplicate (e.g. a WAND member): still advances the frontier.
            root.add(found, direction)
            continue
        branch = owner.children.get(found[owner.level])
        if branch is not None and branch.count > 0:
            # Landing in a branch that already holds members may hurt
            # diversity (Section IV-B): cache as tentative.
            pending[found] = merged.score(found)
            root.add(found, direction, tentative=True)
        else:
            root.add(found, direction)
            scores[found] = merged.score(found)
    return {dewey: scores[dewey] for dewey in root.items()}
