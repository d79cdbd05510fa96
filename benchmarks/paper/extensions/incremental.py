"""Live diverse views: keep a diverse top-k current as listings arrive.

Online marketplaces ingest listings continuously.  Instead of re-running a
diverse top-k on every page view, a :class:`DiverseView` subscribes to the
insert stream and maintains the answer incrementally, reusing the one-pass
maintenance structure (:class:`~repro.core.onepass.OnePassTree`): each
matching insert is an ``add``; once the view holds k items, an ``add`` is
followed by the eviction of the most redundant minimum-score leaf — the
same exchange step that makes the one-pass scan correct, so the view is
always a maximally diverse (scored-diverse) top-k of every matching tuple
ever offered to it.

The view's universe is *its own insert stream* (everything offered since
creation or :meth:`refresh`); `refresh()` re-seeds from the engine's index
so a view can also track an existing relation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.baselines import collect_all, collect_all_scored
from repro.core.dewey import DeweyId
from repro.core.engine import DiversityEngine
from repro.core.onepass import OnePassTree
from repro.core.result import DiverseResult, ResultItem
from repro.index.merged import MergedList
from repro.query.parser import parse_query
from repro.query.query import Query


class DiverseView:
    """An incrementally maintained diverse top-k for one query."""

    def __init__(
        self,
        engine: DiversityEngine,
        query: Union[Query, str],
        k: int,
        scored: bool = False,
    ):
        if k <= 0:
            raise ValueError("k must be positive")
        if isinstance(query, str):
            query = parse_query(query)
        self._engine = engine
        self._query = query
        self._k = k
        self._scored = scored
        self.refresh()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def offer_row(self, row: Union[Mapping[str, Any], tuple, list]) -> Optional[int]:
        """Insert a new listing into the relation + index, then offer it to
        the view.  Returns the new rid, or ``None`` if it did not match the
        view's query."""
        relation = self._engine.relation
        rid = relation.insert(row)
        self._engine.index.insert(rid)
        return rid if self.offer_rid(rid) else None

    def offer_rid(self, rid: int) -> bool:
        """Offer an already indexed row; returns True if it matched (and was
        therefore considered, though it may have been evicted again)."""
        relation = self._engine.relation
        mapping = relation.row_dict(rid)
        if not self._query.matches(mapping):
            return False
        dewey = self._engine.index.dewey.dewey_of(rid)
        self._take(dewey, self._query.score(mapping) if self._scored else 0.0)
        return True

    def _take(self, dewey: DeweyId, score: float) -> None:
        """The one-pass exchange step: add, then evict if over k."""
        self._offered += 1
        self._tree.add(dewey, score)
        if self._tree.num_items() > self._k:
            self._tree.remove()

    def retract_rid(self, rid: int) -> bool:
        """Drop a (deleted) row from the view if it is currently shown.

        Returns True when the view shrank; the caller decides whether to
        :meth:`refresh` (rescan to refill the freed slot) or leave the page
        one item short until the next natural update.
        """
        try:
            dewey = self._engine.index.dewey.dewey_of(rid)
        except KeyError:
            # Already unindexed: fall back to matching by reconstruction.
            return False
        return self.retract_dewey(dewey)

    def retract_dewey(self, dewey: DeweyId) -> bool:
        """Drop a shown Dewey ID from the view (see :meth:`retract_rid`)."""
        return self._tree.discard(dewey)

    def refresh(self) -> None:
        """Rebuild the view from the engine's current index contents."""
        self._tree = OnePassTree(self._engine.index.depth, self._k)
        self._offered = 0
        merged = MergedList(self._query, self._engine.index)
        matches = (collect_all_scored(merged) if self._scored
                   else dict.fromkeys(collect_all(merged), 0.0))
        for dewey, score in matches.items():
            self._take(dewey, score)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def offered(self) -> int:
        """Matching tuples seen since the last refresh."""
        return self._offered

    def __len__(self) -> int:
        return self._tree.num_items()

    def deweys(self) -> List[DeweyId]:
        return self._tree.results()

    def scores(self) -> Dict[DeweyId, float]:
        return self._tree.scored_results()

    def items(self) -> List[ResultItem]:
        scores = self._tree.scored_results() if self._scored else None
        return DiverseResult.package(
            self._engine.index, self._tree.results(), scores, self._k,
            "incremental", False, {}).items
