"""Diverse pagination: page 2 and beyond.

Online shopping result pages are paginated.  Naively re-running a diverse
top-k per page would repeat page 1's answers (a diverse set stays diverse),
so the paginator *excludes* everything already shown and asks for the next
diverse k among the remaining answers — each page is maximally diverse for
the inventory the user has not seen yet, and pages never overlap.

Implementation: the probing/one-pass engines run over a merged list wrapped
with an exclusion set (the shown items).  Exclusion preserves the cursor
contract (``next`` still returns the nearest *unshown* match), so the
algorithms and their guarantees apply unchanged; only the result universe
shrinks per page — exactly Definition 2 over ``RES(R, Q) minus shown``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Set, Union

from ..index.merged import MergedList
from ..query.parser import parse_query
from ..query.query import Query
from .dewey import LEFT, RIGHT, DeweyId, predecessor, successor
from .engine import DiversityEngine
from .onepass import one_pass_unscored
from .probing import probe_unscored
from .result import DiverseResult


class ExcludingMergedList:
    """A merged-list view that hides an exclusion set.

    Delegates to the underlying :class:`MergedList` and steps over excluded
    IDs, so the diversity algorithms see ``RES(R,Q) \\ excluded``.
    """

    def __init__(self, merged: MergedList, excluded: Set[DeweyId]):
        self._merged = merged
        self._excluded = excluded

    @property
    def depth(self) -> int:
        return self._merged.depth

    @property
    def next_calls(self) -> int:
        return self._merged.next_calls

    @property
    def scored_next_calls(self) -> int:
        return self._merged.scored_next_calls

    @property
    def skip_jumps(self) -> int:
        return self._merged.skip_jumps

    @skip_jumps.setter
    def skip_jumps(self, value: int) -> None:
        self._merged.skip_jumps = value

    def next(self, bound: DeweyId, direction: str = LEFT) -> Optional[DeweyId]:
        current = bound
        while True:
            found = self._merged.next(current, direction)
            if found is None or found not in self._excluded:
                return found
            if direction == LEFT:
                current = successor(found)
            else:
                current = predecessor(found)
                if current is None:
                    return None

    def first(self) -> Optional[DeweyId]:
        return self.next((0,) * self.depth, LEFT)

    def contains(self, dewey: DeweyId) -> bool:
        return dewey not in self._excluded and self._merged.contains(dewey)

    def score(self, dewey: DeweyId) -> float:
        return self._merged.score(dewey)


class DiversePaginator:
    """Iterates diverse, non-overlapping result pages for one query."""

    def __init__(
        self,
        engine: DiversityEngine,
        query: Union[Query, str],
        page_size: int,
        algorithm: str = "probe",
        shown: Optional[Iterable[DeweyId]] = None,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if algorithm not in ("probe", "onepass"):
            raise ValueError("paginator supports 'probe' and 'onepass'")
        if isinstance(query, str):
            query = parse_query(query)
        self._engine = engine
        self._query = query
        self._page_size = page_size
        self._algorithm = algorithm
        # ``shown`` seeds the exclusion set: a paginator resumed at page N
        # (the serving cache holds pages 1..N-1) skips exactly the items
        # those pages displayed, so resumed and from-scratch pagination
        # yield identical pages.
        self._shown: Set[DeweyId] = set(shown) if shown is not None else set()
        self._exhausted = False

    def next_page(self) -> DiverseResult:
        """The next diverse page (empty once results run out)."""
        if self._exhausted:
            return DiverseResult.package(self._engine.index, (), None,
                                         self._page_size, self._algorithm,
                                         False, {})
        merged = MergedList(self._query, self._engine.index)
        view = ExcludingMergedList(merged, self._shown)
        if self._algorithm == "probe":
            deweys = probe_unscored(view, self._page_size)
        else:
            deweys = one_pass_unscored(view, self._page_size)
        if len(deweys) < self._page_size:
            self._exhausted = True
        self._shown.update(deweys)
        return DiverseResult.package(
            self._engine.index, deweys, None, self._page_size,
            self._algorithm, False,
            {"next_calls": merged.next_calls,
             "scored_next_calls": merged.scored_next_calls})

    def pages(self, limit: Optional[int] = None) -> Iterator[DiverseResult]:
        """Yield pages until the results run out (or ``limit`` pages)."""
        produced = 0
        while limit is None or produced < limit:
            page = self.next_page()
            if not page.items:
                return
            yield page
            produced += 1
            if self._exhausted:
                return

    def reset(self) -> None:
        """Forget shown items; the next page is page 1 again."""
        self._shown.clear()
        self._exhausted = False
