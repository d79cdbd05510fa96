"""Result objects returned by the engine.

An answer is packaged as columns (Dewey IDs, rids, scores, captured row
tuples), which is all most callers read; :class:`ResultItem` objects are
built from them on first access, once per answer (see :class:`_Columns`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from .dewey import DeweyId


class ResultItem:
    """One answer tuple: its Dewey ID, rid, score and captured row.
    ``values`` is a fresh dict per access, so no caller can change what
    another reader of a shared item sees; ``_json`` is its HTTP encoding."""

    __slots__ = ("dewey", "rid", "row", "names", "score", "_json")

    def __init__(self, dewey: DeweyId, rid: int, row: tuple,
                 names: Tuple[str, ...], score: Optional[float] = None):
        self.dewey = dewey
        self.rid = rid
        self.row = row
        self.names = names
        self.score = score
        self._json = None

    @property
    def values(self) -> Dict[str, Any]:
        return dict(zip(self.names, self.row))

    def __getitem__(self, attribute: str) -> Any:
        return self.values[attribute]

    def __repr__(self) -> str:
        return f"ResultItem({self.dewey!r}, rid={self.rid}, {self.values!r})"


class _Columns:
    """One packaged answer, shared by every result served from it.
    ``body`` is the server's ``(query text, bytes)`` of a hit on it."""

    __slots__ = ("deweys", "rids", "scores", "rows", "names", "items", "body")

    def __init__(self, *columns):
        self.deweys, self.rids, self.scores, self.rows, self.names = columns
        self.items = None  # the ResultItem tuple, built on first read
        self.body = None


class DiverseResult:
    """A diverse top-k answer plus execution statistics.

    ``stats`` includes at least ``next_calls`` and ``scored_next_calls``
    (probe counts into the merged list); MultQ adds ``queries_issued``.
    Build one with :meth:`package`; :meth:`share` re-serves it.
    """

    __slots__ = ("k", "algorithm", "scored", "stats", "_columns", "_items")

    def __init__(self, columns: _Columns, k: int, algorithm: str,
                 scored: bool, stats: Dict[str, int]):
        self.k, self.algorithm, self.scored, self.stats = k, algorithm, scored, stats
        self._columns, self._items = columns, None

    @classmethod
    def package(cls, index, deweys, scores: Optional[Dict[DeweyId, float]],
                k: int, algorithm: str, scored: bool,
                stats: Dict[str, int]) -> "DiverseResult":
        """The answer ``deweys`` over ``index`` (a scored answer by
        descending score, then document order).  Rids resolve now, because a
        later delete drops the Dewey mapping; row tuples are captured now,
        and never go stale: rows are immutable, the relation append-only."""
        if scored:
            get = (scores or {}).get
            deweys = sorted(deweys, key=lambda dewey: (-(get(dewey) or 0.0), dewey))
        deweys = tuple(deweys)
        relation = index.relation
        rids = index.dewey.rids_of(deweys)
        columns = _Columns(
            deweys, rids,
            tuple(map(scores.get, deweys)) if scores is not None
            else (None,) * len(deweys),
            relation.rows_of(rids), relation.schema.names)
        return cls(columns, k, algorithm, scored, stats)

    def share(self, stats: Dict[str, int]) -> "DiverseResult":
        """This answer under its own ``stats`` and items list; the columns
        and item objects are shared, never rebuilt."""
        return DiverseResult(self._columns, self.k, self.algorithm,
                             self.scored, stats)

    @property
    def items(self) -> List[ResultItem]:
        if self._items is None:
            columns = self._columns
            if columns.items is None:
                columns.items = tuple(map(
                    ResultItem, columns.deweys, columns.rids, columns.rows,
                    repeat(columns.names), columns.scores))
            self._items = list(columns.items)
        return self._items

    def __len__(self) -> int:
        return len(self._columns.deweys)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index: int) -> ResultItem:
        return self.items[index]

    @property
    def deweys(self) -> List[DeweyId]:
        return list(self._columns.deweys)

    @property
    def rids(self) -> List[int]:
        return list(self._columns.rids)

    @property
    def scores(self) -> List[Optional[float]]:
        return list(self._columns.scores)

    def rows(self) -> List[Dict[str, Any]]:
        names = self._columns.names
        return [dict(zip(names, row)) for row in self._columns.rows]

    def to_table(self, attributes: Optional[List[str]] = None) -> str:
        """Render as a small aligned text table (for examples / demos)."""
        if not len(self):
            return "(no results)"
        header = list(self._columns.names if attributes is None else attributes)
        rows = [[str(values[a]) for a in header] for values in self.rows()]
        if self.scored:
            for row, score in zip(rows, self._columns.scores):
                row.append(f"{score:g}" if score is not None else "-")
            header.append("score")
        widths = [max(len(header[i]), *(len(row[i]) for row in rows))
                  for i in range(len(header))]
        lines = [header, ["-" * width for width in widths], *rows]
        return "\n".join(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            for line in lines)
