"""An append-only in-memory row store.

The paper stores car listings in a main-memory table (Section V-A); this is
that substrate.  Rows are immutable tuples addressed by a dense integer
*row id* (``rid``), which the index layer maps to and from Dewey IDs.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .schema import AttributeKind, Schema, SchemaError


class Relation:
    """A named relation: a :class:`Schema` plus a list of row tuples.

    Rows are addressed by a dense rid that is stable for the relation's
    lifetime; deletion is by tombstone (``delete``), so rids of later rows
    never shift.  ``len`` counts *slots* (live + deleted) because rids index
    into them; use :attr:`live_count` for the number of live rows.
    Iteration (``__iter__``) yields every slot, deleted or not — use
    :meth:`iter_live` to walk only live rows with their rids.
    """

    def __init__(self, schema: Schema, name: str = "R"):
        self._schema = schema
        self._name = name
        self._rows: list[tuple] = []
        self._deleted: set[int] = set()

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[Any] | Mapping[str, Any]],
        name: str = "R",
    ) -> "Relation":
        relation = cls(schema, name=name)
        relation.extend(rows)
        return relation

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def name(self) -> str:
        return self._name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __getitem__(self, rid: int) -> tuple:
        return self._rows[rid]

    def rows_of(self, rids: Iterable[int]) -> tuple[tuple, ...]:
        """``self[rid]`` for many rids, in one C-level pass."""
        return tuple(map(self._rows.__getitem__, rids))

    def __repr__(self) -> str:
        return f"Relation({self._name!r}, {len(self._rows)} rows, {self._schema!r})"

    @property
    def live_count(self) -> int:
        """Number of non-deleted rows."""
        return len(self._rows) - len(self._deleted)

    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> int:
        """Append one row; returns its rid."""
        coerced = self._schema.coerce_row(row)
        self._rows.append(coerced)
        return len(self._rows) - 1

    def delete(self, rid: int) -> bool:
        """Tombstone row ``rid``; returns False if already deleted.

        The slot (and every other rid) stays valid; ``scan``/``iter_live``
        and the query evaluator skip tombstoned rows.
        """
        if not 0 <= rid < len(self._rows):
            raise IndexError(f"rid {rid} out of range")
        if rid in self._deleted:
            return False
        self._deleted.add(rid)
        return True

    def is_deleted(self, rid: int) -> bool:
        return rid in self._deleted

    def deleted_rids(self) -> list[int]:
        return sorted(self._deleted)

    def iter_live(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)`` for every live row, in rid order."""
        for rid, row in enumerate(self._rows):
            if rid not in self._deleted:
                yield rid, row

    def extend(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> list[int]:
        """Append many rows (all or none); returns their rids.  List and
        tuple rows go a column at a time, a column of stored types as is."""
        rows, start, schema = list(rows), len(self._rows), self._schema
        if set(map(type, rows)) - {list, tuple} or set(map(len, rows)) - {len(schema)}:
            self._rows.extend([schema.coerce_row(row) for row in rows])
        else:
            self._rows.extend(zip(*[
                column if set(map(type, column)) <= (
                    {int, float} if attribute.kind is AttributeKind.NUMERIC else {str})
                else tuple(map(attribute.coerce, column))
                for attribute, column in zip(schema, zip(*rows))]))
        return list(range(start, len(self._rows)))

    def value(self, rid: int, attribute: str) -> Any:
        """The value of ``attribute`` in row ``rid``."""
        return self._rows[rid][self._schema.position(attribute)]

    def row_dict(self, rid: int) -> dict[str, Any]:
        """Row ``rid`` as an attribute-name -> value mapping."""
        return dict(zip(self._schema.names, self._rows[rid]))

    def scan(
        self, predicate: Callable[[tuple], bool] | None = None
    ) -> Iterator[int]:
        """Yield live rids, optionally filtered by a row predicate."""
        for rid, row in self.iter_live():
            if predicate is None or predicate(row):
                yield rid

    def distinct_values(self, attribute: str) -> list[Any]:
        """Distinct live values of ``attribute`` in first-appearance order."""
        position = self._schema.position(attribute)
        seen: dict[Any, None] = {}
        for _, row in self.iter_live():
            seen.setdefault(row[position], None)
        return list(seen)

    def project(self, attributes: Sequence[str]) -> list[tuple]:
        """All rows restricted to ``attributes`` (no dedup)."""
        positions = [self._schema.position(name) for name in attributes]
        return [tuple(row[p] for p in positions) for row in self._rows]

    def validate_attribute(self, name: str) -> None:
        """Raise ``SchemaError`` unless ``name`` is an attribute of this relation."""
        if name not in self._schema:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {name!r}"
            )
