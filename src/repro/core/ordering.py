"""Diversity orderings (Definition 1).

A diversity ordering is a total order over (a subset of) a relation's
attributes, fixed by a domain expert: in the paper's running example
``Make < Model < Color < Year < Description < Id``.  The ordering determines
the levels of the Dewey tree: level 1 distinguishes values of the first
attribute, level 2 values of the second, and so on.

The paper ends every ordering with a tuple identifier so that Dewey IDs are
unique even when two listings share all attribute values.  We make that
explicit: the Dewey depth is ``len(ordering) + 1`` and the final level is a
synthetic per-prefix ordinal (the "Id" level).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..storage.schema import Schema


class OrderingError(ValueError):
    """Raised for invalid diversity orderings."""


class DiversityOrdering:
    """A total priority order over attribute names, highest priority first."""

    def __init__(self, attributes: Iterable[str]):
        self._attributes = tuple(attributes)
        if not self._attributes:
            raise OrderingError("a diversity ordering needs at least one attribute")
        seen = set()
        for name in self._attributes:
            if name in seen:
                raise OrderingError(f"attribute {name!r} repeated in ordering")
            seen.add(name)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names, highest diversity priority first."""
        return self._attributes

    @property
    def depth(self) -> int:
        """Dewey depth: one level per attribute plus the uniqueness level."""
        return len(self._attributes) + 1

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiversityOrdering):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        chain = " < ".join(self._attributes)
        return f"DiversityOrdering({chain})"

    def attribute_at(self, level: int) -> str:
        """Attribute name at 1-based Dewey ``level``.

        The final (uniqueness) level has no attribute; asking for it raises.
        """
        if not 1 <= level <= len(self._attributes):
            raise OrderingError(
                f"level {level} has no attribute (ordering has "
                f"{len(self._attributes)} attributes + uniqueness level)"
            )
        return self._attributes[level - 1]

    def validate_against(self, schema: Schema) -> None:
        """Raise ``OrderingError`` unless every attribute exists in ``schema``."""
        for name in self._attributes:
            if name not in schema:
                raise OrderingError(
                    f"ordering attribute {name!r} not in schema {schema!r}"
                )
