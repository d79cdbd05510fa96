"""Per-level sibling dictionaries for Dewey assignment.

Figure 2 of the paper assigns "a distinct integer identifier to each value in
an attribute", re-initialising the numbering at 0 for each parent: the Dewey
component of a value is its sibling number *within its prefix*.  A
:class:`SiblingDictionary` owns that mapping for one tree: for every prefix
(a tuple of parent components) it maps child values to dense ints and back.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional


class SiblingDictionary:
    """value <-> sibling-number maps, keyed by parent Dewey prefix."""

    __slots__ = ("_forward", "_reverse")

    def __init__(self):
        self._forward: dict[tuple, dict[Hashable, int]] = {}
        self._reverse: dict[tuple, list[Hashable]] = {}

    def encode(self, prefix: tuple, value: Hashable) -> int:
        """Sibling number of ``value`` under ``prefix``, allocating if new.

        New numbers come from the *reverse* table length, not the forward
        count: a restored dictionary (snapshot load, WAL replay) may hold
        gaps where a deleted row's value was forgotten, and those sibling
        numbers must never be reissued to a different value.
        """
        children, values = self.children(prefix)
        number = children.get(value)
        if number is None:
            number = children[value] = len(values)
            values.append(value)
        return number

    def lookup(self, prefix: tuple, value: Hashable) -> Optional[int]:
        """Sibling number of ``value`` under ``prefix`` or ``None`` if unseen."""
        children = self._forward.get(prefix)
        if children is None:
            return None
        return children.get(value)

    def decode(self, prefix: tuple, number: int) -> Any:
        """The value with sibling ``number`` under ``prefix``."""
        values = self._reverse.get(prefix)
        if values is None or not 0 <= number < len(values):
            raise KeyError(f"no sibling {number} under prefix {prefix}")
        return values[number]

    def children(self, prefix: tuple) -> tuple[dict, list]:
        """``prefix``'s value -> number dict and number -> value list
        (``None`` at a forgotten sibling), registered empty if new."""
        children = self._forward.get(prefix)
        if children is None:
            children = self._forward[prefix] = {}
            self._reverse[prefix] = []
        return children, self._reverse[prefix]

    def next_number(self, prefix: tuple) -> int:
        """The sibling number :meth:`encode` would allocate to a new value."""
        values = self._reverse.get(prefix)
        return len(values) if values is not None else 0
