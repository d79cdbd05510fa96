"""Dewey ID assignment for a relation under a diversity ordering.

This is the paper's "index generation module which generates an in-memory
Dewey tree which stores the Dewey of each tuple in the base table"
(Section V-A).  Each tuple's Dewey ID has one component per ordering
attribute (its sibling number among values sharing the same prefix,
Figure 2) plus a final uniqueness component so that tuples with identical
attribute values still receive distinct IDs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from ..core.dewey import DeweyId
from ..core.ordering import DiversityOrdering
from ..storage.relation import Relation
from .dictionary import SiblingDictionary


class DeweyAssignmentError(ValueError):
    """A forced Dewey assignment conflicts with the existing tree state."""


class DeweyIndex:
    """Bidirectional rid <-> Dewey ID mapping for one relation."""

    __slots__ = (
        "_relation",
        "_ordering",
        "_positions",
        "_dictionary",
        "_uniqueness",
        "_dewey_by_rid",
        "_rid_by_dewey",
    )

    def __init__(self, relation: Relation, ordering: DiversityOrdering):
        ordering.validate_against(relation.schema)
        self._relation = relation
        self._ordering = ordering
        self._positions = [
            relation.schema.position(name) for name in ordering.attributes
        ]
        self._dictionary = SiblingDictionary()
        # Next uniqueness ordinal per full prefix, kept under its *parent*
        # (the tuple the last level's ``encode`` gets anyway) in a list by
        # last component: one key per parent, not per (near-unique) prefix.
        self._uniqueness: dict[tuple, list[int]] = {}
        self._dewey_by_rid: dict[int, DeweyId] = {}
        self._rid_by_dewey: dict[DeweyId, int] = {}

    @classmethod
    def build(cls, relation: Relation, ordering: DiversityOrdering) -> "DeweyIndex":
        """Offline bulk build: sibling numbers follow sorted value order."""
        index = cls(relation, ordering)
        keyed = sorted(
            (rid for rid, _ in relation.iter_live()),
            key=lambda rid: tuple(
                _sort_key(relation[rid][p]) for p in index._positions
            ),
        )
        for rid in keyed:
            index.add(rid)
        return index

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def ordering(self) -> DiversityOrdering:
        return self._ordering

    @property
    def depth(self) -> int:
        """Dewey depth (#ordering attributes + 1 uniqueness level)."""
        return self._ordering.depth

    def __len__(self) -> int:
        return len(self._dewey_by_rid)

    def __contains__(self, rid: int) -> bool:
        return rid in self._dewey_by_rid

    def add(self, rid: int) -> DeweyId:
        """Assign (or return the existing) Dewey ID for row ``rid``.

        Incremental: values unseen under their prefix get the next sibling
        number, exactly as an online listings feed would be indexed.
        """
        existing = self._dewey_by_rid.get(rid)
        if existing is not None:
            return existing
        row = self._relation[rid]
        encode = self._dictionary.encode
        components: list[int] = []
        for position in self._positions:
            parent = tuple(components)
            components.append(encode(parent, row[position]))
        last = components[-1]
        counts = self._uniqueness.get(parent)
        if counts is not None and last == len(counts):
            counts.append(0)  # the usual case: a new last-level sibling
        elif counts is None or last > len(counts):
            counts = self._counts(parent, last)
        components.append(counts[last])
        counts[last] += 1
        dewey = tuple(components)
        self._dewey_by_rid[rid] = dewey
        self._rid_by_dewey[dewey] = rid
        return dewey

    def peek(self, rid: int) -> DeweyId:
        """The Dewey ID :meth:`add` *would* assign to ``rid``, without
        assigning it.

        This is the write-ahead hook: the durability layer logs the
        predicted assignment before any in-memory structure mutates, then
        applies it — :meth:`add` is deterministic given the current
        dictionary and uniqueness state, so the prediction is exact.
        """
        existing = self._dewey_by_rid.get(rid)
        if existing is not None:
            return existing
        row = self._relation[rid]
        lookup = self._dictionary.lookup
        components: list[int] = []
        for position in self._positions:
            parent = tuple(components)
            number = lookup(parent, row[position])
            if number is None:
                number = self._dictionary.next_number(parent)
            components.append(number)
        counts = self._uniqueness.get(parent, ())
        last = components[-1]
        components.append(counts[last] if last < len(counts) else 0)
        return tuple(components)

    def force(self, rid: int, dewey: DeweyId) -> DeweyId:
        """Adopt a persisted assignment ``rid -> dewey`` exactly.

        The restore path (snapshot load, WAL replay): sibling-dictionary
        entries and uniqueness counters are reconstructed from the recorded
        components instead of allocated.  Inconsistencies — wrong depth,
        duplicate IDs, a value mapping to two components under one prefix —
        raise :class:`DeweyAssignmentError`.
        """
        dewey = tuple(int(component) for component in dewey)
        if len(dewey) != self.depth:
            raise DeweyAssignmentError(
                f"Dewey {dewey} has depth {len(dewey)}, expected {self.depth}"
            )
        existing = self._dewey_by_rid.get(rid)
        if existing is not None:
            if existing != dewey:
                raise DeweyAssignmentError(
                    f"rid {rid} already assigned {existing}, cannot force {dewey}"
                )
            return dewey
        if dewey in self._rid_by_dewey:
            raise DeweyAssignmentError(f"duplicate Dewey ID {dewey}")
        row = self._relation[rid]
        prefix: tuple = ()
        for position, component in zip(self._positions, dewey):
            parent = prefix
            value = row[position]
            known = self._dictionary.lookup(prefix, value)
            if known is None:
                try:
                    self._dictionary.force(prefix, value, component)
                except ValueError as error:
                    raise DeweyAssignmentError(str(error)) from None
            elif known != component:
                raise DeweyAssignmentError(
                    f"value {value!r} maps to both {known} and {component} "
                    f"under prefix {prefix}"
                )
            prefix = prefix + (component,)
        self._dewey_by_rid[rid] = dewey
        self._rid_by_dewey[dewey] = rid
        last = dewey[-2]
        counts = self._counts(parent, last)
        counts[last] = max(counts[last], dewey[-1] + 1)
        return dewey

    def _counts(self, parent: tuple, last: int) -> list[int]:
        """The uniqueness counters under ``parent``, long enough for ``last``."""
        counts = self._uniqueness.setdefault(parent, [])
        if last >= len(counts):
            counts.extend([0] * (last + 1 - len(counts)))
        return counts

    def remove(self, rid: int) -> Optional[DeweyId]:
        """Forget row ``rid``'s Dewey ID (tombstoned listing); returns it.

        Sibling dictionary entries are retained — re-inserting the same
        values later reuses the same components, keeping old snapshots and
        logs meaningful.
        """
        dewey = self._dewey_by_rid.pop(rid, None)
        if dewey is not None:
            del self._rid_by_dewey[dewey]
        return dewey

    def dewey_of(self, rid: int) -> DeweyId:
        try:
            return self._dewey_by_rid[rid]
        except KeyError:
            raise KeyError(f"rid {rid} not indexed") from None

    def rid_of(self, dewey: DeweyId) -> int:
        try:
            return self._rid_by_dewey[dewey]
        except KeyError:
            raise KeyError(f"no tuple with Dewey ID {dewey}") from None

    def rids_of(self, deweys: Iterable[DeweyId]) -> tuple[int, ...]:
        """:meth:`rid_of` for many Dewey IDs, in one C-level pass."""
        try:
            return tuple(map(self._rid_by_dewey.__getitem__, deweys))
        except KeyError as missing:
            raise KeyError(f"no tuple with Dewey ID {missing.args[0]}") from None

    def all_deweys(self) -> list[DeweyId]:
        """All assigned Dewey IDs in document order."""
        return sorted(self._rid_by_dewey)

    def iter_rids(self) -> Iterator[int]:
        return iter(self._dewey_by_rid)

    def component_of(self, attribute: str, prefix_values: tuple, value: Any) -> Optional[int]:
        """Sibling number of ``value`` for ``attribute`` under the given
        *value* prefix (values of all higher-priority attributes), or ``None``
        if that value never occurred there.  Mostly a testing/debugging aid.
        """
        level = self._ordering.level_of(attribute)
        if len(prefix_values) != level - 1:
            raise ValueError(
                f"attribute {attribute!r} is at level {level}; expected "
                f"{level - 1} prefix values, got {len(prefix_values)}"
            )
        prefix: tuple = ()
        for depth, prefix_value in enumerate(prefix_values):
            number = self._dictionary.lookup(prefix, prefix_value)
            if number is None:
                return None
            prefix = prefix + (number,)
        return self._dictionary.lookup(prefix, value)

    def values_of(self, dewey: DeweyId) -> tuple:
        """Decode a Dewey ID back to its ordering-attribute values."""
        values = []
        prefix: tuple = ()
        for component in dewey[: len(self._positions)]:
            values.append(self._dictionary.decode(prefix, component))
            prefix = prefix + (component,)
        return tuple(values)

    def fanout(self, prefix: tuple) -> int:
        """Number of distinct children under a Dewey *component* prefix."""
        return self._dictionary.fanout(prefix)


def _sort_key(value: Any) -> tuple:
    """Type-tagged sort key so mixed int/str columns never raise."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
