"""Dewey ID assignment for a relation under a diversity ordering.

This is the paper's "index generation module which generates an in-memory
Dewey tree which stores the Dewey of each tuple in the base table"
(Section V-A).  Each tuple's Dewey ID has one component per ordering
attribute (its sibling number among values sharing the same prefix,
Figure 2) plus a final uniqueness component so that tuples with identical
attribute values still receive distinct IDs.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import itemgetter, lt
from typing import Any, Iterable, Iterator, Optional

from ..core.dewey import DeweyId
from ..core.ordering import DiversityOrdering
from ..storage.relation import Relation
from .dictionary import SiblingDictionary


class DeweyAssignmentError(ValueError):
    """A persisted Dewey table contradicts itself or its rows."""


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
        "_in_order",
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
        self._in_order = False  # ``_rid_by_dewey`` is in document order

    @classmethod
    def build(cls, relation: Relation, ordering: DiversityOrdering) -> "DeweyIndex":
        """Offline bulk build (Section V-A): live rows sorted once by their
        ordering values (ties in rid order), numbered by one :meth:`_walk`
        exactly as :meth:`add` would number them in that order."""
        index = cls(relation, ordering)
        rids = [rid for rid, _ in relation.iter_live()]
        rows = relation.rows_of(rids)
        columns = [list(map(itemgetter(p), rows)) for p in index._positions]
        sortable = [column if _raw_sortable(column) else list(map(_sort_key, column))
                    for column in columns]
        keys = list(zip(*sortable))
        values = keys if sortable == columns else list(zip(*columns))
        order = sorted(range(len(rids)), key=keys.__getitem__)
        index._walk(list(map(rids.__getitem__, order)),
                    list(map(values.__getitem__, order)))
        return index

    @classmethod
    def restore(
        cls, relation: Relation, ordering: DiversityOrdering, assignments: dict
    ) -> "DeweyIndex":
        """Adopt a persisted ``rid -> Dewey ID`` table exactly (the restore
        path): sorted once, then adopted by one :meth:`_walk`.  A rid
        outside the relation raises :class:`DeweyAssignmentError`."""
        index = cls(relation, ordering)
        low, high = min(assignments, default=0), max(assignments, default=-1)
        if low < 0 or high >= len(relation):
            raise DeweyAssignmentError(
                f"Dewey table references unknown rid {low if low < 0 else high}")
        pairs = sorted(assignments.items(), key=itemgetter(1))
        rids = list(map(itemgetter(0), pairs))
        rows = relation.rows_of(rids)
        index._walk(rids, list(zip(*(map(itemgetter(p), rows) for p in index._positions))),
                    list(map(itemgetter(1), pairs)))
        return index

    def _walk(self, rids: list[int], values: list[tuple],
              adopted: Optional[list[DeweyId]] = None) -> None:
        """Number rows in document order from the first level whose value
        (or adopted component) differs from the previous row's: a value new
        under its parent takes the next sibling number (or the ``adopted``
        one, ``None`` filling skipped slots), a row the next ordinal; a known
        value keeps its number (in a build, only where sort order and
        equality disagree, as for NaN).  Adopting refuses a bad depth or
        component, a duplicate ID, and values not one-to-one with components."""
        levels = len(self._positions)
        children = self._dictionary.children
        prefixes: list[tuple] = [()] * (levels + 1)
        deweys = [] if adopted is None else adopted
        previous = before = (object(),) * (levels + 1)  # equal to nothing
        counts: list[int] = []
        for row, dewey in zip(values, adopted or repeat(None)):
            if dewey is not None and (
                    dewey == before or len(dewey) != levels + 1 or min(dewey) < 0):
                raise DeweyAssignmentError(
                    f"duplicate Dewey ID {dewey}" if dewey == before else
                    f"Dewey {dewey} has a negative component or not depth {levels + 1}")
            level = 0
            while level < levels and row[level] == previous[level] and (
                    dewey is None or dewey[level] == before[level]):
                level += 1
            for depth in range(level, levels):
                forward, reverse = children(prefixes[depth])
                value = row[depth]
                number = forward.get(value)
                if number is None:
                    number = len(reverse) if dewey is None else dewey[depth]
                    if number < len(reverse):
                        raise DeweyAssignmentError(
                            f"sibling {number} under prefix {prefixes[depth]} "
                            f"assigned to both {reverse[number]!r} and {value!r}")
                    reverse.extend([None] * (number - len(reverse)))
                    reverse.append(value)
                    forward[value] = number
                elif dewey is not None and number != dewey[depth]:
                    raise DeweyAssignmentError(
                        f"value {value!r} maps to both {number} and "
                        f"{dewey[depth]} under prefix {prefixes[depth]}")
                prefixes[depth + 1] = prefixes[depth] + (number,)
            if level < levels - 1 or not counts:
                counts = self._uniqueness.setdefault(prefixes[-2], [])
            last = prefixes[-1][-1]
            if last >= len(counts):
                counts.extend([0] * (last + 1 - len(counts)))
            if dewey is None:
                dewey = prefixes[-1] + (counts[last],)
                deweys.append(dewey)
            counts[last] = dewey[-1] + 1  # adopted IDs come sorted: this is the max
            previous, before = row, dewey
        self._dewey_by_rid = dict(zip(rids, deweys))
        self._rid_by_dewey = dict(zip(deweys, rids))
        self._in_order = all(map(lt, deweys, islice(deweys, 1, None)))

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
        counts = self._uniqueness.setdefault(parent, [])
        if last >= len(counts):
            counts.extend([0] * (last + 1 - len(counts)))
        components.append(counts[last])
        counts[last] += 1
        dewey = tuple(components)
        self._dewey_by_rid[rid] = dewey
        self._rid_by_dewey[dewey] = rid
        self._in_order = False
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
            components.append(
                self._dictionary.next_number(parent) if number is None else number)
        counts = self._uniqueness.get(parent, ())
        last = components[-1]
        components.append(counts[last] if last < len(counts) else 0)
        return tuple(components)

    def remove(self, rid: int) -> Optional[DeweyId]:
        """Forget row ``rid``'s Dewey ID (tombstoned listing); returns it.

        Sibling dictionary entries are retained — re-inserting the same
        values later reuses the same components, keeping old snapshots and
        logs meaningful.
        """
        dewey = self._dewey_by_rid.pop(rid, None)
        if dewey is not None:
            del self._rid_by_dewey[dewey]
            self._in_order = False
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
        """All assigned Dewey IDs in document order (sorted only after a
        mutation since the last bulk walk)."""
        return (list if self._in_order else sorted)(self._rid_by_dewey)

    def iter_rids(self) -> Iterator[int]:
        return iter(self._dewey_by_rid)

    def values_of(self, dewey: DeweyId) -> tuple:
        """Decode a Dewey ID back to its ordering-attribute values."""
        values = []
        prefix: tuple = ()
        for component in dewey[: len(self._positions)]:
            values.append(self._dictionary.decode(prefix, component))
            prefix = prefix + (component,)
        return tuple(values)


def _raw_sortable(column: list) -> bool:
    """All ``str`` or all ``int``/``float``: sorts raw as by :func:`_sort_key`."""
    return (types := set(map(type, column))) <= {str} or types <= {int, float}


def _sort_key(value: Any) -> tuple:
    """Type-tagged sort key so mixed int/str columns never raise."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
