"""Compressed, array-backed posting lists (``backend="compressed"``).

The array backend spends ~70-90 bytes per posting on Python
object headers (one tuple per Dewey ID plus a pointer slot).  This
backend holds **one** representation with no per-posting Python object:
every posting bit-packed into one integer of an ``array("Q")`` — 8 bytes
per posting whatever the field widths.  Packing gives each Dewey level a
fixed-width field, most significant level first, so it is strictly
order-preserving for equal-depth Dewey IDs: ``seek``/``seek_floor`` are
a **galloping** (exponential-then-binary) search over the flat array and
iteration is ``map(decode_key, keys)``.

The field widths, and the four generated pack/unpack expressions that
go with them (:func:`_compile_codecs`, memoised on the widths), are
index-wide: :meth:`InvertedIndex.build` sizes them once over the whole
relation (:func:`field_widths`) and every list shares one codec.  A
standalone list, and every compaction, sizes the fields to its own
content — as does every list of an index whose shared widths would sum
past 64 bits.  A list that is itself wider than that keeps its keys in
a plain list of Python ints: still correct, no longer small (48
bytes per posting at 98 bits of fields, 7 + 41 + 50, against the array
backend's 72 for the same depth-3 ids).

Why packing is safe: Definitions 1-2 and the 2k+1 probe bound of
Theorem 2 only ever compare Dewey IDs lexicographically and ask for
floor/ceiling neighbours.  Fixed-width packing is a monotone bijection
of the posting sequence — sibling order and subtree containment (shared
prefixes) survive it exactly, so every ``seek`` answer is bit-identical
to the array backend's.

Mutations go through a small uncompressed **tail** (sorted list of
inserted Dewey tuples; an id too wide for the packed fields can only
live here) plus a **tombstone** set for postings removed from the
packed segment; when either outgrows the compaction threshold the
segment is rebuilt, and re-sized, from the merged content.  Queries see
the merge of segment-minus-tombstones and tail, so interleaved
insert/delete behaves exactly like the uncompressed backends.

Seek bounds may carry the ``MAX_COMPONENT`` sentinel (region edges,
``nextId(…, RIGHT)``), which exceeds any packed field width; such
components *saturate* their field, and the search switches from
bisect-left to bisect-right semantics — see :func:`_compile_codecs`
for the order argument.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.dewey import MAX_COMPONENT, DeweyId
from .postings import EMPTIED, PostingList, members

#: Compaction fires when tail + tombstones exceed
#: ``max(MIN_COMPACTION, len(segment) >> COMPACTION_SHIFT)``.
MIN_COMPACTION = 32
COMPACTION_SHIFT = 3

#: Widest bracket the Python gallop loop may open before handing the
#: rest of the array to C bisect (8 probes ≈ the loop's break-even).
_GALLOP_CAP = 8


def field_widths(postings: Sequence[DeweyId], depth: int) -> Tuple[int, ...]:
    """Per-level field widths that fit every component of ``postings``
    (and so of any sub-list: what :meth:`InvertedIndex.build` hands to
    :meth:`CompressedPostingList.from_sorted` for each of its runs)."""
    if not postings:
        return (1,) * depth
    return tuple(max(1, top.bit_length()) for top in map(max, zip(*postings)))


@lru_cache(maxsize=1024)
def _compile_codecs(widths: Tuple[int, ...]):
    """Generate ``(pack_exact, decode_key, ceil_key, floor_key)``
    specialised to ``widths``.

    ``pack_exact(dewey)`` returns the packed key, or ``None`` when any
    component overflows its field (the id cannot be in the segment);
    ``decode_key(key)`` inverts it.  ``ceil_key``/``floor_key`` map an
    arbitrary seek bound to the ``upper_bound`` argument answering
    ``seek``/``seek_floor``, folding sentinel *saturation* into the same
    expression: when some component exceeds its field width (the
    ``MAX_COMPONENT`` region bounds the probing driver emits on nearly
    every call), every stored posting sharing the pre-overflow prefix is
    strictly smaller than the bound — its component at that level fits
    the field, the bound's does not — so the bound is equivalent to
    "just past the largest encodable id under that prefix": the
    overflowing and all later fields saturate to ones, and both seek
    flavours want bisect-right of that key.  Exact (in-range) bounds
    differ only in ``seek``, where bisect-left is ``upper_bound(key-1)``.

    All four are single generated expressions — seeks call one each, so
    avoiding a per-level Python loop roughly halves seek latency.  They
    are a pure function of ``widths`` and compiling them costs four
    ``eval`` calls, hence the memo: an index build compiles one codec,
    not one per list, and the lists share the code objects.  The memo is
    bounded because compactions re-size list by list; an evicted codec
    lives on in the segments that hold it.
    """
    depth = len(widths)
    shifts = [sum(widths[level + 1 :]) for level in range(depth)]
    terms = []
    guards = []
    for level, (width, shift) in enumerate(zip(widths, shifts)):
        field = f"d[{level}]"
        terms.append(f"({field} << {shift})" if shift else field)
        guards.append(f"{field} < {1 << width}")
    pack = " | ".join(terms)
    guard = " and ".join(guards)
    pack_source = f"lambda d: ({pack}) if ({guard}) else None"
    parts = []
    for level, (width, shift) in enumerate(zip(widths, shifts)):
        if level == 0:
            parts.append(f"(k >> {shift})" if shift else "k")
        elif shift:
            parts.append(f"((k >> {shift}) & {(1 << width) - 1})")
        else:
            parts.append(f"(k & {(1 << width) - 1})")
    decode_source = f"lambda k: ({', '.join(parts)},)"

    def saturated(level: int) -> str:
        """Key for a bound overflowing at ``level``: packed prefix, ones after."""
        mask = (1 << sum(widths[level:])) - 1
        if level == 0:
            return str(mask)
        return f"(({' | '.join(terms[:level])}) | {mask})"

    # Ternary chain: exact pack when every field fits, else the first
    # overflowing level (scanned left to right) picks the saturated key.
    ceil = f"(({pack}) - 1) if ({guard})"
    floor = f"({pack}) if ({guard})"
    for level in range(depth - 1):
        branch = f" else {saturated(level)} if not ({guards[level]})"
        ceil += branch
        floor += branch
    ceil += f" else {saturated(depth - 1)}"
    floor += f" else {saturated(depth - 1)}"
    return (
        eval(pack_source),
        eval(decode_source),
        eval(f"lambda d: {ceil}"),
        eval(f"lambda d: {floor}"),
    )


# ----------------------------------------------------------------------
# The immutable packed segment
# ----------------------------------------------------------------------
class _Segment:
    """An immutable, strictly-increasing run of postings as packed keys."""

    __slots__ = (
        "count",
        "widths",
        "keys",
        "pack_exact",
        "decode_key",
        "ceil_key",
        "floor_key",
    )

    def __init__(
        self,
        postings: Sequence[DeweyId],
        depth: int,
        widths: Optional[Tuple[int, ...]] = None,
    ):
        """Pack strictly-increasing, equal-depth ``postings`` — into
        fields of the given ``widths`` (which must fit every component)
        or, without them, fields sized to this content."""
        # Shared widths past one word would make every list's keys Python
        # ints; sized to its own content a narrow list still packs.
        if widths is None or sum(widths) > 64:
            widths = field_widths(postings, depth)
        self.count = len(postings)
        self.widths = widths
        # Pack/unpack run once per seek, so they are generated as single
        # expressions specialised to the field widths (the namedtuple
        # technique) instead of a generic per-level loop.
        (
            self.pack_exact,
            self.decode_key,
            self.ceil_key,
            self.floor_key,
        ) = _compile_codecs(widths)
        # Through a list: ``array`` sizes itself exactly from one, but
        # over-allocates by 1/16 when it has to grow from an iterator.
        packed = list(map(self.pack_exact, postings))
        self.keys = array("Q", packed) if sum(widths) <= 64 else packed

    # ------------------------------------------------------------------
    # Galloping search
    # ------------------------------------------------------------------
    def upper_bound(self, key: int, hint: int) -> int:
        """Exponential-then-binary search: the first index whose packed
        key is strictly greater than ``key``.

        Since packed keys are non-negative integers, both bisect flavours
        reduce to this one primitive: ``bisect_left(keys, k)`` equals
        ``upper_bound(k - 1)``.

        ``hint`` is the last answered position.  A scan mostly asks for
        that answer again or for its successor (53-81 % of the one-pass
        and naive seeks), so the hint's neighbour is read first and, when
        it brackets ``key``, answers without a bisect call; a miss has
        read one element more than the gallop alone would.  Every answer
        is bracketed on both sides by keys read here or inside
        :func:`bisect_right`, so a stale, raced or out-of-range hint
        costs time, never an answer.

        Past the neighbour the gallop makes a single probe at the cap
        distance rather than looping through doubling steps: each
        Python-level probe boxes an ``array('Q')`` element, so once the
        answer is outside the cap the remaining range goes straight to
        :func:`bisect_right`, whose C-speed comparisons beat any further
        Python probes.
        """
        keys = self.keys
        count = self.count
        if not count:
            return 0
        if hint >= count:
            hint = count - 1
        elif hint < 0:
            hint = 0
        if keys[hint] <= key:
            # Answer lies right of the hint: its successor, or gallop up.
            index = hint + 1
            if index == count or keys[index] > key:
                return index
            jump = hint + _GALLOP_CAP
            if jump < count and keys[jump] <= key:
                return bisect_right(keys, key, jump + 1, count)
            return bisect_right(keys, key, index + 1, min(jump + 1, count))
        # Answer lies at or left of the hint: the hint, or gallop down.
        if not hint or keys[hint - 1] <= key:
            return hint
        jump = hint - _GALLOP_CAP
        if jump >= 0 and keys[jump] > key:
            return bisect_right(keys, key, 0, jump)
        return bisect_right(keys, key, max(jump + 1, 0), hint - 1)

    def __iter__(self) -> Iterator[DeweyId]:
        return map(self.decode_key, self.keys)

    def memory_bytes(self) -> int:
        if isinstance(self.keys, array):
            return self.keys.itemsize * len(self.keys)
        # big-key fallback: pointer slot + int object per posting
        return sum(sys.getsizeof(key) + 8 for key in self.keys)


# ----------------------------------------------------------------------
# The mutable posting list
# ----------------------------------------------------------------------
class CompressedPostingList(PostingList):
    """Packed-segment + tail-buffer posting list (third backend)."""

    __slots__ = ("_depth", "_segment", "_tail", "_deleted", "_hint")

    def __init__(self, postings: Iterable[DeweyId] = (), depth: Optional[int] = None):
        unique = sorted(set(postings))
        if depth is None:
            if not unique:
                raise ValueError(
                    "CompressedPostingList needs an explicit depth when "
                    "built without postings"
                )
            depth = len(unique[0])
        for dewey in unique:
            if len(dewey) != depth:
                raise ValueError(
                    f"posting {dewey!r} has depth {len(dewey)}, expected {depth}"
                )
        self._depth = depth
        self._adopt(unique)

    @classmethod
    def from_sorted(
        cls,
        postings: List[DeweyId],
        depth: int,
        widths: Optional[Tuple[int, ...]] = None,
    ) -> "CompressedPostingList":
        """Adopt an already strictly-sorted, duplicate-free list.

        ``widths`` packs it with the :func:`field_widths` the caller
        sized over a superset of ``postings``, sharing that superset's
        one codec; without them, or when they sum past 64 bits, the list
        sizes its own.
        """
        instance = cls.__new__(cls)
        instance._depth = depth
        instance._adopt(postings, widths)
        return instance

    def _adopt(
        self, postings: List[DeweyId], widths: Optional[Tuple[int, ...]] = None
    ) -> None:
        """Start over from a sorted run: all packed, nothing pending."""
        self._segment = _Segment(postings, self._depth, widths)
        self._tail: List[DeweyId] = []
        self._deleted: Set[DeweyId] = set()
        self._hint = 0

    # ------------------------------------------------------------------
    # Seek primitives
    # ------------------------------------------------------------------
    def seek(self, dewey: DeweyId) -> Optional[DeweyId]:
        """Smallest posting >= ``dewey`` (which must have the list's depth)."""
        segment = self._segment
        best: Optional[DeweyId] = None
        count = segment.count
        if count:
            index = segment.upper_bound(segment.ceil_key(dewey), self._hint)
            self._hint = index
            keys = segment.keys
            deleted = self._deleted
            while index < count:
                found = segment.decode_key(keys[index])
                if not deleted or found not in deleted:
                    best = found
                    break
                index += 1
        tail = self._tail
        if tail:
            position = bisect_left(tail, dewey)
            if position < len(tail):
                candidate = tail[position]
                if best is None or candidate < best:
                    best = candidate
        return best

    def seek_floor(self, dewey: DeweyId) -> Optional[DeweyId]:
        """Largest posting <= ``dewey`` (which must have the list's depth)."""
        segment = self._segment
        best: Optional[DeweyId] = None
        if segment.count:
            index = segment.upper_bound(segment.floor_key(dewey), self._hint)
            self._hint = index
            keys = segment.keys
            deleted = self._deleted
            while index:
                index -= 1
                found = segment.decode_key(keys[index])
                if not deleted or found not in deleted:
                    best = found
                    break
        tail = self._tail
        if tail:
            position = bisect_right(tail, dewey) - 1
            if position >= 0:
                candidate = tail[position]
                if best is None or candidate > best:
                    best = candidate
        return best

    # ------------------------------------------------------------------
    # Mutation (tail buffer + tombstones, merged on compaction)
    # ------------------------------------------------------------------
    def insert(self, dewey: DeweyId) -> None:
        dewey = tuple(dewey)
        if len(dewey) != self._depth:
            raise ValueError(
                f"posting {dewey!r} has depth {len(dewey)}, expected {self._depth}"
            )
        if self._in_segment(dewey):
            self._deleted.discard(dewey)  # re-insertion: undo tombstone
            return
        position = bisect_left(self._tail, dewey)
        if position < len(self._tail) and self._tail[position] == dewey:
            return
        self._tail.insert(position, dewey)
        self._maybe_compact()

    def remove(self, dewey: DeweyId):
        dewey = tuple(dewey)
        position = bisect_left(self._tail, dewey)
        if position < len(self._tail) and self._tail[position] == dewey:
            del self._tail[position]
        elif self._in_segment(dewey) and dewey not in self._deleted:
            self._deleted.add(dewey)
            self._maybe_compact()
        else:
            return False
        empty = not self._tail and len(self._deleted) == self._segment.count
        return EMPTIED if empty else True

    def _in_segment(self, dewey: DeweyId) -> bool:
        """Exact membership in the packed segment (tombstones ignored)."""
        segment = self._segment
        # The codecs read exactly ``depth`` components: a longer id would
        # match its own prefix, a shorter one raise.
        if not segment.count or len(dewey) != self._depth:
            return False
        key = segment.pack_exact(dewey)
        if key is None:
            return False
        index = segment.upper_bound(key - 1, self._hint)
        return index < segment.count and segment.keys[index] == key

    def _maybe_compact(self) -> None:
        pending = len(self._tail) + len(self._deleted)
        if pending > max(MIN_COMPACTION, self._segment.count >> COMPACTION_SHIFT):
            self.compact()

    def compact(self) -> None:
        """Merge tail and tombstones into a fresh packed segment."""
        if self._tail or self._deleted:
            self._adopt(list(self))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def first(self) -> Optional[DeweyId]:
        return self.seek((0,) * self._depth)

    def last(self) -> Optional[DeweyId]:
        return self.seek_floor((MAX_COMPONENT,) * self._depth)

    def __len__(self) -> int:
        return self._segment.count - len(self._deleted) + len(self._tail)

    def __contains__(self, dewey: DeweyId) -> bool:
        return len(dewey) == self._depth and self.seek(dewey) == dewey

    def __iter__(self) -> Iterator[DeweyId]:
        if self._tail or self._deleted:
            return self._merged()
        return iter(self._segment)

    def stream(self) -> tuple[Optional[Callable], Sequence]:
        """The packed keys as they lie; Dewey IDs while a mutation is
        pending."""
        if self._tail or self._deleted:
            return None, list(self)
        return self._segment.decode_key, self._segment.keys

    def intersect(self, decode: Optional[Callable], keys: Sequence) -> list:
        """Keys of this list's codec are probed as they are, and so never
        decoded; other candidates are packed to probe the segment and
        matched by Dewey ID against the tail."""
        segment = self._segment
        pack = segment.pack_exact
        if decode is segment.decode_key:
            found = members(segment.keys, keys)
            if not (self._tail or self._deleted):
                return found
            hits = set(found).difference(map(pack, self._deleted))
            hits.update(map(pack, self._tail))
            return [key for key in keys if key in hits]
        deweys = keys if decode is None else list(map(decode, keys))
        packed = [key for key in map(pack, deweys) if key is not None]
        hits = set(map(segment.decode_key, members(segment.keys, packed)))
        hits.difference_update(self._deleted)
        hits.update(self._tail)
        return [key for key, dewey in zip(keys, deweys) if dewey in hits]

    def _merged(self) -> Iterator[DeweyId]:
        """Document-order merge of segment-minus-tombstones and tail."""
        deleted = self._deleted
        tail = self._tail
        position = 0
        tail_len = len(tail)
        for dewey in self._segment:
            if dewey in deleted:
                continue
            while position < tail_len and tail[position] < dewey:
                yield tail[position]
                position += 1
            yield dewey
        while position < tail_len:
            yield tail[position]
            position += 1

    def memory_bytes(self) -> int:
        total = self._segment.memory_bytes()
        total += sum(sys.getsizeof(dewey) + 8 for dewey in self._tail)
        total += sum(sys.getsizeof(dewey) + 8 for dewey in self._deleted)
        return total

    def __repr__(self) -> str:
        return (
            f"CompressedPostingList({len(self)} postings, "
            f"{self._segment.count} packed, {len(self._tail)} tail, "
            f"{len(self._deleted)} tombstones)"
        )
