"""Compressed, array-backed posting lists (``backend="compressed"``).

The array and B+-tree backends spend ~90 bytes per posting on Python
object headers (one tuple per Dewey ID plus a pointer slot), which caps
in-memory indexes at a few thousand rows per benchmark.  This backend
stores postings in flat buffers with **no per-posting Python objects**:

* ``_data`` — the canonical compressed store: Dewey components
  delta-encoded against the previous posting (shared-prefix length, then
  the strictly-greater first divergent component as a delta, then the
  absolute remainder) as LEB128 varints in one ``bytes`` buffer.  The
  first posting of every :data:`BLOCK`-sized block is stored absolute, so
  any block decodes independently.
* ``_offsets`` — ``array("Q")`` of per-block byte offsets into ``_data``
  (random block access for iteration and integrity checks).
* ``_keys`` — the seek accelerator: every posting bit-packed into one
  integer using per-level field widths sized to the segment's largest
  component per level.  Packing is strictly order-preserving for
  equal-depth Dewey IDs, so ``seek``/``seek_floor`` are a **galloping**
  (exponential-then-binary) search over a flat ``array("Q")`` — or a
  plain list of ints when the packed width exceeds 64 bits.

Why delta-encoded Dewey *prefixes* are safe: Definitions 1–2 and the
2k+1 probe bound of Theorem 2 only ever compare Dewey IDs
lexicographically and ask for floor/ceiling neighbours.  Both the
prefix-delta stream and the fixed-width packing are monotone bijections
of the posting sequence — sibling order and subtree containment (shared
prefixes) survive encoding exactly, so every ``seek`` answer is
bit-identical to the array backend's.

Mutations go through a small uncompressed **tail** (sorted list of
inserted Dewey tuples) plus a **tombstone** set for postings removed from
the packed segment; when either outgrows the compaction threshold the
segment is rebuilt from the merged content.  Queries see the merge of
segment-minus-tombstones and tail, so interleaved insert/delete behaves
exactly like the uncompressed backends.

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
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.dewey import DeweyId
from .postings import PostingList

#: Postings per independently-decodable block of the delta stream.
BLOCK = 64

#: Compaction fires when tail + tombstones exceed
#: ``max(MIN_COMPACTION, len(segment) >> COMPACTION_SHIFT)``.
MIN_COMPACTION = 32
COMPACTION_SHIFT = 3

#: Widest bracket the Python gallop loop may open before handing the
#: rest of the array to C bisect (8 probes ≈ the loop's break-even).
_GALLOP_CAP = 8


# ----------------------------------------------------------------------
# LEB128 varints
# ----------------------------------------------------------------------
def _encode_varint(value: int, out: bytearray) -> None:
    """Append ``value`` (non-negative) to ``out`` as an LEB128 varint."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _decode_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Decode one varint at ``pos``; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


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
    avoiding a per-level Python loop roughly halves seek latency.
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
    """An immutable run of delta-encoded postings plus its key array."""

    __slots__ = (
        "depth",
        "count",
        "data",
        "offsets",
        "widths",
        "keys",
        "pack_exact",
        "decode_key",
        "ceil_key",
        "floor_key",
    )

    def __init__(
        self,
        depth: int,
        count: int,
        data: bytes,
        offsets: "array",
        widths: Tuple[int, ...],
        postings: Optional[Sequence[DeweyId]] = None,
    ):
        self.depth = depth
        self.count = count
        self.data = data
        self.offsets = offsets
        self.widths = widths
        # Pack/unpack run once per seek, so they are generated as single
        # expressions specialised to this segment's field widths (the
        # namedtuple technique) instead of a generic per-level loop.
        (
            self.pack_exact,
            self.decode_key,
            self.ceil_key,
            self.floor_key,
        ) = _compile_codecs(widths)
        pack = self.pack_exact
        source = postings if postings is not None else self
        packed = [pack(dewey) for dewey in source]
        self.keys = array("Q", packed) if sum(widths) <= 64 else packed

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, postings: Sequence[DeweyId], depth: int) -> "_Segment":
        """Encode strictly-increasing, equal-depth postings."""
        data = bytearray()
        offsets = array("Q")
        maxima = [0] * depth
        previous: Optional[DeweyId] = None
        for index, dewey in enumerate(postings):
            for level, component in enumerate(dewey):
                if component > maxima[level]:
                    maxima[level] = component
            if index % BLOCK == 0:
                offsets.append(len(data))
                for component in dewey:
                    _encode_varint(component, data)
            else:
                shared = 0
                while dewey[shared] == previous[shared]:
                    shared += 1
                _encode_varint(shared, data)
                # Document order guarantees the first divergent component
                # is strictly greater than the previous posting's.
                _encode_varint(dewey[shared] - previous[shared] - 1, data)
                for component in dewey[shared + 1 :]:
                    _encode_varint(component, data)
            previous = dewey
        widths = tuple(max(1, value.bit_length()) for value in maxima)
        return cls(
            depth, len(postings), bytes(data), offsets, widths, postings=postings
        )

    @classmethod
    def empty(cls, depth: int) -> "_Segment":
        return cls(depth, 0, b"", array("Q"), (1,) * depth, postings=())

    # ------------------------------------------------------------------
    # Galloping search
    # ------------------------------------------------------------------
    def upper_bound(self, key: int, hint: int) -> int:
        """Exponential-then-binary search: the first index whose packed
        key is strictly greater than ``key``.

        Since packed keys are non-negative integers, both bisect flavours
        reduce to this one primitive: ``bisect_left(keys, k)`` equals
        ``upper_bound(k - 1)``.

        ``hint`` is the last answered position; successive seeks of a
        scan land near it, so the gallop pays ``O(1)`` for gaps within
        ``_GALLOP_CAP`` instead of ``O(log n)``.  The gallop makes a
        single probe at the cap distance rather than looping through
        doubling steps: each Python-level probe boxes an ``array('Q')``
        element, so once the answer is outside the cap the remaining
        range goes straight to :func:`bisect_right`, whose C-speed
        comparisons beat any further Python probes.
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
            # Answer lies right of the hint: gallop up.
            jump = hint + _GALLOP_CAP
            if jump < count and keys[jump] <= key:
                return bisect_right(keys, key, jump + 1, count)
            return bisect_right(keys, key, hint + 1, min(jump + 1, count))
        # Answer lies at or left of the hint: gallop down.
        jump = hint - _GALLOP_CAP
        if jump >= 0 and keys[jump] > key:
            return bisect_right(keys, key, 0, jump)
        return bisect_right(keys, key, max(jump + 1, 0), hint)

    # ------------------------------------------------------------------
    # Block decode / iteration
    # ------------------------------------------------------------------
    def decode_block(self, block: int) -> List[DeweyId]:
        """Decode one block of the delta stream into Dewey tuples."""
        data = self.data
        pos = self.offsets[block]
        depth = self.depth
        end = min(self.count, (block + 1) * BLOCK)
        out: List[DeweyId] = []
        previous: Optional[DeweyId] = None
        for _ in range(block * BLOCK, end):
            if previous is None:
                components = []
                for _ in range(depth):
                    value, pos = _decode_varint(data, pos)
                    components.append(value)
            else:
                shared, pos = _decode_varint(data, pos)
                delta, pos = _decode_varint(data, pos)
                components = list(previous[:shared])
                components.append(previous[shared] + delta + 1)
                for _ in range(shared + 1, depth):
                    value, pos = _decode_varint(data, pos)
                    components.append(value)
            previous = tuple(components)
            out.append(previous)
        return out

    def __iter__(self) -> Iterator[DeweyId]:
        for block in range(len(self.offsets)):
            yield from self.decode_block(block)

    def memory_bytes(self) -> int:
        total = len(self.data) + self.offsets.itemsize * len(self.offsets)
        if isinstance(self.keys, array):
            total += self.keys.itemsize * len(self.keys)
        else:  # big-key fallback: pointer slot + int object per posting
            total += sum(sys.getsizeof(key) + 8 for key in self.keys)
        return total


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
        self._segment = (
            _Segment.build(unique, depth) if unique else _Segment.empty(depth)
        )
        self._tail: List[DeweyId] = []
        self._deleted: Set[DeweyId] = set()
        self._hint = 0

    @classmethod
    def from_sorted(
        cls, postings: List[DeweyId], depth: Optional[int] = None
    ) -> "CompressedPostingList":
        """Adopt an already strictly-sorted, duplicate-free list."""
        if depth is None:
            if not postings:
                raise ValueError("from_sorted needs postings or an explicit depth")
            depth = len(postings[0])
        instance = cls.__new__(cls)
        instance._depth = depth
        instance._segment = (
            _Segment.build(postings, depth) if postings else _Segment.empty(depth)
        )
        instance._tail = []
        instance._deleted = set()
        instance._hint = 0
        return instance

    # ------------------------------------------------------------------
    # Seek primitives
    # ------------------------------------------------------------------
    def seek(self, dewey: DeweyId) -> Optional[DeweyId]:
        segment = self._segment
        best: Optional[DeweyId] = None
        if segment.count:
            index = segment.upper_bound(segment.ceil_key(dewey), self._hint)
            self._hint = index
            if index < segment.count:
                deleted = self._deleted
                if not deleted:
                    best = segment.decode_key(segment.keys[index])
                else:
                    keys = segment.keys
                    while index < segment.count:
                        found = segment.decode_key(keys[index])
                        if found not in deleted:
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
        segment = self._segment
        best: Optional[DeweyId] = None
        if segment.count:
            index = segment.upper_bound(segment.floor_key(dewey), self._hint) - 1
            self._hint = index + 1
            if index >= 0:
                deleted = self._deleted
                if not deleted:
                    best = segment.decode_key(segment.keys[index])
                else:
                    keys = segment.keys
                    while index >= 0:
                        found = segment.decode_key(keys[index])
                        if found not in deleted:
                            best = found
                            break
                        index -= 1
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
            if dewey in self._deleted:
                self._deleted.discard(dewey)  # re-insertion: undo tombstone
            return
        position = bisect_left(self._tail, dewey)
        if position < len(self._tail) and self._tail[position] == dewey:
            return
        self._tail.insert(position, dewey)
        self._maybe_compact()

    def remove(self, dewey: DeweyId) -> bool:
        dewey = tuple(dewey)
        position = bisect_left(self._tail, dewey)
        if position < len(self._tail) and self._tail[position] == dewey:
            del self._tail[position]
            return True
        if self._in_segment(dewey) and dewey not in self._deleted:
            self._deleted.add(dewey)
            self._maybe_compact()
            return True
        return False

    def _in_segment(self, dewey: DeweyId) -> bool:
        """Exact membership in the packed segment (tombstones ignored)."""
        segment = self._segment
        if not segment.count:
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
        if not self._tail and not self._deleted:
            return
        merged = list(self)
        self._segment = (
            _Segment.build(merged, self._depth)
            if merged
            else _Segment.empty(self._depth)
        )
        self._tail = []
        self._deleted = set()
        self._hint = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def first(self) -> Optional[DeweyId]:
        for dewey in self:
            return dewey
        return None

    def last(self) -> Optional[DeweyId]:
        segment = self._segment
        best: Optional[DeweyId] = None
        index = segment.count - 1
        while index >= 0:
            found = segment.decode_key(segment.keys[index])
            if found not in self._deleted:
                best = found
                break
            index -= 1
        if self._tail:
            candidate = self._tail[-1]
            if best is None or candidate > best:
                best = candidate
        return best

    def __len__(self) -> int:
        return self._segment.count - len(self._deleted) + len(self._tail)

    def __iter__(self) -> Iterator[DeweyId]:
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
