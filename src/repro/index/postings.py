"""Posting lists of Dewey IDs with bidirectional skip navigation.

Every distinct attribute value (and every text token) owns one posting list
holding the Dewey IDs of matching tuples in document order.  The paper's
algorithms only ever touch posting lists through two primitives:

* ``seek(id)``   — smallest posting >= id  (a LEFT-moving ``next``),
* ``seek_floor(id)`` — largest posting <= id (a RIGHT-moving ``next``),

which both backends implement in logarithmic time: a packed sorted array
(binary search) and a flat array of bit-packed keys, one machine word per
posting, with galloping search (:mod:`repro.index.compressed`).  Either
serves the paper's "skip over similar answers" (Section I) — the skip is
the log-time seek, not the structure behind it.  The merged multi-list
navigation lives in :mod:`repro.index.merged`.

Naive's full evaluation reads lists as streams instead: ``stream()``
hands every posting over in document order, as keys of the list's codec,
and ``intersect`` keeps the sorted candidates that are postings here.
"""

from __future__ import annotations

import bisect
import sys
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.dewey import DeweyId

#: ``intersect`` bisects a list this many times longer than its candidates
#: from a kept position; a shorter one is hashed once.
GALLOP_RATIO = 8

#: ``PostingList.remove`` took the list's last posting (truthy, like True).
EMPTIED = "emptied"

ARRAY_BACKEND = "array"
COMPRESSED_BACKEND = "compressed"
BACKENDS = (ARRAY_BACKEND, COMPRESSED_BACKEND)


class PostingList:
    """Interface shared by both backends."""

    __slots__ = ()

    def seek(self, dewey: DeweyId) -> Optional[DeweyId]:
        """Smallest posting >= ``dewey``, or ``None``."""
        raise NotImplementedError

    def seek_floor(self, dewey: DeweyId) -> Optional[DeweyId]:
        """Largest posting <= ``dewey``, or ``None``."""
        raise NotImplementedError

    def insert(self, dewey: DeweyId) -> None:
        """Add one posting (idempotent)."""
        raise NotImplementedError

    def remove(self, dewey: DeweyId):
        """Drop one posting: False if absent, :data:`EMPTIED` if it was the last."""
        raise NotImplementedError

    def first(self) -> Optional[DeweyId]:
        raise NotImplementedError

    def last(self) -> Optional[DeweyId]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[DeweyId]:
        raise NotImplementedError

    def __contains__(self, dewey: DeweyId) -> bool:
        return self.seek(dewey) == dewey

    def stream(self) -> tuple[Optional[Callable], Sequence]:
        """Every posting in document order as ``(decode, keys)``: keys of
        this list's codec and the function mapping one back to its Dewey
        ID, or the Dewey IDs themselves and ``None``.  Read-only."""
        return None, list(self)

    def intersect(self, decode: Optional[Callable], keys: Sequence) -> list:
        """The members of ``keys`` (sorted, in the form :meth:`stream`
        gives them with ``decode``) that are postings here, in order."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Approximate resident bytes of this list's postings storage."""
        raise NotImplementedError


class ArrayPostingList(PostingList):
    """Sorted-array backend: most compact, binary-search navigation."""

    __slots__ = ("_postings",)

    def __init__(self, postings: Iterable[DeweyId] = ()):
        self._postings = sorted(set(postings))

    @classmethod
    def from_sorted(cls, postings: list[DeweyId]) -> "ArrayPostingList":
        """Adopt an already strictly-sorted list without copying or checking."""
        instance = cls.__new__(cls)
        instance._postings = postings
        return instance

    def seek(self, dewey: DeweyId) -> Optional[DeweyId]:
        index = bisect.bisect_left(self._postings, dewey)
        if index == len(self._postings):
            return None
        return self._postings[index]

    def seek_floor(self, dewey: DeweyId) -> Optional[DeweyId]:
        index = bisect.bisect_right(self._postings, dewey) - 1
        if index < 0:
            return None
        return self._postings[index]

    def insert(self, dewey: DeweyId) -> None:
        index = bisect.bisect_left(self._postings, dewey)
        if index < len(self._postings) and self._postings[index] == dewey:
            return
        self._postings.insert(index, dewey)

    def remove(self, dewey: DeweyId):
        index = bisect.bisect_left(self._postings, dewey)
        if index < len(self._postings) and self._postings[index] == dewey:
            del self._postings[index]
            return True if self._postings else EMPTIED
        return False

    def first(self) -> Optional[DeweyId]:
        return self._postings[0] if self._postings else None

    def last(self) -> Optional[DeweyId]:
        return self._postings[-1] if self._postings else None

    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[DeweyId]:
        return iter(self._postings)

    def intersect(self, decode: Optional[Callable], keys: Sequence) -> list:
        if decode is None:
            return members(self._postings, keys)
        hits = set(members(self._postings, list(map(decode, keys))))
        return [key for key in keys if decode(key) in hits]

    def memory_bytes(self) -> int:
        # The list object (with its pointer slots) plus one tuple per
        # posting; component ints are mostly shared small-int singletons.
        return sys.getsizeof(self._postings) + sum(
            sys.getsizeof(posting) for posting in self._postings
        )

    def __repr__(self) -> str:
        return f"ArrayPostingList({len(self._postings)} postings)"


def members(postings: Sequence, candidates: Sequence) -> list:
    """The sorted ``candidates`` that occur in the sorted ``postings``, in
    order: one bisection each, from the last position, in a much longer
    list; else one pass hashing ``postings``."""
    if len(postings) <= GALLOP_RATIO * len(candidates):
        present = set(postings)
        return [candidate for candidate in candidates if candidate in present]
    found = []
    position, end = 0, len(postings)
    for candidate in candidates:
        position = bisect.bisect_left(postings, candidate, position)
        if position == end:
            break
        if postings[position] == candidate:
            found.append(candidate)
    return found


def make_posting_list(
    postings: Iterable[DeweyId],
    backend: str = ARRAY_BACKEND,
    depth: Optional[int] = None,
) -> PostingList:
    """Factory used by the inverted index builder.

    ``depth`` (the diversity ordering's attribute count) is required by the
    compressed backend when ``postings`` may be empty — packed buffers need
    a fixed Dewey depth up front; the array backend ignores it.
    """
    if backend == ARRAY_BACKEND:
        return ArrayPostingList(postings)
    if backend == COMPRESSED_BACKEND:
        # Imported lazily: repro.index.compressed subclasses PostingList.
        from .compressed import CompressedPostingList

        return CompressedPostingList(postings, depth=depth)
    raise ValueError(f"unknown posting-list backend {backend!r}")
