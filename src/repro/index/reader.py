"""The index read protocol, declared once.

Everything above the posting lists — merged-list cursors, the planner's
statistics, WAND, the engines — reads an index through one small surface:
six control-plane attributes, ``len``, ``memory_stats`` and four posting
reads.  :class:`~repro.index.inverted.InvertedIndex` and
:class:`~repro.sharding.ShardedIndex` implement it over real posting
lists; every other layer (durability, replication, per-read retries)
is a :class:`ReaderProxy` that forwards the whole surface to one
target and overrides only what it changes (:class:`NamedReads` when that
is all four posting reads alike).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from .postings import ARRAY_BACKEND


@runtime_checkable
class IndexReader(Protocol):
    """What the query path may ask of an index (Section II-C: posting
    lists in Dewey order are the only access path the algorithms use)."""

    relation: Any
    ordering: Any
    backend: str
    dewey: Any
    depth: int
    epoch: int

    def __len__(self) -> int: ...
    def scalar_postings(self, attribute: str, value: Any): ...
    def token_postings(self, attribute: str, token: str): ...
    def all_postings(self): ...
    def vocabulary(self, attribute: str) -> list: ...
    def memory_stats(self) -> dict: ...


class ReaderProxy:
    """An :class:`IndexReader` that forwards everything to ``_target``.

    Subclasses provide ``_target`` — a plain attribute when the target is
    fixed (forwarding then costs one call, what a hand-written delegate
    costs), a property when it is chosen per read — and override the
    members whose behaviour they change.  Every attribute is an explicit
    property (no ``__getattr__`` on the query path); mutations pass
    through too, so a proxy can stand in a shard slot.
    """

    __slots__ = ()

    @property
    def relation(self):
        return self._target.relation

    @property
    def ordering(self):
        return self._target.ordering

    @property
    def backend(self) -> str:
        return self._target.backend

    @property
    def dewey(self):
        return self._target.dewey

    @property
    def depth(self) -> int:
        return self._target.depth

    @property
    def epoch(self) -> int:
        return self._target.epoch

    def __len__(self) -> int:
        return len(self._target)

    def scalar_postings(self, attribute: str, value: Any):
        return self._target.scalar_postings(attribute, value)

    def token_postings(self, attribute: str, token: str):
        return self._target.token_postings(attribute, token)

    def all_postings(self):
        return self._target.all_postings()

    def vocabulary(self, attribute: str) -> list:
        return self._target.vocabulary(attribute)

    def memory_stats(self) -> dict:
        return self._target.memory_stats()

    def insert(self, rid: int):
        return self._target.insert(rid)

    def remove(self, rid: int):
        return self._target.remove(rid)


class NamedReads(ReaderProxy):
    """A proxy whose four posting reads are one ``_read(operation, *args)``:
    the layers that treat them alike (failover, retries, a pin)."""

    __slots__ = ()

    def scalar_postings(self, attribute: str, value: Any):
        return self._read("scalar_postings", attribute, value)

    def token_postings(self, attribute: str, token: str):
        return self._read("token_postings", attribute, token)

    def all_postings(self):
        return self._read("all_postings")

    def vocabulary(self, attribute: str) -> list:
        return self._read("vocabulary", attribute)


def sum_memory_stats(backend: str, parts) -> dict:
    """Posting-list memory accounting summed over several readers."""
    parts = [part.memory_stats() for part in parts]
    postings = sum(stats["postings"] for stats in parts)
    total_bytes = sum(stats["bytes"] for stats in parts)
    return {
        "backend": backend,
        "lists": sum(stats["lists"] for stats in parts),
        "postings": postings,
        "bytes": total_bytes,
        "bytes_per_posting": (total_bytes / postings) if postings else 0.0,
    }


class EmptyReader:
    """The read protocol over nothing: every posting list empty.

    The sharded engine's degraded-plan path prices its fallback decision
    against this instead of touching an unreachable shard — the resulting
    feature vector is honestly all-zero rather than partially read.
    """

    __slots__ = ()

    relation = ordering = dewey = None
    backend = ARRAY_BACKEND
    depth = 1
    epoch = 0

    def __len__(self) -> int:
        return 0

    def scalar_postings(self, attribute: str, value: Any):
        return ()

    def token_postings(self, attribute: str, token: str):
        return ()

    def all_postings(self):
        return ()

    def vocabulary(self, attribute: str) -> list:
        return []

    def memory_stats(self) -> dict:
        return sum_memory_stats(self.backend, ())


EMPTY_READER = EmptyReader()
