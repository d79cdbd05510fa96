"""A horizontally partitioned inverted index in one global Dewey space.

:class:`ShardedIndex` splits a relation's rows across N independent
:class:`~repro.index.inverted.InvertedIndex` shards.  Three design points
make it a drop-in replacement for a single index:

* **One global Dewey assignment.**  All shards share a single
  :class:`~repro.index.dewey_index.DeweyIndex`, so a Dewey ID means the
  same tuple everywhere — shard answers can be unioned, merged, and
  materialised without translation, and are bit-identical to an unsharded
  build over the same rows in the same order.
* **Subtree co-location.**  Rows are routed on the value of the diversity
  ordering's *top* attribute (:mod:`repro.sharding.router`), so every
  level-1 subtree of the global Dewey tree lives wholly inside one shard —
  the invariant the diverse-merge argument rests on, and the reason a
  query pinning that attribute needs its home shard only.
* **The InvertedIndex read protocol.**  ``scalar_postings`` /
  ``token_postings`` / ``all_postings`` return k-way *union views* over the
  per-shard posting lists (level-1 lookups route straight to their owning
  shard).  Every consumer — merged-list cursors, the selectivity
  estimator, WAND, MultQ's vocabulary enumeration — runs unmodified, and
  since the algorithms only observe ``seek``/``seek_floor`` results, their
  answers are identical to the unsharded engine's.

:meth:`ShardedIndex.pinned` is the same index for one query phase, every
replicated slot resolved to one copy.  Mutations route to exactly one
shard and bump only its epoch; the global ``epoch`` (the sum) preserves
the serving-cache invalidation contract.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterator, List, Optional, Sequence, Union

from ..core.dewey import DeweyId
from ..core.ordering import DiversityOrdering
from ..index.dewey_index import DeweyIndex
from ..index.inverted import InvertedIndex
from ..index.postings import ARRAY_BACKEND, PostingList
from ..index.reader import sum_memory_stats
from ..observability import MONOTONIC
from ..replication.replica_set import PinnedReplica, ReplicaSet
from ..storage.relation import Relation
from .router import HashRouter


class UnionPostingView(PostingList):
    """A read-only posting list presenting several shard lists as one.

    The shards partition the postings, so ``seek`` is the minimum of the
    per-shard seeks (and ``seek_floor`` the maximum) — each a logarithmic
    probe.  Mutations go through the owning shard, never through the view.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Sequence[PostingList]):
        self._parts = parts

    def seek(self, dewey: DeweyId) -> Optional[DeweyId]:
        best: Optional[DeweyId] = None
        for part in self._parts:
            found = part.seek(dewey)
            if found is not None and (best is None or found < best):
                best = found
        return best

    def seek_floor(self, dewey: DeweyId) -> Optional[DeweyId]:
        best: Optional[DeweyId] = None
        for part in self._parts:
            found = part.seek_floor(dewey)
            if found is not None and (best is None or found > best):
                best = found
        return best

    def first(self) -> Optional[DeweyId]:
        candidates = [part.first() for part in self._parts]
        candidates = [dewey for dewey in candidates if dewey is not None]
        return min(candidates) if candidates else None

    def last(self) -> Optional[DeweyId]:
        candidates = [part.last() for part in self._parts]
        candidates = [dewey for dewey in candidates if dewey is not None]
        return max(candidates) if candidates else None

    def insert(self, dewey: DeweyId) -> None:
        raise TypeError("union posting views are read-only; route to a shard")

    def remove(self, dewey: DeweyId) -> bool:
        raise TypeError("union posting views are read-only; route to a shard")

    def __len__(self) -> int:
        return sum(len(part) for part in self._parts)

    def __iter__(self) -> Iterator[DeweyId]:
        return iter(sorted(chain.from_iterable(self._parts)))

    def intersect(self, decode: Optional[Callable], keys: Sequence) -> list:
        deweys = keys if decode is None else list(map(decode, keys))
        hits = set().union(*(part.intersect(None, deweys) for part in self._parts))
        return [key for key, dewey in zip(keys, deweys) if dewey in hits]

    def memory_bytes(self) -> int:
        return sum(part.memory_bytes() for part in self._parts)

    def __repr__(self) -> str:
        return f"UnionPostingView({len(self._parts)} parts, {len(self)} postings)"


class ShardedIndex:
    """N inverted-index shards behind the single-index read protocol."""

    __slots__ = (
        "_relation",
        "_ordering",
        "_backend",
        "_dewey",
        "_router",
        "_shards",
        "_route_position",
        "__weakref__",  # metrics collectors hold the index weakly
    )

    @classmethod
    def build(
        cls,
        relation: Relation,
        ordering: Union[DiversityOrdering, Sequence[str]],
        shards: int = 2,
        backend: str = ARRAY_BACKEND,
    ) -> "ShardedIndex":
        """Offline sharded build: one global Dewey pass, then per-shard
        posting lists over each shard's routed row subset."""
        if not isinstance(ordering, DiversityOrdering):
            ordering = DiversityOrdering(ordering)
        dewey = DeweyIndex.build(relation, ordering)
        position = relation.schema.position(ordering.attributes[0])
        router = HashRouter(shards)
        routed: List[List[int]] = [[] for _ in range(shards)]
        for rid in dewey.iter_rids():
            routed[router.shard_of(relation[rid][position])].append(rid)
        return cls.from_parts(relation, ordering, dewey, [
            InvertedIndex.build(
                relation, ordering, backend=backend, dewey=dewey, rids=rids
            )
            for rids in routed
        ], backend)

    @classmethod
    def from_parts(
        cls,
        relation: Relation,
        ordering: DiversityOrdering,
        dewey: DeweyIndex,
        shards: Sequence,
        backend: str = ARRAY_BACKEND,
    ) -> "ShardedIndex":
        """A sharded index over already-built parts — no re-routing, no
        re-building.  :meth:`build` ends here; so does recovery
        (:mod:`repro.durability.sharded`, which restores relation, Dewey
        assignment and every shard separately), and so does :meth:`pinned`."""
        index = cls.__new__(cls)
        index._relation = relation
        index._ordering = ordering
        index._backend = backend
        index._dewey = dewey
        index._route_position = relation.schema.position(ordering.attributes[0])
        index._router = HashRouter(len(shards))
        index._shards = list(shards)
        return index

    # ------------------------------------------------------------------
    # Introspection (the InvertedIndex protocol)
    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def ordering(self) -> DiversityOrdering:
        return self._ordering

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def dewey(self) -> DeweyIndex:
        """The shared global Dewey assignment."""
        return self._dewey

    @property
    def depth(self) -> int:
        return self._ordering.depth

    @property
    def epoch(self) -> int:
        """Global mutation epoch: the sum of per-shard epochs.

        Any mutation anywhere bumps it, so the serving-layer caches keyed on
        ``epoch`` stay correct; :meth:`shard_epochs` exposes the per-shard
        counters (a mutation touches exactly one of them).
        """
        return sum(shard.epoch for shard in self._shards)

    def shard_epochs(self) -> List[int]:
        """Per-shard mutation epochs, in shard order."""
        return [shard.epoch for shard in self._shards]

    @property
    def shards(self) -> List[InvertedIndex]:
        """The live list of shard slots, in shard order: a slot swapped in
        place here is the one every later read goes to.

        A slot is a bare :class:`~repro.index.inverted.InvertedIndex`, or a
        :class:`~repro.durability.store.DurableIndex`, or — after
        :meth:`replicate` — a :class:`~repro.replication.ReplicaSet`; all
        speak the same read protocol.
        """
        return self._shards

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def replication_factor(self) -> int:
        """Copies per logical shard (1 until :meth:`replicate` is called)."""
        first = self._shards[0]
        if isinstance(first, ReplicaSet):
            return first.num_replicas
        return 1

    def replicate(
        self,
        count: int,
        policy=None,
        clock=None,
        registry=None,
    ) -> None:
        """Grow every logical shard to ``count`` bit-identical replicas.

        Each shard slot is swapped in place for a
        :class:`~repro.replication.ReplicaSet` wrapping the existing shard
        (which becomes replica 0, keeping any durability wrapper and its
        WAL) plus ``count - 1`` bootstrapped, sha256-verified copies — the
        same in-place slot swap the durable store makes, so every reader
        through the index protocol picks up failover transparently.
        Replicate *after* durability wrapping.
        """
        if count < 1:
            raise ValueError("replica count must be >= 1")
        if any(isinstance(shard, ReplicaSet) for shard in self._shards):
            raise ValueError("index is already replicated")
        if count == 1:
            return
        self._shards = [
            ReplicaSet.grow(
                shard,
                count,
                shard_id,
                policy=policy,
                clock=clock if clock is not None else MONOTONIC,
                registry=registry,
            )
            for shard_id, shard in enumerate(self._shards)
        ]

    def pinned(self, shard_id: Optional[int] = None):
        """The reader for one query phase: this index with every replica
        set resolved to one copy (:meth:`ReplicaSet.pin`), so its posting
        reads skip the per-read replica choice — or, given ``shard_id``,
        that shard's reader alone (a routed query, a gather task).  Hand it
        to :meth:`release` in a ``finally``.  Unreplicated, the index and
        its shards are their own readers."""
        if not isinstance(self._shards[0], ReplicaSet):
            return self if shard_id is None else self._shards[shard_id]
        if shard_id is not None:
            return self._shards[shard_id].pin()
        return self.from_parts(
            self._relation, self._ordering, self._dewey,
            [shard.pin() for shard in self._shards], self._backend,
        )

    @staticmethod
    def release(reader) -> None:
        """End the phase :meth:`pinned` began: book the pins ``reader`` holds."""
        slots = reader._shards if isinstance(reader, ShardedIndex) else (reader,)
        for slot in slots:
            if isinstance(slot, PinnedReplica):
                slot.release()

    @property
    def router(self) -> HashRouter:
        return self._router

    def memory_stats(self) -> dict:
        """Deployment-wide posting-list memory accounting (sum of shards)."""
        return sum_memory_stats(self._backend, self._shards)

    def shard_of(self, rid: int) -> int:
        """The shard number owning row ``rid`` (routes on its level-1 value)."""
        return self._router.shard_of(self._relation[rid][self._route_position])

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardedIndex({self._relation.name!r}, {len(self)} tuples, "
            f"{len(self._shards)} shards, router={self._router!r}, "
            f"backend={self._backend!r})"
        )

    # ------------------------------------------------------------------
    # Posting-list lookup (union views; level-1 lookups route directly)
    # ------------------------------------------------------------------
    def scalar_postings(self, attribute: str, value: Any) -> PostingList:
        if attribute == self._ordering.attributes[0]:
            # Level-1 postings are co-located by construction: serve the
            # owning shard's list directly, no fan-out needed.
            return self._shards[self._router.shard_of(value)].scalar_postings(
                attribute, value
            )
        return self._union(
            [shard.scalar_postings(attribute, value) for shard in self._shards]
        )

    def token_postings(self, attribute: str, token: str) -> PostingList:
        return self._union(
            [shard.token_postings(attribute, token) for shard in self._shards]
        )

    def all_postings(self) -> PostingList:
        return self._union([shard.all_postings() for shard in self._shards])

    def vocabulary(self, attribute: str) -> list:
        seen = set()
        values = []
        for shard in self._shards:
            for value in shard.vocabulary(attribute):
                if value not in seen:
                    seen.add(value)
                    values.append(value)
        return values

    @staticmethod
    def _union(parts: List[PostingList]) -> PostingList:
        if len(parts) == 1:
            return parts[0]
        return UnionPostingView(parts)

    # ------------------------------------------------------------------
    # Incremental maintenance (routes to exactly one shard)
    # ------------------------------------------------------------------
    def insert(self, rid: int) -> DeweyId:
        """Index one new relation row into its routed shard."""
        return self._shards[self.shard_of(rid)].insert(rid)

    def remove(self, rid: int) -> Optional[DeweyId]:
        """Unindex one row from its routed shard; returns its Dewey ID."""
        if rid not in self._dewey:
            return None
        return self._shards[self.shard_of(rid)].remove(rid)
