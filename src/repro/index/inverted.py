"""The Dewey-keyed inverted index (Section III-A).

One posting list per distinct ``(attribute, value)`` pair (scalar
predicates), one per ``(attribute, token)`` pair of TEXT attributes (keyword
predicates), plus the full document-order list (for predicate-free queries).
Posting lists hold Dewey IDs, so every list is sorted in diversity-tree
document order and supports bidirectional skip navigation.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Iterable, Optional

from ..core.dewey import DeweyId
from ..core.ordering import DiversityOrdering
from ..storage.relation import Relation
from ..storage.schema import AttributeKind
from .compressed import CompressedPostingList, field_widths
from .dewey_index import DeweyIndex
from .postings import (
    ARRAY_BACKEND,
    ArrayPostingList,
    BACKENDS,
    COMPRESSED_BACKEND,
    EMPTIED,
    PostingList,
    make_posting_list,
)
from .tokenize import token_set

EMPTY_POSTINGS = ArrayPostingList()


def _posting_list_of_run(
    run: list[DeweyId], backend: str, depth: int, widths: Optional[tuple[int, ...]]
) -> PostingList:
    """A posting list over one of :meth:`InvertedIndex.build`'s runs —
    strictly sorted by construction, so both backends adopt it as is,
    without ``make_posting_list``'s sort-and-dedupe pass.
    ``widths`` are the compressed backend's index-wide field widths."""
    if backend == ARRAY_BACKEND:
        # An exact-size copy: the append-grown accumulator itself carries
        # up to 12.5 % of unused slots.
        return ArrayPostingList.from_sorted(run.copy())
    return CompressedPostingList.from_sorted(run, depth, widths)


class InvertedIndex:
    """Dewey index + posting lists for one relation."""

    __slots__ = (
        "_relation",
        "_ordering",
        "_backend",
        "_dewey",
        "_scalar",
        "_token",
        "_all",
        "_text_attributes",
        "_epoch",
        "__weakref__",  # metrics collectors hold the index weakly
    )

    def __init__(
        self,
        relation: Relation,
        ordering: DiversityOrdering,
        backend: str = ARRAY_BACKEND,
        dewey: Optional[DeweyIndex] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        self._relation = relation
        self._ordering = ordering
        self._backend = backend
        # ``dewey`` lets several indexes share one Dewey assignment: a
        # sharded deployment keeps a single global DeweyIndex so that every
        # shard speaks the same Dewey coordinates (see repro.sharding).
        self._dewey = dewey if dewey is not None else DeweyIndex(relation, ordering)
        self._scalar: dict[tuple[str, Any], PostingList] = {}
        self._token: dict[tuple[str, str], PostingList] = {}
        self._all: PostingList = make_posting_list((), backend, depth=ordering.depth)
        self._text_attributes = tuple(
            attribute.name
            for attribute in relation.schema
            if attribute.kind is AttributeKind.TEXT
        )
        self._epoch = 0

    @classmethod
    def build(
        cls,
        relation: Relation,
        ordering: DiversityOrdering,
        backend: str = ARRAY_BACKEND,
        dewey: Optional[DeweyIndex] = None,
        rids: Optional[Iterable[int]] = None,
    ) -> "InvertedIndex":
        """Offline index generation (the paper's build module, Section V-A).

        ``dewey`` adopts an existing (shared) Dewey assignment instead of
        building a fresh one; ``rids`` restricts the posting lists to a
        subset of rows — together they let :class:`repro.sharding.ShardedIndex`
        build per-shard indexes that all live in one global Dewey space, and
        every restore site (:func:`repro.index.snapshot.restore_index`)
        derive a stored index's posting lists the way they were first made.

        One walk, no sort: the Dewey IDs in the document order the bulk
        build or restore left, filtered by ``rids``, split into one run per
        value of each column; a distinct text is tokenised once, its run
        merged into each of its tokens' lists.
        """
        index = cls(relation, ordering, backend=backend, dewey=dewey)
        if dewey is None:
            index._dewey = DeweyIndex.build(relation, ordering)
        everything = index._dewey.all_deweys()
        order = list(index._dewey.rids_of(everything))
        if rids is not None:
            keep = list(map(set(rids).__contains__, order))
            everything = list(compress(everything, keep))
            order = list(compress(order, keep))
        rows = relation.rows_of(order)
        scalar_acc: dict[tuple[str, Any], list[DeweyId]] = {}
        token_acc: dict[tuple[str, str], list[list[DeweyId]]] = {}
        for position, name in enumerate(relation.schema.names):
            runs: dict[Any, list[DeweyId]] = defaultdict(list)
            for dewey_id, value in zip(everything, map(itemgetter(position), rows)):
                runs[value].append(dewey_id)
            scalar_acc.update(((name, value), run) for value, run in runs.items())
            if name in index._text_attributes:
                for text, run in runs.items():
                    for token in token_set(text):
                        token_acc.setdefault((name, token), []).append(run)
        # The accumulators were filled in Dewey order, so every run is
        # sorted and duplicate-free.
        depth = ordering.depth
        # Every run is a subset of ``everything``, so field widths sized to
        # it fit them all: one codec per index, no per-run sizing pass.
        widths = (
            field_widths(everything, depth)
            if backend == COMPRESSED_BACKEND
            else None
        )
        index._scalar = {
            key: _posting_list_of_run(run, backend, depth, widths)
            for key, run in scalar_acc.items()
        }
        index._token = {
            key: _posting_list_of_run(
                runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs)),
                backend, depth, widths,
            )
            for key, runs in token_acc.items()
        }
        index._all = _posting_list_of_run(everything, backend, depth, widths)
        return index

    # ------------------------------------------------------------------
    # Introspection
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
        return self._dewey

    @property
    def depth(self) -> int:
        return self._ordering.depth

    @property
    def epoch(self) -> int:
        """Mutation epoch: bumped by every successful :meth:`insert` /
        :meth:`remove`.  Caches key their entries by this counter so stale
        results can be rejected lazily instead of flushing eagerly."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._all)

    def __repr__(self) -> str:
        return (
            f"InvertedIndex({self._relation.name!r}, {len(self._all)} tuples, "
            f"{len(self._scalar)} value lists, {len(self._token)} token lists, "
            f"backend={self._backend!r})"
        )

    # ------------------------------------------------------------------
    # Posting-list lookup
    # ------------------------------------------------------------------
    def scalar_postings(self, attribute: str, value: Any) -> PostingList:
        """Postings of ``attribute = value`` (empty list if unseen)."""
        self._relation.validate_attribute(attribute)
        return self._scalar.get((attribute, value), EMPTY_POSTINGS)

    def token_postings(self, attribute: str, token: str) -> PostingList:
        """Postings of one keyword token in a TEXT attribute."""
        self._relation.validate_attribute(attribute)
        if attribute not in self._text_attributes:
            raise ValueError(
                f"attribute {attribute!r} is not TEXT; keyword predicates "
                f"need a TEXT attribute"
            )
        return self._token.get((attribute, token.lower()), EMPTY_POSTINGS)

    def all_postings(self) -> PostingList:
        """Every indexed Dewey ID, in document order."""
        return self._all

    def vocabulary(self, attribute: str) -> list[Any]:
        """Distinct indexed values of ``attribute`` (arbitrary order)."""
        return [value for (name, value) in self._scalar if name == attribute]

    def posting_lists(self) -> Iterable[PostingList]:
        """Every posting list in the index (the full-document list, every
        scalar-value list, every token list)."""
        yield self._all
        yield from self._scalar.values()
        yield from self._token.values()

    def memory_stats(self) -> dict:
        """Aggregate resident-memory accounting over all posting lists.

        Postings are counted with multiplicity (a row appears once per
        list containing it), matching what the buffers actually store.
        """
        lists = 0
        postings = 0
        total_bytes = 0
        for posting_list in self.posting_lists():
            lists += 1
            postings += len(posting_list)
            total_bytes += posting_list.memory_bytes()
        return {
            "backend": self._backend,
            "lists": lists,
            "postings": postings,
            "bytes": total_bytes,
            "bytes_per_posting": (total_bytes / postings) if postings else 0.0,
        }

    # ------------------------------------------------------------------
    # Restore hook (snapshot load / recovery / replica bootstrap)
    # ------------------------------------------------------------------
    def restore_epoch(self, epoch: int) -> None:
        """Adopt a persisted mutation epoch.

        Recovery must land the index on the *same* epoch the crashed
        process had, or every serving-cache entry computed before the
        restart would be wrongly invalidated (or, worse, wrongly kept).
        """
        if epoch < self._epoch:
            raise ValueError(
                f"cannot move epoch backwards ({self._epoch} -> {epoch})"
            )
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def remove(self, rid: int) -> Optional[DeweyId]:
        """Unindex one row (a sold/expired listing); returns its Dewey ID.

        The caller is responsible for tombstoning the relation row (see
        :meth:`DiversityEngine.delete`); this removes the Dewey ID from
        every posting list so queries stop returning it immediately.  A
        shard holding no posting for ``rid`` (another shard's row in the
        shared global Dewey space) leaves it alone and returns ``None``.
        """
        if rid not in self._dewey:
            return None
        dewey = self._dewey.dewey_of(rid)
        if dewey not in self._all:
            return None
        self.remove_mirrored(rid, dewey)
        self._dewey.remove(rid)
        return dewey

    def remove_mirrored(self, rid: int, dewey: DeweyId) -> DeweyId:
        """Replica-side removal: drop ``dewey`` from this copy's posting
        lists and bump the epoch, leaving the (shared) Dewey assignment
        alone.  In a replicated shard the primary's :meth:`remove` retires
        the global assignment exactly once; the follower copies — which
        share that assignment — mirror only the posting-list effect here,
        so every replica lands on the same epoch and content.  A list this
        empties is dropped: a live index holds exactly the lists a rebuild
        over its rows would (a reader that fetched the list earlier keeps
        an empty object, the right answer for its epoch).
        """
        row = self._relation[rid]
        self._all.remove(dewey)
        for name, value in zip(self._relation.schema.names, row):
            postings = self._scalar.get((name, value))
            if postings is not None and postings.remove(dewey) is EMPTIED:
                del self._scalar[name, value]
        for name in self._text_attributes:
            for token in token_set(self._relation.value(rid, name)):
                postings = self._token.get((name, token))
                if postings is not None and postings.remove(dewey) is EMPTIED:
                    del self._token[name, token]
        self._epoch += 1
        return dewey

    def insert(self, rid: int) -> DeweyId:
        """Index one new row of the underlying relation."""
        dewey = self._dewey.add(rid)
        if dewey in self._all:
            return dewey
        row = self._relation[rid]
        self._all.insert(dewey)
        for name, value in zip(self._relation.schema.names, row):
            key = (name, value)
            postings = self._scalar.get(key)
            if postings is None:
                postings = make_posting_list(
                    (), self._backend, depth=self._ordering.depth
                )
                self._scalar[key] = postings
            postings.insert(dewey)
        for name in self._text_attributes:
            for token in token_set(self._relation.value(rid, name)):
                key = (name, token)
                postings = self._token.get(key)
                if postings is None:
                    postings = make_posting_list(
                        (), self._backend, depth=self._ordering.depth
                    )
                    self._token[key] = postings
                postings.insert(dewey)
        self._epoch += 1
        return dewey
