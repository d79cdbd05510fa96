"""Test oracle: the offline build and the restore as they stood before
both became one sort and one walk (``DeweyIndex.build`` /
``DeweyIndex.restore`` / ``InvertedIndex.build``).  Kept close to verbatim
so ``test_bulk_build.py`` can demand identical Dewey IDs, sibling tables,
uniqueness counters and posting lists from both.

* :func:`build_dewey` — sort the live rids by their :func:`_sort_key`
  tuples, then :meth:`DeweyIndex.add` each one (the online path, which
  stays in the package).
* :func:`restore_dewey_space` — insert the stored rows one at a time and
  ``force`` every persisted assignment in rid order.
* :func:`posting_runs` — the per-row posting build: re-sort the Dewey
  space, ``rid_of`` each ID, one ``setdefault`` per (attribute, value) and
  one ``token_set`` per row.
* :func:`build_postings` — ``InvertedIndex.build`` before it worked in
  positions: runs of Dewey tuples, token runs merged by sorting tuples,
  every posting of every compressed list packed through the codec one at a
  time.  It builds the lists themselves, so their sizes and packed keys
  can be compared, not only their contents.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import chain, compress
from operator import itemgetter

from repro.core.ordering import DiversityOrdering
from repro.index.compressed import (
    CompressedPostingList,
    _compile_codecs,
    _Segment,
    field_widths,
)
from repro.index.dewey_index import DeweyAssignmentError, DeweyIndex, _sort_key
from repro.index.inverted import InvertedIndex
from repro.index.postings import ARRAY_BACKEND, ArrayPostingList
from repro.index.snapshot import SnapshotError
from repro.index.tokenize import token_set
from repro.storage.relation import Relation
from repro.storage.schema import AttributeKind


def build_dewey(relation: Relation, ordering: DiversityOrdering) -> DeweyIndex:
    """Offline bulk build: sibling numbers follow sorted value order."""
    index = DeweyIndex(relation, ordering)
    keyed = sorted(
        (rid for rid, _ in relation.iter_live()),
        key=lambda rid: tuple(
            _sort_key(relation[rid][p]) for p in index._positions
        ),
    )
    for rid in keyed:
        index.add(rid)
    return index


def _force_sibling(dictionary, prefix: tuple, value, number: int) -> None:
    """``SiblingDictionary.force``: register ``value -> number`` exactly,
    keeping the reverse table dense with ``None`` placeholders."""
    forward = dictionary._forward.setdefault(prefix, {})
    reverse = dictionary._reverse.setdefault(prefix, [])
    while len(reverse) <= number:
        reverse.append(None)
    if reverse[number] is not None and reverse[number] != value:
        raise ValueError(
            f"sibling {number} under prefix {prefix} assigned to both "
            f"{reverse[number]!r} and {value!r}"
        )
    forward[value] = number
    reverse[number] = value


def force(index: DeweyIndex, rid: int, dewey) -> tuple:
    """``DeweyIndex.force``: adopt a persisted assignment exactly."""
    dewey = tuple(int(component) for component in dewey)
    if len(dewey) != index.depth:
        raise DeweyAssignmentError(
            f"Dewey {dewey} has depth {len(dewey)}, expected {index.depth}"
        )
    existing = index._dewey_by_rid.get(rid)
    if existing is not None:
        if existing != dewey:
            raise DeweyAssignmentError(
                f"rid {rid} already assigned {existing}, cannot force {dewey}"
            )
        return dewey
    if dewey in index._rid_by_dewey:
        raise DeweyAssignmentError(f"duplicate Dewey ID {dewey}")
    row = index.relation[rid]
    prefix: tuple = ()
    for position, component in zip(index._positions, dewey):
        parent = prefix
        value = row[position]
        known = index._dictionary.lookup(prefix, value)
        if known is None:
            try:
                _force_sibling(index._dictionary, prefix, value, component)
            except ValueError as error:
                raise DeweyAssignmentError(str(error)) from None
        elif known != component:
            raise DeweyAssignmentError(
                f"value {value!r} maps to both {known} and {component} "
                f"under prefix {prefix}"
            )
        prefix = prefix + (component,)
    index._dewey_by_rid[rid] = dewey
    index._rid_by_dewey[dewey] = rid
    last = dewey[-2]
    counts = index._uniqueness.setdefault(parent, [])
    if last >= len(counts):
        counts.extend([0] * (last + 1 - len(counts)))
    counts[last] = max(counts[last], dewey[-1] + 1)
    return dewey


def restore_dewey_space(payload: dict, rows: dict, deleted, assignments: dict):
    """``snapshot.restore_dewey_space``: row-by-row inserts, then the
    ``force`` loop in rid order."""
    from repro.storage.schema import Attribute, Schema

    schema = Schema(
        Attribute(name, AttributeKind(kind)) for name, kind in payload["schema"]
    )
    relation = Relation(schema, name=payload.get("name", "R"))
    for rid in range(len(rows)):
        if rid not in rows:
            raise SnapshotError(
                f"row table has a gap at rid {rid}: an acknowledged insert "
                f"is missing"
            )
        relation.insert(rows[rid])
    for rid in deleted:
        relation.delete(rid)
    ordering = DiversityOrdering(payload["ordering"])
    dewey = DeweyIndex(relation, ordering)
    for rid, dewey_id in sorted(assignments.items()):
        if not 0 <= rid < len(relation):
            raise SnapshotError(f"Dewey table references unknown rid {rid}")
        try:
            force(dewey, rid, dewey_id)
        except DeweyAssignmentError as error:
            raise SnapshotError(f"inconsistent Dewey table: {error}") from None
    return relation, ordering, dewey


def posting_runs(relation: Relation, dewey: DeweyIndex, rids=None):
    """The posting build's accumulators: ``(scalar runs, token runs,
    everything)``, each run a list of Dewey IDs in document order."""
    keep = None if rids is None else set(rids)
    text_attributes = [
        attribute.name for attribute in relation.schema
        if attribute.kind is AttributeKind.TEXT
    ]
    scalar_acc: dict = {}
    token_acc: dict = {}
    everything = []
    names = relation.schema.names
    for dewey_id in sorted(dewey._rid_by_dewey):
        rid = dewey.rid_of(dewey_id)
        if keep is not None and rid not in keep:
            continue
        row = relation[rid]
        everything.append(dewey_id)
        for name, value in zip(names, row):
            scalar_acc.setdefault((name, value), []).append(dewey_id)
        for name in text_attributes:
            text = relation.value(rid, name)
            for token in token_set(text):
                token_acc.setdefault((name, token), []).append(dewey_id)
    return scalar_acc, token_acc, everything


def _posting_list_of_run(run, backend: str, depth: int, widths):
    """A list over one sorted run; ``widths`` are the index-wide field
    widths, which give way to the run's own past 64 bits."""
    if backend == ARRAY_BACKEND:
        return ArrayPostingList.from_sorted(run.copy())
    if widths is None or sum(widths) > 64:
        widths = field_widths(run, depth)
    packed = list(map(_compile_codecs(widths)[0], run))
    keys = array("Q", packed) if sum(widths) <= 64 else packed
    return CompressedPostingList._of(_Segment(keys, widths), depth)


def build_postings(relation: Relation, ordering: DiversityOrdering,
                   backend: str, dewey: DeweyIndex, rids=None) -> InvertedIndex:
    """``InvertedIndex.build(..., dewey=dewey, rids=rids)`` over tuple runs."""
    index = InvertedIndex(relation, ordering, backend=backend, dewey=dewey)
    everything = dewey.all_deweys()
    order = list(dewey.rids_of(everything))
    if rids is not None:
        keep = list(map(set(rids).__contains__, order))
        everything = list(compress(everything, keep))
        order = list(compress(order, keep))
    rows = relation.rows_of(order)
    scalar_acc: dict = {}
    token_acc: dict = {}
    for position, name in enumerate(relation.schema.names):
        runs = defaultdict(list)
        for dewey_id, value in zip(everything, map(itemgetter(position), rows)):
            runs[value].append(dewey_id)
        scalar_acc.update(((name, value), run) for value, run in runs.items())
        if name in index._text_attributes:
            for text, run in runs.items():
                for token in token_set(text):
                    token_acc.setdefault((name, token), []).append(run)
    depth = ordering.depth
    widths = None if backend == ARRAY_BACKEND else field_widths(everything, depth)
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
