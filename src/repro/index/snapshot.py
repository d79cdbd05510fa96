"""Index persistence: save and load a built inverted index.

The paper's deployment builds the index offline ("Index generation is done
offline and is very fast", Section V-A) and serves queries from it; this
module provides the missing piece — a snapshot format so the offline build
is done once.

The snapshot stores the relation (schema + rows), the diversity ordering,
the backend choice, and the exact rid -> Dewey assignment.  Persisting the
assignment matters: bulk builds number siblings in sorted-value order while
incremental builds number them first-come, and a restore must reproduce the
exact IDs so that previously returned Dewey IDs stay valid.

The posting lists themselves are never stored, whatever the backend:
they are *derived* — every consumer of stored state (:func:`load_index`
here, recovery in :mod:`repro.durability`, replica and spawn-worker
bootstrap) rebuilds them with the paper's one offline build,
``InvertedIndex.build(dewey=, rids=)`` over the restored Dewey space
(:func:`restore_index`).

Format (version 3): a gzip-compressed (level 6) JSON envelope ``{format,
version, digest, payload}``.  The payload is serialised once, canonically
(sorted keys, no spaces): those bytes are both the input of ``digest``
(SHA-256) and the stored payload, so a flipped bit anywhere in the payload
fails the load instead of silently corrupting the restored index.  Writes
are atomic (:func:`repro.storage.disk.replace_atomically`): the document
goes to a same-directory temp file (fsynced), which is renamed over the
target before the directory is fsynced, so a crash mid-write can never
leave a truncated snapshot under the real name.  The tables are columns,
in the shape the build walks: one list per attribute in row-slot order
(``columns``), and the Dewey table in Dewey order as a rid column plus
one int list per level (``dewey_rids``, ``dewey_levels``).  A full row
table's rid column is implicit; a *subset* of the relation (``rids=``,
one file per shard, see :mod:`repro.durability.sharded`) stores its
``rids``.  Version-2 files (row-major lists in rid order) are read
through one converter to this shape; version-1 files (no digest) are
refused.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import zlib
from pathlib import Path
from typing import Collection, Iterable, Optional, Union

from ..core.ordering import DiversityOrdering
from ..storage.disk import replace_atomically
from ..storage.relation import Relation
from ..storage.schema import Attribute, AttributeKind, Schema
from .dewey_index import DeweyAssignmentError, DeweyIndex
from .inverted import InvertedIndex

FORMAT_NAME = "repro-diversity-index"
FORMAT_VERSION = 3
COMPRESS_LEVEL = 6  # gzip's default 9: ≈ 3.5x the time, ≈ 6 % fewer bytes

_PAYLOAD_FIELDS = ("schema", "columns", "ordering", "dewey_rids",
                   "dewey_levels", "backend", "row_slots", "live_rows")


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot files."""


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def build_payload(index: InvertedIndex, rids: Optional[Iterable[int]] = None) -> dict:
    """The version-3 snapshot payload for ``index``.

    ``rids`` restricts the row table to a subset of relation slots (a
    shard's owned rows, live and tombstoned), stored with its rid column;
    the Dewey table always reflects exactly what *this* index serves (its
    live postings, already in Dewey order).  Columns are tuples, which
    json writes as lists.
    """
    relation = index.relation
    scope = range(len(relation)) if rids is None else sorted(set(map(int, rids)))
    deleted = [rid for rid in scope if relation.is_deleted(rid)]
    postings = list(index.all_postings())
    payload = {
        "name": relation.name,
        "backend": index.backend,
        "ordering": list(index.ordering.attributes),
        "schema": [[a.name, a.kind.value] for a in relation.schema],
        "row_slots": len(relation),
        "live_rows": len(scope) - len(deleted),
        "partial": rids is not None,
        "columns": _columns(relation.rows_of(scope), len(relation.schema)),
        "deleted": deleted,
        "dewey_rids": index.dewey.rids_of(postings),
        "dewey_levels": _columns(postings, index.ordering.depth),
        "epoch": index.epoch,
    }
    if rids is not None:
        payload["rids"] = scope
    return payload


def _columns(rows, width: int) -> list:
    """``rows`` transposed into ``width`` columns (empty ones for no rows)."""
    return list(zip(*rows)) or [()] * width


def canonical_payload_bytes(payload: dict) -> bytes:
    """The byte string the payload digest is computed over."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def encode_snapshot(payload: dict) -> bytes:
    """Serialise a payload into the on-disk (gzip) envelope bytes; the
    payload is stored as the very bytes its digest hashes."""
    canonical = canonical_payload_bytes(payload)
    head = json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION,
                       "digest": hashlib.sha256(canonical).hexdigest()},
                      separators=(",", ":")).encode("utf-8")
    return gzip.compress(head[:-1] + b',"payload":' + canonical + b"}",
                         compresslevel=COMPRESS_LEVEL)


def write_snapshot(payload: dict, target: Union[str, Path]) -> None:
    """Atomically persist a payload: temp file + fsync + rename + dir fsync."""
    replace_atomically(target, encode_snapshot(payload))


def save_index(index: InvertedIndex, target: Union[str, Path],
               rids: Optional[Iterable[int]] = None) -> None:
    """Write ``index`` (and its relation rows) to a snapshot file."""
    write_snapshot(build_payload(index, rids=rids), target)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def read_snapshot(source: Union[str, Path]) -> dict:
    """Read, checksum-verify and validate a snapshot; returns its payload.

    Every failure mode — unreadable file, bad gzip, bad JSON, unknown
    format/version, missing fields, digest mismatch — surfaces as a
    :class:`SnapshotError` naming the offending path.
    """
    try:
        with gzip.open(source, "rb") as handle:
            raw = handle.read()
        document = json.loads(raw.decode("utf-8"))
    except (OSError, EOFError, zlib.error, ValueError) as error:
        # A damaged deflate stream raises zlib.error or EOFError, neither
        # an OSError: most single flipped bytes land there.
        raise SnapshotError(f"cannot read snapshot {source}: {error}") from None
    try:
        return _validate_document(document, raw)
    except SnapshotError as error:
        raise SnapshotError(f"snapshot {source}: {error}") from None
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SnapshotError(f"malformed snapshot {source}: {error}") from None


def _validate_document(document, raw: bytes) -> dict:
    if not isinstance(document, dict):
        raise SnapshotError("root must be an object")
    if document.get("format") != FORMAT_NAME:
        raise SnapshotError(
            f"not a {FORMAT_NAME} snapshot (format={document.get('format')!r})"
        )
    version = document.get("version")
    if version not in (2, FORMAT_VERSION):
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError(f"version-{version} snapshot missing payload object")
    declared = document.get("digest")
    # The stored payload (last in the document) is hashed as it lies; only
    # a payload not stored canonically (an older writer's) is re-serialised.
    actual = hashlib.sha256(raw[raw.find(b',"payload":') + 11:-1]).hexdigest()
    if declared != actual:
        actual = payload_digest(payload)
    if declared != actual:
        raise SnapshotError(
            f"payload digest mismatch (declared {declared!r}, "
            f"computed {actual!r}) — snapshot is corrupt"
        )
    if version == 2:
        payload = _from_v2(payload)
    for key in _PAYLOAD_FIELDS:
        if key not in payload:
            raise SnapshotError(f"snapshot missing field {key!r}")
    # Columns that would zip short, and a truncated row table, must raise.
    rows = _table_length("row table", payload.get("rids"), *payload["columns"])
    _table_length("Dewey table", payload["dewey_rids"], *payload["dewey_levels"])
    if rows != payload["row_slots"] and not payload.get("partial"):
        raise SnapshotError(
            f"row count mismatch: {payload['row_slots']} slots declared, "
            f"{rows} rows present — snapshot is truncated"
        )
    live = rows - len(payload.get("deleted", []))
    if live != payload["live_rows"]:
        raise SnapshotError(
            f"{payload['live_rows']} live rows declared, the row table and "
            f"its tombstones leave {live}"
        )
    return payload


def _from_v2(payload: dict) -> dict:
    """A version-2 payload (``[rid, row]`` and ``[rid, components]`` lists
    in rid order) in the version-3 shape, its row table's rids kept."""
    payload["rids"], rows = _columns(payload.pop("rows"), 2)
    payload["columns"] = _columns(rows, len(payload["schema"]))
    payload["dewey_rids"], deweys = _columns(payload.pop("deweys"), 2)
    payload["dewey_levels"] = _columns(deweys, len(payload["ordering"]) + 1)
    return payload


def _table_length(table: str, *columns) -> int:
    """The one length of a table's columns (an implicit rid column: None)."""
    lengths = {len(column) for column in columns if column is not None}
    if len(lengths) > 1:
        raise SnapshotError(f"{table} columns of unequal lengths {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def payload_tables(payload: dict) -> tuple[dict, dict, set]:
    """A payload's ``(rid -> row, live rid -> Dewey ID, tombstoned rids)``:
    rows and IDs are tuples zipped out of the stored columns, and the
    Dewey table keeps its stored (Dewey) order."""
    rids = payload.get("rids", range(payload["row_slots"]))
    rows = dict(zip(rids, zip(*payload["columns"])))
    assignments = dict(zip(payload["dewey_rids"], zip(*payload["dewey_levels"])))
    return rows, assignments, set(payload.get("deleted", ()))


def restore_dewey_space(
    payload: dict, rows: dict, deleted: Iterable[int], assignments: dict
) -> tuple[Relation, DiversityOrdering, DeweyIndex]:
    """Stored rows and their persisted rid -> Dewey table, as a live
    relation and the Dewey index over it.

    ``payload`` supplies the schema, relation name and ordering; ``rows``
    must fill every slot ``0 .. len(rows) - 1`` (a gap is a lost row, and
    raises rather than renumbering).  Rows are coerced a column at a
    time; the Dewey table is sorted (one run when it comes in Dewey
    order) and walked once (:meth:`DeweyIndex.restore`), whose every
    refusal is a :class:`SnapshotError` here.
    """
    schema = Schema(Attribute(n, AttributeKind(k)) for n, k in payload["schema"])
    relation = Relation(schema, name=payload.get("name", "R"))
    try:
        ordered = list(map(rows.__getitem__, range(len(rows))))
    except KeyError as gap:
        raise SnapshotError(f"row table has a gap at rid {gap.args[0]}: an "
                            f"acknowledged insert is missing") from None
    relation.extend(ordered)
    for rid in deleted:
        relation.delete(rid)
    ordering = DiversityOrdering(payload["ordering"])
    try:
        dewey = DeweyIndex.restore(relation, ordering, assignments)
    except DeweyAssignmentError as error:
        raise SnapshotError(f"inconsistent Dewey table: {error}") from None
    return relation, ordering, dewey


def restore_index(relation: Relation, ordering: DiversityOrdering, backend: str,
                  dewey: DeweyIndex, live: Collection[int], epoch: int) -> InvertedIndex:
    """The one way from stored state to a served index: bulk-build the
    posting lists of the ``live`` rids over an already-restored Dewey
    space (Section V-A's offline build) and adopt the persisted epoch.

    A build that posts fewer rows than are live — a live rid the Dewey
    space does not know — is an error, never a short index.
    """
    index = InvertedIndex.build(
        relation, ordering, backend=backend, dewey=dewey, rids=live
    )
    if len(index) != len(live):
        raise SnapshotError(
            f"{len(live)} rows are live but the Dewey space posts only "
            f"{len(index)} of them"
        )
    index.restore_epoch(epoch)
    return index


def load_index(source: Union[str, Path]) -> InvertedIndex:
    """Restore an inverted index (and its relation) from a snapshot."""
    payload = read_snapshot(source)
    try:
        if payload.get("partial"):
            raise SnapshotError(
                "a shard-subset snapshot; recover the deployment directory "
                "instead (repro.durability)"
            )
        rows, assignments, deleted = payload_tables(payload)
        relation, ordering, dewey = restore_dewey_space(payload, rows, deleted,
                                                        assignments)
        return restore_index(relation, ordering, payload["backend"], dewey,
                             assignments, int(payload.get("epoch", 0)))
    except SnapshotError as error:
        raise SnapshotError(f"snapshot {source}: {error}") from None
    except (LookupError, TypeError, ValueError) as error:
        # Malformed structures inside a well-checksummed envelope (wrong
        # nesting, bad attribute kinds, non-numeric components, a tombstone
        # past the row table) must not leak raw exceptions to callers.
        raise SnapshotError(f"malformed snapshot {source}: {error}") from None
