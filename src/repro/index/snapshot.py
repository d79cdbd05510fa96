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

Format (version 2): a gzip-compressed (level 6) JSON envelope ``{format,
version, digest, payload}``.  The payload is serialised once, canonically
(sorted keys, no spaces): those bytes are both the input of ``digest``
(SHA-256) and the stored payload, so a flipped bit anywhere in the payload
fails the load instead of silently corrupting the restored index.  Writes
are atomic (:func:`repro.storage.disk.replace_atomically`): the document
goes to a same-directory temp file (fsynced), which is renamed over the
target before the directory is fsynced, so a crash mid-write can never
leave a truncated snapshot under the real name.  Rows are keyed by rid,
which lets a snapshot carry a *subset* of the relation (``rids=``) — one
file per shard of a sharded deployment (see :mod:`repro.durability.sharded`).
Version-1 files (no digest) are refused.
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
FORMAT_VERSION = 2
COMPRESS_LEVEL = 6  # gzip's default 9: ≈ 3.5x the time, ≈ 6 % fewer bytes

_PAYLOAD_FIELDS = ("schema", "rows", "ordering", "deweys", "backend",
                   "row_slots", "live_rows")


class SnapshotError(ValueError):
    """Raised for malformed or incompatible snapshot files."""


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------
def build_payload(index: InvertedIndex, rids: Optional[Iterable[int]] = None) -> dict:
    """The version-2 snapshot payload for ``index``.

    ``rids`` restricts the row table to a subset of relation slots (a
    shard's owned rows, live and tombstoned); the Dewey table always
    reflects exactly what *this* index serves (its live postings).
    """
    relation = index.relation
    if rids is None:
        scope = range(len(relation))
        partial = False
    else:
        scope = sorted(set(int(rid) for rid in rids))
        partial = True
    # Rows and Dewey IDs are already tuples, which json writes as lists.
    rows = list(zip(scope, relation.rows_of(scope)))
    deleted = [rid for rid in scope if relation.is_deleted(rid)]
    postings = list(index.all_postings())
    deweys = sorted(zip(index.dewey.rids_of(postings), postings))
    return {
        "name": relation.name,
        "backend": index.backend,
        "ordering": list(index.ordering.attributes),
        "schema": [
            [attribute.name, attribute.kind.value]
            for attribute in relation.schema
        ],
        "row_slots": len(relation),
        "live_rows": len(rows) - len(deleted),
        "partial": partial,
        "rows": rows,
        "deleted": deleted,
        "deweys": deweys,
        "epoch": index.epoch,
    }


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


def save_index(
    index: InvertedIndex,
    target: Union[str, Path],
    rids: Optional[Iterable[int]] = None,
) -> None:
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
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotError("version-2 snapshot missing payload object")
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
    for key in _PAYLOAD_FIELDS:
        if key not in payload:
            raise SnapshotError(f"snapshot missing field {key!r}")
    # Silent truncation of the row table must raise, never load short.
    if len(payload["rows"]) != payload["row_slots"] and not payload.get("partial"):
        raise SnapshotError(
            f"row count mismatch: {payload['row_slots']} slots declared, "
            f"{len(payload['rows'])} rows present — snapshot is truncated"
        )
    live = len(payload["rows"]) - len(payload.get("deleted", []))
    if live != payload["live_rows"]:
        raise SnapshotError(
            f"{payload['live_rows']} live rows declared, the row table and "
            f"its tombstones leave {live}"
        )
    return payload


def payload_tables(payload: dict) -> tuple[dict, dict, set]:
    """A payload's ``(rid -> row, live rid -> Dewey ID, tombstoned rids)``."""
    rows = {int(rid): row for rid, row in payload["rows"]}
    assignments = {
        int(rid): tuple(map(int, components))
        for rid, components in payload["deweys"]
    }
    deleted = {int(rid) for rid in payload.get("deleted", [])}
    return rows, assignments, deleted


def restore_dewey_space(
    payload: dict, rows: dict, deleted: Iterable[int], assignments: dict
) -> tuple[Relation, DiversityOrdering, DeweyIndex]:
    """Stored rows and their persisted rid -> Dewey table, as a live
    relation and the Dewey index over it.

    ``payload`` supplies the schema, relation name and ordering; ``rows``
    must fill every slot ``0 .. len(rows) - 1`` (a gap is a lost row, and
    raises rather than renumbering).  Rows are coerced a column at a
    time; the Dewey table is sorted and walked once
    (:meth:`DeweyIndex.restore`), whose every refusal is a
    :class:`SnapshotError` here.
    """
    schema = Schema(
        Attribute(name, AttributeKind(kind)) for name, kind in payload["schema"]
    )
    relation = Relation(schema, name=payload.get("name", "R"))
    try:
        ordered = list(map(rows.__getitem__, range(len(rows))))
    except KeyError as gap:
        raise SnapshotError(
            f"row table has a gap at rid {gap.args[0]}: an acknowledged "
            f"insert is missing"
        ) from None
    relation.extend(ordered)
    for rid in deleted:
        relation.delete(rid)
    ordering = DiversityOrdering(payload["ordering"])
    try:
        dewey = DeweyIndex.restore(relation, ordering, assignments)
    except DeweyAssignmentError as error:
        raise SnapshotError(f"inconsistent Dewey table: {error}") from None
    return relation, ordering, dewey


def restore_index(
    relation: Relation,
    ordering: DiversityOrdering,
    backend: str,
    dewey: DeweyIndex,
    live: Collection[int],
    epoch: int,
) -> InvertedIndex:
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
        relation, ordering, dewey = restore_dewey_space(
            payload, rows, deleted, assignments
        )
        return restore_index(
            relation, ordering, payload["backend"], dewey, assignments,
            int(payload.get("epoch", 0)),
        )
    except SnapshotError as error:
        raise SnapshotError(f"snapshot {source}: {error}") from None
    except (LookupError, TypeError, ValueError) as error:
        # Malformed structures inside a well-checksummed envelope (wrong
        # nesting, bad attribute kinds, non-numeric components, a tombstone
        # past the row table) must not leak raw exceptions to callers.
        raise SnapshotError(f"malformed snapshot {source}: {error}") from None
