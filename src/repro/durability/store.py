"""Crash-safe single-index store: WAL-ahead mutation, snapshots, recovery.

A data directory holds everything needed to resurrect an index::

    data_dir/
        MANIFEST.json   # {"kind": "single", snapshot_every, fsync_every}
        snapshot.idx    # checksummed v2 snapshot (repro.index.snapshot)
        wal.log         # mutations since that snapshot (repro.durability.wal)

:class:`DurableIndex` wraps an :class:`~repro.index.inverted.InvertedIndex`
behind the same read protocol (the :class:`~repro.resilience.chaos.FaultyShard`
idiom) and intercepts the two mutations.  Each is appended — and fsynced,
per policy — to the WAL *before* the in-memory index changes, using
:meth:`DeweyIndex.peek` to predict the exact Dewey assignment without
mutating.  The record's ``seq`` is the mutation epoch the index will hold
*after* applying it, which makes snapshotting and log truncation safely
non-atomic: recovery simply skips records whose seq the snapshot already
covers, so a crash between the snapshot rename and the WAL truncate
replays nothing twice.

Recovery (:func:`recover_store`) validates the snapshot digest, replays
the log tolerating only a torn tail, verifies seq contiguity and that
every replayed Dewey assignment is consistent, and lands the index on the
exact pre-crash epoch so warm serving-cache entries stay valid.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Set, Union

from ..core.dewey import DeweyId
from ..index.dewey_index import DeweyAssignmentError
from ..observability import get_registry, span
from ..index.inverted import InvertedIndex
from ..index.reader import ReaderProxy
from ..index.snapshot import (
    SnapshotError,
    read_snapshot,
    restore_index,
    save_index,
)
from .crash import CrashInjector
from .errors import RecoveryError, WALError
from .wal import WalScan, WriteAheadLog, insert_record, read_wal, remove_record

MANIFEST_NAME = "MANIFEST.json"
SNAPSHOT_NAME = "snapshot.idx"
WAL_NAME = "wal.log"
MANIFEST_FORMAT = "repro-durability"
MANIFEST_VERSION = 1


@dataclass
class RecoveryReport:
    """What one store's recovery actually did (operator triage / CLI)."""

    path: Path
    snapshot_epoch: int
    replayed: int          # WAL records applied on top of the snapshot
    skipped: int           # stale records the snapshot already covered
    torn_bytes: int        # damaged tail bytes dropped (0 = clean shutdown)
    final_epoch: int

    def describe(self) -> str:
        bits = [
            f"snapshot@epoch {self.snapshot_epoch}",
            f"replayed {self.replayed} WAL record(s)",
        ]
        if self.skipped:
            bits.append(f"skipped {self.skipped} stale")
        if self.torn_bytes:
            bits.append(f"dropped {self.torn_bytes} torn tail byte(s)")
        bits.append(f"epoch {self.final_epoch}")
        return ", ".join(bits)


class DurableIndex(ReaderProxy):
    """An inverted index whose mutations survive crashes.

    Presents the full InvertedIndex read protocol (so engines, cursors and
    :class:`~repro.sharding.ShardedIndex` treat it as a plain shard) and
    write-ahead-logs ``insert``/``remove``.  When ``snapshot_every`` is
    positive, every mutation that brings the log to that many records
    triggers a snapshot + log truncation inline.

    ``owned`` scopes partial (per-shard) snapshots to the row slots this
    index is responsible for; ``None`` snapshots the whole relation.
    """

    __slots__ = (
        "_target", "_wal", "_snapshot_path", "_snapshot_every",
        "_injector", "_owned", "snapshots", "recovery",
        "__weakref__",  # metrics collectors hold the index weakly
    )

    def __init__(
        self,
        index: InvertedIndex,
        wal: WriteAheadLog,
        snapshot_path: Union[str, Path],
        snapshot_every: int = 0,
        injector: Optional[CrashInjector] = None,
        owned: Optional[Set[int]] = None,
        recovery: Optional[RecoveryReport] = None,
    ):
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 disables)")
        self._target = index
        self._wal = wal
        self._snapshot_path = Path(snapshot_path)
        self._snapshot_every = snapshot_every
        self._injector = injector
        self._owned = owned
        self.snapshots = 0
        self.recovery = recovery

    # ------------------------------------------------------------------
    # Introspection (the read protocol is ReaderProxy's, over the index).
    # NOTE: the unwrap accessor is deliberately named ``index`` — shards
    # expose chaos wrappers via ``inner`` and ShardedIndex.clear_chaos
    # strips *that* name; durability must survive chaos clearing.
    # ------------------------------------------------------------------
    @property
    def index(self) -> InvertedIndex:
        return self._target

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def snapshot_path(self) -> Path:
        return self._snapshot_path

    @property
    def snapshot_every(self) -> int:
        return self._snapshot_every

    def __repr__(self) -> str:
        return (
            f"DurableIndex({self._target!r}, wal={self._wal.path.name}, "
            f"snapshot_every={self._snapshot_every or 'off'})"
        )

    # ------------------------------------------------------------------
    # Durable mutations
    # ------------------------------------------------------------------
    def insert(self, rid: int) -> DeweyId:
        """WAL-then-index one new relation row.

        The Dewey assignment is *peeked* (not applied) first so the log
        record carries the exact ID the in-memory mutation is about to
        assign — replay force-applies it bit-identically no matter what
        sibling-dictionary state a restored index happens to have.
        """
        dewey = self._target.dewey.peek(rid)
        if dewey in self._target.all_postings():
            return dewey  # idempotent re-insert: no mutation, no record
        row = self._target.relation[rid]
        self._wal.append(insert_record(self._target.epoch + 1, rid, row, dewey))
        if self._owned is not None:
            self._owned.add(rid)
        applied = self._target.insert(rid)
        self._maybe_snapshot()
        return applied

    def remove(self, rid: int) -> Optional[DeweyId]:
        """WAL-then-unindex one row; returns its Dewey ID (None if absent)."""
        if rid not in self._target.dewey:
            return None
        dewey = self._target.dewey.dewey_of(rid)
        if dewey not in self._target.all_postings():
            return None  # not this shard's row (shared global Dewey space)
        self._wal.append(remove_record(self._target.epoch + 1, rid, dewey))
        result = self._target.remove(rid)
        self._maybe_snapshot()
        return result

    # ------------------------------------------------------------------
    # Snapshotting
    # ------------------------------------------------------------------
    def _maybe_snapshot(self) -> None:
        if (
            self._snapshot_every
            and self._wal.appended_since_truncate >= self._snapshot_every
        ):
            self.snapshot()

    def snapshot(self) -> None:
        """Write an atomic snapshot, then truncate the now-covered log."""
        with span("durability.snapshot", epoch=self._target.epoch):
            rids = sorted(self._owned) if self._owned is not None else None
            save_index(self._target, self._snapshot_path, rids=rids,
                       injector=self._injector)
            self._wal.truncate()
            if self._injector is not None and self._injector.reach(
                "snapshot-post-truncate"
            ):
                self._injector.crash()
            self.snapshots += 1
            get_registry().counter(
                "repro_snapshots_total", "Index snapshots written"
            ).inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self, injector: Optional[CrashInjector]) -> None:
        """(Re)attach a crash injector to this store and its WAL — lets the
        crash matrix arm a steady-state workload without instrumenting the
        store's own creation."""
        self._injector = injector
        self._wal._injector = injector

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def write_manifest(data_dir: Path, manifest: dict) -> None:
    """Atomically persist the (static) store configuration."""
    document = dict(manifest)
    document.setdefault("format", MANIFEST_FORMAT)
    document.setdefault("version", MANIFEST_VERSION)
    target = data_dir / MANIFEST_NAME
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, target)


def read_manifest(data_dir: Union[str, Path]) -> dict:
    data_dir = Path(data_dir)
    path = data_dir / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except OSError:
        raise RecoveryError(data_dir, f"missing {MANIFEST_NAME}") from None
    except ValueError as error:
        raise RecoveryError(
            data_dir, f"unreadable {MANIFEST_NAME}: {error}"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise RecoveryError(
            data_dir, f"{MANIFEST_NAME} is not a {MANIFEST_FORMAT} manifest"
        )
    return manifest


# ----------------------------------------------------------------------
# Creation and recovery
# ----------------------------------------------------------------------
def create_store(
    index: InvertedIndex,
    data_dir: Union[str, Path],
    snapshot_every: int = 0,
    fsync_every: int = 1,
    injector: Optional[CrashInjector] = None,
) -> DurableIndex:
    """Initialise a data directory around an existing in-memory index."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(data_dir, {
        "kind": "single",
        "snapshot_every": snapshot_every,
        "fsync_every": fsync_every,
    })
    snapshot_path = data_dir / SNAPSHOT_NAME
    save_index(index, snapshot_path)
    wal = WriteAheadLog.create(data_dir / WAL_NAME, fsync_every=fsync_every,
                               injector=injector)
    return DurableIndex(index, wal, snapshot_path,
                        snapshot_every=snapshot_every, injector=injector)


def parse_record(record, label) -> tuple:
    """Validate one decoded WAL record; returns (seq, op, rid, dewey, row)."""
    try:
        seq = int(record["seq"])
        op = record["op"]
        rid = int(record["rid"])
        dewey = tuple(int(c) for c in record["dewey"])
    except (KeyError, TypeError, ValueError):
        raise RecoveryError(label, f"malformed WAL record {record!r}") from None
    if op not in ("insert", "remove"):
        raise RecoveryError(label, f"unknown WAL op {op!r} in record {seq}")
    row = record.get("row")
    if op == "insert" and not isinstance(row, list):
        raise RecoveryError(label, f"insert record {seq} has no row")
    return seq, op, rid, dewey, row


def unreplayed(records: list, snapshot_epoch: int, label):
    """The parsed records a snapshot at ``snapshot_epoch`` does not cover.

    Records with ``seq <=`` the snapshot epoch are dropped (superseded — a
    crash between the snapshot rename and the log truncate leaves them
    behind); the rest must be contiguous from the next epoch.  Every
    record is either dropped or yielded, so a caller that counts what it
    applied knows ``skipped = len(records) - replayed`` and lands on epoch
    ``snapshot_epoch + replayed``.
    """
    expected = snapshot_epoch
    for record in records:
        parsed = parse_record(record, label)
        if parsed[0] <= snapshot_epoch:
            continue
        expected += 1
        if parsed[0] != expected:
            raise RecoveryError(
                label,
                f"WAL sequence gap: expected seq {expected}, found "
                f"{parsed[0]} (acknowledged mutations are missing)",
            )
        yield parsed


class ShardState(NamedTuple):
    """One store's content after its WAL is folded over its snapshot."""

    rows: dict          # rid -> row, every slot the store owns (live or not)
    assignments: dict   # live rid -> Dewey ID
    deleted: set        # tombstoned rids
    epoch: int
    replayed: int       # WAL records applied on top of the snapshot
    skipped: int        # stale records the snapshot already covered

    @property
    def live(self) -> list:
        return sorted(self.assignments)


def fold_shard_state(payload: dict, records: list, label) -> ShardState:
    """Snapshot payload + scanned WAL records -> the state they describe.

    Pure bookkeeping over rids and Dewey IDs (no index is built), shared by
    every consumer of a shard directory: full recovery, replica bootstrap
    and spawn-worker bootstrap.  Raises :class:`RecoveryError` under
    ``label`` when the log contradicts the snapshot or itself.
    """
    rows = {int(rid): row for rid, row in payload["rows"]}
    assignments = {
        int(rid): tuple(int(component) for component in components)
        for rid, components in payload["deweys"]
    }
    deleted = {int(rid) for rid in payload.get("deleted", [])}
    snapshot_epoch = int(payload.get("epoch", 0))
    replayed = 0
    for seq, op, rid, dewey, row in unreplayed(records, snapshot_epoch, label):
        taken = assignments.get(rid)
        if op == "insert":
            if rid in rows and list(rows[rid]) != list(row):
                raise RecoveryError(
                    label,
                    f"insert record {seq} disagrees with the snapshotted "
                    f"row {rid}",
                )
            if taken is not None and taken != dewey:
                raise RecoveryError(
                    label,
                    f"insert record {seq} assigns rid {rid} Dewey "
                    f"{list(dewey)} but {list(taken)} is already taken",
                )
            rows[rid] = row
            assignments[rid] = dewey
        else:  # remove
            if taken != dewey:
                raise RecoveryError(
                    label,
                    f"remove record {seq} references rid {rid} with Dewey "
                    f"{list(dewey)} not live in this shard",
                )
            del assignments[rid]
            deleted.add(rid)
        replayed += 1
    return ShardState(rows, assignments, deleted, snapshot_epoch + replayed,
                      replayed, len(records) - replayed)


def replay_wal_records(
    index: InvertedIndex,
    records: list,
    label: Union[str, Path],
) -> tuple[int, int]:
    """Apply WAL records on top of a freshly restored index.

    Records the snapshot already covers are skipped, the remainder must
    be contiguous (:func:`unreplayed`).  Every replayed record is
    cross-checked against the index (rows match, Dewey assignments
    consistent) so damage that slipped past the checksums still surfaces
    as :class:`RecoveryError`, never as a silently wrong index.  Returns
    ``(replayed, skipped)``.
    """
    relation = index.relation
    start = index.epoch
    replayed = 0
    for seq, op, rid, dewey, row in unreplayed(records, start, label):
        if op == "insert":
            if rid == len(relation):
                relation.insert(row)
            elif rid < len(relation):
                if list(relation[rid]) != list(relation.schema.coerce_row(row)):
                    raise RecoveryError(
                        label,
                        f"insert record {seq} disagrees with row {rid} "
                        f"restored from the snapshot",
                    )
            else:
                raise RecoveryError(
                    label,
                    f"insert record {seq} references rid {rid} beyond the "
                    f"row table (gap in acknowledged inserts)",
                )
            try:
                index.dewey.force(rid, dewey)
            except DeweyAssignmentError as error:
                raise RecoveryError(
                    label, f"insert record {seq}: {error}"
                ) from None
            index.index_restored_row(rid)
        else:  # remove
            if rid not in index.dewey or index.dewey.dewey_of(rid) != dewey:
                raise RecoveryError(
                    label,
                    f"remove record {seq} references rid {rid} with Dewey "
                    f"{list(dewey)} not present in the recovered index",
                )
            index.remove(rid)
            relation.delete(rid)
        replayed += 1
    index.restore_epoch(start + replayed)
    return replayed, len(records) - replayed


def _scan_wal_for_recovery(wal_path: Path, label) -> WalScan:
    if not wal_path.exists():
        # A crash between the snapshot write and WAL creation: no log means
        # no mutations past the snapshot.
        return WalScan([], valid_end=0, file_size=0, torn=False)
    try:
        return read_wal(wal_path)
    except WALError as error:
        raise RecoveryError(label, str(error)) from error


def reopen_wal(wal_path: Path, fsync_every: int,
               injector: Optional[CrashInjector]) -> WriteAheadLog:
    """A recovered store's log, open for appending (created when a crash
    fell between the snapshot write and WAL creation)."""
    if wal_path.exists():
        return WriteAheadLog.open_for_append(
            wal_path, fsync_every=fsync_every, injector=injector
        )[0]
    return WriteAheadLog.create(wal_path, fsync_every=fsync_every,
                                injector=injector)


def recover_store(
    data_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    fsync_every: Optional[int] = None,
    injector: Optional[CrashInjector] = None,
) -> DurableIndex:
    """Recover a single-index data directory and reopen it for writing.

    ``snapshot_every`` / ``fsync_every`` default to the manifest's values;
    pass explicit ones to override the persisted policy.
    """
    data_dir = Path(data_dir)
    manifest = read_manifest(data_dir)
    if manifest.get("kind") != "single":
        raise RecoveryError(
            data_dir,
            f"manifest kind {manifest.get('kind')!r} is not a single-index "
            f"store (use repro.durability.recover for dispatch)",
        )
    if snapshot_every is None:
        snapshot_every = int(manifest.get("snapshot_every", 0))
    if fsync_every is None:
        fsync_every = int(manifest.get("fsync_every", 1))
    snapshot_path = data_dir / SNAPSHOT_NAME
    with span("durability.recover", path=str(data_dir)):
        try:
            payload = read_snapshot(snapshot_path)
            index = restore_index(payload, label=f"snapshot {snapshot_path}")
        except SnapshotError as error:
            raise RecoveryError(data_dir, str(error)) from error
        wal_path = data_dir / WAL_NAME
        scan = _scan_wal_for_recovery(wal_path, data_dir)
        snapshot_epoch = index.epoch
        replayed, skipped = replay_wal_records(index, scan.records, data_dir)
        wal = reopen_wal(wal_path, fsync_every, injector)
    report = RecoveryReport(
        path=data_dir,
        snapshot_epoch=snapshot_epoch,
        replayed=replayed,
        skipped=skipped,
        torn_bytes=scan.dropped_bytes,
        final_epoch=index.epoch,
    )
    registry = get_registry()
    registry.counter("repro_recoveries_total", "Store recoveries").inc()
    registry.counter("repro_recovery_replayed_total",
                     "WAL records replayed during recovery").inc(replayed)
    registry.counter("repro_recovery_skipped_total",
                     "Stale WAL records skipped during recovery").inc(skipped)
    registry.counter("repro_recovery_torn_bytes_total",
                     "Torn WAL tail bytes dropped during recovery"
                     ).inc(scan.dropped_bytes)
    return DurableIndex(index, wal, snapshot_path,
                        snapshot_every=snapshot_every, injector=injector,
                        recovery=report)
