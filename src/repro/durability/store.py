"""Crash-safe single-index store: WAL-ahead mutation, snapshots, recovery.

A data directory holds everything needed to resurrect an index::

    data_dir/
        MANIFEST.json   # {"kind": "single", snapshot_every, fsync_every}
        snapshot.idx    # checksummed snapshot (repro.index.snapshot)
        wal.log         # mutations since that snapshot (repro.durability.wal)

:class:`DurableIndex` wraps an :class:`~repro.index.inverted.InvertedIndex`
behind the same read protocol (a :class:`~repro.index.reader.ReaderProxy`)
and intercepts the two mutations.  Each is appended — and fsynced,
per policy — to the WAL *before* the in-memory index changes, using
:meth:`DeweyIndex.peek` to predict the exact Dewey assignment without
mutating.  The record's ``seq`` is the mutation epoch the index will hold
*after* applying it, which makes snapshotting and log truncation safely
non-atomic: recovery simply skips records whose seq the snapshot already
covers, so a crash between the snapshot rename and the WAL truncate
replays nothing twice.

Recovery is one routine for both store shapes (:func:`recover_stores`; a
single-index store is its one-store case): validate the snapshot digest,
fold the log over the snapshot tolerating only a torn tail
(:func:`fold_shard_state`, the only code that walks a log — seq
contiguity, rows and Dewey assignments cross-checked), then derive the
posting lists from the folded state with the paper's one offline build,
landing on the exact pre-crash epoch so warm serving-cache entries stay
valid.  Like a snapshot, the fold keeps Dewey assignments of live rows
only: sibling numbers and ordinals of rows inserted *and* removed inside
the log tail are forgotten, as they are for rows removed before the
snapshot.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, NamedTuple, Optional, Set, Union

from ..core.dewey import DeweyId
from ..observability import get_registry, span
from ..index.inverted import InvertedIndex
from ..index.reader import ReaderProxy
from ..index.snapshot import (
    SnapshotError,
    payload_tables,
    read_snapshot,
    restore_dewey_space,
    restore_index,
    save_index,
)
from ..storage.disk import make_dirs, replace_atomically
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
        "_owned", "snapshots", "recovery",
        "__weakref__",  # metrics collectors hold the index weakly
    )

    def __init__(
        self,
        index: InvertedIndex,
        wal: WriteAheadLog,
        snapshot_path: Union[str, Path],
        snapshot_every: int = 0,
        owned: Optional[Set[int]] = None,
        recovery: Optional[RecoveryReport] = None,
    ):
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 disables)")
        self._target = index
        self._wal = wal
        self._snapshot_path = Path(snapshot_path)
        self._snapshot_every = snapshot_every
        self._owned = owned
        self.snapshots = 0
        self.recovery = recovery

    # ------------------------------------------------------------------
    # Introspection (the read protocol is ReaderProxy's, over the index)
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
            save_index(self._target, self._snapshot_path, rids=rids)
            self._wal.truncate()
            self.snapshots += 1
            get_registry().counter(
                "repro_snapshots_total", "Index snapshots written"
            ).inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
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
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    replace_atomically(data_dir / MANIFEST_NAME, text.encode("utf-8"))


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
) -> DurableIndex:
    """Initialise a data directory around an existing in-memory index.
    The manifest is the commit point: it is written last, once the
    snapshot and the log are durable, so a crash leaves no store."""
    data_dir = Path(data_dir)
    make_dirs(data_dir)
    snapshot_path = data_dir / SNAPSHOT_NAME
    save_index(index, snapshot_path)
    wal = WriteAheadLog.create(data_dir / WAL_NAME, fsync_every=fsync_every)
    write_manifest(data_dir, {
        "kind": "single",
        "snapshot_every": snapshot_every,
        "fsync_every": fsync_every,
    })
    return DurableIndex(index, wal, snapshot_path,
                        snapshot_every=snapshot_every)


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

    Pure bookkeeping over rids and Dewey IDs (no index is built) and the
    only code that walks a log, shared by every consumer of a store
    directory: recovery of either shape, replica bootstrap and
    spawn-worker bootstrap.  Raises :class:`RecoveryError` under ``label``
    when the log contradicts the snapshot or itself.

    Records with ``seq <=`` the snapshot epoch are skipped (superseded — a
    crash between the snapshot rename and the log truncate leaves them
    behind); the rest must be contiguous from the next epoch, so the fold
    lands on epoch ``snapshot epoch + replayed``.
    """
    rows, assignments, deleted = payload_tables(payload)
    snapshot_epoch = int(payload.get("epoch", 0))
    replayed = 0
    for record in records:
        seq, op, rid, dewey, row = parse_record(record, label)
        if seq <= snapshot_epoch:
            continue
        if seq != snapshot_epoch + replayed + 1:
            raise RecoveryError(
                label,
                f"WAL sequence gap: expected seq "
                f"{snapshot_epoch + replayed + 1}, found {seq} "
                f"(acknowledged mutations are missing)",
            )
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


def read_store(store_dir: Path) -> tuple[dict, WalScan]:
    """One store directory's ``(snapshot payload, WAL scan)``.

    The payload is digest-verified and the log tolerates only a torn
    tail; anything else raises ``SnapshotError``/``WALError``, which
    callers turn into their own error under :func:`refusing_damage`.
    """
    payload = read_snapshot(store_dir / SNAPSHOT_NAME)
    wal_path = store_dir / WAL_NAME
    if not wal_path.exists():
        # A crash between the snapshot write and WAL creation: no log means
        # no mutations past the snapshot.
        return payload, WalScan([], valid_end=0, file_size=0, torn=False)
    return payload, read_wal(wal_path)


@contextmanager
def refusing_damage(label):
    """Whatever decoding a damaged store raises leaves as a
    :class:`RecoveryError` under ``label`` — including the raw exceptions
    of a checksummed snapshot whose payload is nevertheless malformed
    (wrong nesting, unknown backend or attribute kind, non-numeric Dewey
    components, a tombstone past the row table)."""
    try:
        yield
    except (SnapshotError, WALError) as error:
        raise RecoveryError(label, str(error)) from error
    except (LookupError, TypeError, ValueError) as error:
        raise RecoveryError(
            label, f"malformed snapshot payload: {error}"
        ) from None


def recover_stores(
    data_dir: Path,
    manifest: dict,
    store_dirs: List[Path],
    snapshot_every: Optional[int],
    fsync_every: Optional[int],
) -> List[DurableIndex]:
    """Recover every store of one deployment and reopen it for writing.

    The one recovery: a single-index store is the one-store case (files at
    the directory root, whole-relation snapshot), a sharded deployment has
    one store per shard directory.  Each store's log is folded over its
    snapshot, the folds are unioned into one relation and one Dewey space
    — routing partitions the row space, so the union must cover every rid
    slot exactly once — and every store's posting lists are bulk-built
    over that space (:func:`~repro.index.snapshot.restore_index`), landing
    on the exact pre-crash epoch so warm serving-cache entries stay valid.
    ``snapshot_every`` / ``fsync_every`` default to the manifest's values.
    """
    sharded = manifest.get("kind") == "sharded"
    if snapshot_every is None:
        snapshot_every = int(manifest.get("snapshot_every", 0))
    if fsync_every is None:
        fsync_every = int(manifest.get("fsync_every", 1))
    header: dict = {}
    rows: dict = {}
    deleted: Set[int] = set()
    assignments: dict = {}
    stores = []  # per store: (report, live rids, owned rids, log tail)
    with refusing_damage(data_dir):
        for store_dir in store_dirs:
            payload, scan = read_store(store_dir)
            if payload.get("partial") and not sharded:
                raise RecoveryError(
                    data_dir,
                    f"{store_dir / SNAPSHOT_NAME} is a shard-subset snapshot, "
                    f"not a single-index store's",
                )
            if not header:
                header = {key: payload.get(key)
                          for key in ("schema", "ordering", "backend", "name")}
            for key, value in header.items():
                if payload.get(key) != value:
                    raise RecoveryError(
                        data_dir,
                        f"{store_dir.name} disagrees with "
                        f"{store_dirs[0].name} on {key!r}",
                    )
            state = fold_shard_state(payload, scan.records, store_dir)
            shared = rows.keys() & state.rows.keys()
            if shared:
                raise RecoveryError(
                    store_dir,
                    f"rid {min(shared)} appears in more than one shard",
                )
            rows.update(state.rows)
            deleted |= state.deleted
            assignments.update(state.assignments)
            stores.append((
                RecoveryReport(
                    path=store_dir,
                    snapshot_epoch=state.epoch - state.replayed,
                    replayed=state.replayed,
                    skipped=state.skipped,
                    torn_bytes=scan.dropped_bytes,
                    final_epoch=state.epoch,
                ),
                state.live,
                set(state.rows) if sharded else None,
                # The reopen needs where the intact log ends, not its
                # records: they are folded and freed before the builds.
                replace(scan, records=[]),
            ))
        # The decoded documents are dropped before the bulk builds, whose
        # run accumulators are recovery's memory peak.
        del payload, scan, state
        relation, ordering, dewey = restore_dewey_space(
            header, rows, deleted, assignments
        )
        del rows, deleted, assignments
        indexes = []
        for report, live, _, _ in stores:
            with span("durability.recover", path=str(report.path)):
                indexes.append(restore_index(
                    relation, ordering, header["backend"], dewey, live,
                    report.final_epoch,
                ))
    registry = get_registry()
    durable: List[DurableIndex] = []
    for (report, _, owned, tail), index in zip(stores, indexes):
        registry.counter("repro_recoveries_total", "Store recoveries").inc()
        registry.counter("repro_recovery_replayed_total",
                         "WAL records replayed during recovery"
                         ).inc(report.replayed)
        registry.counter("repro_recovery_skipped_total",
                         "Stale WAL records skipped during recovery"
                         ).inc(report.skipped)
        registry.counter("repro_recovery_torn_bytes_total",
                         "Torn WAL tail bytes dropped during recovery"
                         ).inc(report.torn_bytes)
        durable.append(DurableIndex(
            index,
            WriteAheadLog.open_for_append(report.path / WAL_NAME, tail,
                                          fsync_every),
            report.path / SNAPSHOT_NAME,
            snapshot_every=snapshot_every, owned=owned, recovery=report,
        ))
    return durable


def recover_store(
    data_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    fsync_every: Optional[int] = None,
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
    return recover_stores(data_dir, manifest, [data_dir], snapshot_every,
                          fsync_every)[0]
