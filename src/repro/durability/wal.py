"""The per-index write-ahead log.

Record framing (all integers big-endian)::

    file   := magic "RPROWAL\\x01" (8 bytes) record*
    record := length(4) crc32(4) payload(length)
    payload := JSON {"seq", "op": "insert"|"remove", "rid", "dewey", ["row"]}

Every mutation is appended — and, per the fsync policy, made durable —
*before* the in-memory index mutates (see
:class:`repro.durability.store.DurableIndex`).  ``seq`` is tied to the
index's mutation epoch: the record with ``seq == n`` is exactly the
mutation that moved the epoch from ``n-1`` to ``n``, which is what lets
recovery land on the same epoch the crashed process had and keep the
serving caches' invalidation contract intact across a restart.

Reading tolerates a *torn tail* — the expected signature of a crash mid-
append: a final record whose frame is incomplete, whose declared length
overruns the file, or whose checksum fails **at end-of-file** is dropped
(that mutation was never acknowledged).  A checksum failure *before* the
tail means previously acknowledged bytes are damaged and raises
:class:`~repro.durability.errors.WALCorruptionError` instead of silently
replaying a prefix.

``fsync_every`` batches fsyncs: 1 (default) syncs every append — full
durability; N>1 amortises the sync over N records — a crash can lose at
most the last N un-synced mutations (each still atomic); 0 leaves syncing
to explicit :meth:`WriteAheadLog.sync` / :meth:`WriteAheadLog.close`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from ..observability import MONOTONIC, get_registry
from ..storage import disk
from .errors import WALCorruptionError, WALError

MAGIC = b"RPROWAL\x01"
_FRAME = struct.Struct(">II")
#: Sanity bound on a declared record length; anything larger is treated as
#: a torn/garbage length prefix, not an allocation request.
MAX_RECORD_BYTES = 1 << 28


def insert_record(seq: int, rid: int, row, dewey) -> dict:
    """The WAL payload for one insert: carries the row values (the relation
    is in-memory, so recovery must re-materialise the tuple from the log)
    and the predicted Dewey assignment (replay forces it bit-exactly)."""
    return {"seq": seq, "op": "insert", "rid": rid, "row": list(row),
            "dewey": list(dewey)}


def remove_record(seq: int, rid: int, dewey) -> dict:
    return {"seq": seq, "op": "remove", "rid": rid, "dewey": list(dewey)}


def encode_frame(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalScan:
    """Outcome of reading one WAL file."""

    records: List[dict]
    valid_end: int        # byte offset just past the last good record
    file_size: int
    torn: bool            # a damaged/incomplete tail was dropped

    @property
    def dropped_bytes(self) -> int:
        return self.file_size - self.valid_end


def read_wal(path: Union[str, Path]) -> WalScan:
    """Decode every intact record, tolerating a torn tail.

    Raises :class:`WALCorruptionError` when damage sits *before* the tail
    (a mid-log checksum failure), and :class:`WALError` when the file is
    not a WAL at all.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise WALError(f"cannot read WAL {path}: {error}") from None
    if data[: len(MAGIC)] != MAGIC:
        if MAGIC.startswith(data):
            # A crash between file creation and the magic's fsync leaves a
            # strict prefix: an empty log.
            return WalScan([], valid_end=0, file_size=len(data), torn=bool(data))
        raise WALError(f"{path} is not a repro WAL (bad magic)")
    records: List[dict] = []
    offset = len(MAGIC)
    size = len(data)
    while offset < size:
        if size - offset < _FRAME.size:
            break  # torn frame header
        length, crc = _FRAME.unpack_from(data, offset)
        extent = offset + _FRAME.size + length
        if length > MAX_RECORD_BYTES or extent > size:
            break  # torn/garbage length prefix or short payload
        payload = data[offset + _FRAME.size: extent]
        if zlib.crc32(payload) != crc:
            if extent == size:
                break  # bit-flipped or torn final record: drop the tail
            raise WALCorruptionError(path, offset, "checksum mismatch mid-log")
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            raise WALCorruptionError(
                path, offset, "checksummed record is not valid JSON"
            ) from None
        records.append(record)
        offset = extent
    return WalScan(records, valid_end=offset, file_size=size,
                   torn=offset < size)


class WriteAheadLog:
    """Appender for one WAL file, with fsync batching.

    Every operation that decides what a crash leaves on disk — creating,
    fsyncing and truncating the file — goes through
    :data:`repro.storage.disk.DISK`; a record is one ``write`` on the
    handle the seam opened.
    """

    __slots__ = (
        "_path", "_handle", "_fsync_every",
        "_offset", "_synced", "_pending",
        "appended", "appended_since_truncate", "bytes_appended", "syncs",
        "_m_appends", "_m_bytes", "_m_syncs", "_m_truncates", "_m_sync_ms",
    )

    def __init__(
        self,
        path: Union[str, Path],
        fsync_every: int = 1,
        _create: bool = False,
    ):
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self._path = Path(path)
        self._fsync_every = fsync_every
        self.appended = 0
        self.appended_since_truncate = 0
        self.bytes_appended = 0
        self.syncs = 0
        # Process-wide instruments, resolved once per log (the append path
        # is the hot mutation path; a disabled registry hands back no-ops).
        registry = get_registry()
        self._m_appends = registry.counter(
            "repro_wal_appends_total", "WAL records appended")
        self._m_bytes = registry.counter(
            "repro_wal_bytes_appended_total", "WAL bytes appended")
        self._m_syncs = registry.counter(
            "repro_wal_syncs_total", "WAL fsync batches completed")
        self._m_truncates = registry.counter(
            "repro_wal_truncates_total", "WAL truncations (snapshot coverage)")
        self._m_sync_ms = registry.histogram(
            "repro_wal_sync_ms", "WAL fsync latency (ms)")
        end = len(MAGIC) if _create else self._path.stat().st_size
        self._handle = disk.DISK.open(self._path, "ab")
        if _create:
            # A new log: its bytes, then its name in the directory.
            disk.DISK.truncate(self._handle, 0)
            self._handle.write(MAGIC)
            disk.DISK.fsync(self._handle)
            disk.DISK.fsync_dir(self._path.parent)
        self._offset = end
        self._synced = end
        self._pending = 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path, fsync_every: int = 1) -> "WriteAheadLog":
        """Start a fresh (empty) log, truncating any existing file."""
        return cls(path, fsync_every=fsync_every, _create=True)

    @classmethod
    def open_for_append(
        cls, path, scan: WalScan, fsync_every: int = 1
    ) -> "WriteAheadLog":
        """Reopen a recovered log from its :func:`read_wal` scan: drop the
        torn tail, append after it.

        The file is not read again.  Mid-log corruption raises in
        :func:`read_wal`, so a log that yields no scan is never appended
        to.
        """
        if scan.valid_end < len(MAGIC):
            # Header never became durable (or no log at all): restart the
            # log from scratch.
            return cls.create(path, fsync_every=fsync_every)
        if scan.torn:
            with disk.DISK.open(path, "ab") as handle:
                disk.DISK.truncate(handle, scan.valid_end)
                disk.DISK.fsync(handle)
        return cls(path, fsync_every=fsync_every)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def fsync_every(self) -> int:
        return self._fsync_every

    @property
    def size(self) -> int:
        return self._offset

    @property
    def synced_size(self) -> int:
        return self._synced

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self._path)!r}, {self._offset}B, "
            f"{self.appended_since_truncate} records since truncate, "
            f"fsync_every={self._fsync_every})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Frame, write and (per policy) fsync one record."""
        if self._handle is None:
            raise WALError(f"WAL {self._path} is closed")
        frame = encode_frame(record)
        self._handle.write(frame)
        self._offset += len(frame)
        self._pending += 1
        self.appended += 1
        self.appended_since_truncate += 1
        self.bytes_appended += len(frame)
        self._m_appends.inc()
        self._m_bytes.inc(len(frame))
        if self._fsync_every and self._pending >= self._fsync_every:
            self.sync()

    def sync(self) -> None:
        """Make everything appended so far durable."""
        if self._handle is None:
            raise WALError(f"WAL {self._path} is closed")
        if self._synced == self._offset:
            self._pending = 0
            return
        started = MONOTONIC()
        disk.DISK.fsync(self._handle)
        self._synced = self._offset
        self._pending = 0
        self.syncs += 1
        self._m_syncs.inc()
        self._m_sync_ms.observe((MONOTONIC() - started) * 1000.0)

    def truncate(self) -> None:
        """Drop every record (a snapshot now covers them); keep the magic."""
        if self._handle is None:
            raise WALError(f"WAL {self._path} is closed")
        disk.DISK.truncate(self._handle, len(MAGIC))
        disk.DISK.fsync(self._handle)
        self._offset = len(MAGIC)
        self._synced = len(MAGIC)
        self._pending = 0
        self.appended_since_truncate = 0
        self._m_truncates.inc()

    def close(self) -> None:
        """Sync and release the file handle (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        disk.DISK.fsync(handle)
        handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
