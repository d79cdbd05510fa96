"""Crash-safe durability: write-ahead logging, snapshots, and recovery.

The in-memory serving stack (:mod:`repro.serving`, :mod:`repro.sharding`)
gains a disk footprint here: every index mutation is appended to a
checksummed :mod:`write-ahead log <repro.durability.wal>` *before* it is
applied, snapshots are written atomically with a payload digest
(:mod:`repro.index.snapshot`), and :func:`recover` resurrects a data
directory — single-index or sharded — bit-identically to the state the
crashed process had acknowledged, tolerating exactly one kind of damage:
a torn log tail.  Every durable file operation goes through one seam,
:data:`repro.storage.disk.DISK`, and a new file or directory is fsynced
into its parent; a recording of that seam is what the differential crash
matrix replays, prefix by prefix, to check those claims at every write.
"""

from pathlib import Path
from typing import Optional, Union

from .errors import (
    DurabilityError,
    RecoveryError,
    WALCorruptionError,
    WALError,
)
from .sharded import create_sharded_store, recover_sharded_store
from .store import (
    DurableIndex,
    RecoveryReport,
    create_store,
    read_manifest,
    recover_store,
)
from .wal import WalScan, WriteAheadLog, read_wal


def recover(
    data_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    fsync_every: Optional[int] = None,
):
    """Recover whatever lives in ``data_dir`` (dispatches on the manifest).

    Returns a :class:`DurableIndex` for a single-index store or a
    :class:`~repro.sharding.ShardedIndex` with durable shards for a
    sharded one, either way reopened for writing.
    """
    manifest = read_manifest(data_dir)
    kind = manifest.get("kind")
    if kind == "single":
        return recover_store(data_dir, snapshot_every=snapshot_every,
                             fsync_every=fsync_every)
    if kind == "sharded":
        return recover_sharded_store(data_dir, snapshot_every=snapshot_every,
                                     fsync_every=fsync_every)
    raise RecoveryError(data_dir, f"unknown store kind {kind!r}")


__all__ = [
    "DurabilityError",
    "DurableIndex",
    "RecoveryError",
    "RecoveryReport",
    "WALCorruptionError",
    "WALError",
    "WalScan",
    "WriteAheadLog",
    "create_sharded_store",
    "create_store",
    "read_wal",
    "recover",
    "recover_sharded_store",
    "recover_store",
]
