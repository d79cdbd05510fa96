"""Crash-safe durability for a sharded deployment.

Directory layout (one WAL + one snapshot per shard)::

    data_dir/
        MANIFEST.json        # kind=sharded, shard count, router spec, policy
        shard-0000/
            snapshot.idx     # partial (rid-subset) snapshot of shard 0
            wal.log
        shard-0001/
            ...

Each shard's snapshot carries only the relation slots routed to it (live
*and* tombstoned — a partial snapshot stores its rid column),
plus that shard's Dewey postings and its private mutation epoch.  Shards
snapshot independently, at different times, so the per-shard WALs are
replayed against per-shard snapshot epochs.

Recovery is :func:`~repro.durability.store.recover_stores` over the shard
directories — the routine a single-index store runs over its one
directory.  It unions the per-shard folds: routing partitions the row
space, so the union must cover every rid slot exactly once — a gap means
an acknowledged insert is missing (possible only with cross-shard fsync
batching) and raises :class:`RecoveryError` rather than renumbering rows.
The global Dewey assignment is force-restored from the per-shard tables,
and each shard's posting lists are bulk-built over the shared Dewey space.
Rows always route by :class:`~repro.sharding.router.HashRouter`, so the
manifest's router spec is ``{"kind": "hash"}``; any other spec is refused,
never re-routed.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Set, Union

from ..index.inverted import InvertedIndex
from ..index.snapshot import save_index
from ..sharding.sharded_index import ShardedIndex
from ..storage.disk import make_dirs
from .errors import RecoveryError
from .store import (
    DurableIndex,
    SNAPSHOT_NAME,
    WAL_NAME,
    read_manifest,
    recover_stores,
    write_manifest,
)
from .wal import WriteAheadLog


#: The one router spec a manifest holds (rows route by stable hash).
HASH_ROUTER_SPEC = {"kind": "hash"}


def shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


# ----------------------------------------------------------------------
# Creation
# ----------------------------------------------------------------------
def create_sharded_store(
    index: ShardedIndex,
    data_dir: Union[str, Path],
    snapshot_every: int = 0,
    fsync_every: int = 1,
    replicas: int = 1,
) -> ShardedIndex:
    """Initialise a data directory for ``index`` and make it durable.

    Every shard is wrapped in a :class:`DurableIndex` (in place — the
    returned object *is* ``index``); subsequent inserts/removes are
    write-ahead-logged per shard, and each shard snapshots itself
    independently when its log reaches ``snapshot_every`` records.

    ``replicas`` records the deployment's intended replication factor in
    the manifest so :func:`recover_sharded_store` callers (the CLI's
    ``recover``/``serve``) re-replicate to the same factor by default —
    only replica 0 of each shard is durable; the other copies are
    re-bootstrapped from it on recovery.  Replication itself happens
    *after* this call (``ShardedIndex.replicate``), so the durable
    wrapper always sits under the replica set, never over it.
    """
    if replicas < 1:
        raise ValueError("replica count must be >= 1")
    for shard in index.shards:
        if not isinstance(shard, InvertedIndex):
            raise TypeError(
                f"shards must be plain InvertedIndex instances to attach "
                f"durability (found {type(shard).__name__})"
            )
    data_dir = Path(data_dir)
    make_dirs(data_dir)
    owned: List[Set[int]] = [set() for _ in range(index.num_shards)]
    for rid in range(len(index.relation)):
        owned[index.shard_of(rid)].add(rid)
    durable: List[DurableIndex] = []
    for shard_id, shard in enumerate(index.shards):
        shard_dir = data_dir / shard_dir_name(shard_id)
        make_dirs(shard_dir)
        snapshot_path = shard_dir / SNAPSHOT_NAME
        save_index(shard, snapshot_path, rids=sorted(owned[shard_id]))
        wal = WriteAheadLog.create(shard_dir / WAL_NAME,
                                   fsync_every=fsync_every)
        durable.append(DurableIndex(
            shard, wal, snapshot_path, snapshot_every=snapshot_every,
            owned=owned[shard_id],
        ))
    # The commit point, written last as in create_store.
    write_manifest(data_dir, {
        "kind": "sharded",
        "shards": index.num_shards,
        "router": HASH_ROUTER_SPEC,
        "snapshot_every": snapshot_every,
        "fsync_every": fsync_every,
        "replicas": replicas,
    })
    index.shards[:] = durable
    return index


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def read_sharded_manifest(data_dir: Path) -> tuple:
    """A sharded deployment's ``(manifest, shard count)``."""
    manifest = read_manifest(data_dir)
    if manifest.get("kind") != "sharded":
        raise RecoveryError(
            data_dir,
            f"manifest kind {manifest.get('kind')!r} is not a sharded store",
        )
    try:
        num_shards = int(manifest["shards"])
    except (KeyError, TypeError, ValueError):
        raise RecoveryError(data_dir, "manifest lacks a shard count") from None
    if num_shards < 1:
        raise RecoveryError(data_dir, f"bad shard count {num_shards}")
    return manifest, num_shards


def shard_store_dir(data_dir: Path, shard_id: int) -> Path:
    """Shard ``shard_id``'s store directory, which must hold a snapshot."""
    path = data_dir / shard_dir_name(shard_id)
    if not (path / SNAPSHOT_NAME).exists():
        raise RecoveryError(
            data_dir,
            f"missing snapshot for shard {shard_id} ({path / SNAPSHOT_NAME})",
        )
    return path


def recover_sharded_store(
    data_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    fsync_every: Optional[int] = None,
) -> ShardedIndex:
    """Recover a full sharded deployment from its directory tree."""
    data_dir = Path(data_dir)
    manifest, num_shards = read_sharded_manifest(data_dir)
    if manifest.get("router") != HASH_ROUTER_SPEC:
        raise RecoveryError(
            data_dir, f"unknown router spec {manifest.get('router')!r}"
        )
    store_dirs = [
        shard_store_dir(data_dir, shard_id) for shard_id in range(num_shards)
    ]
    durable = recover_stores(data_dir, manifest, store_dirs, snapshot_every,
                             fsync_every)
    first = durable[0]  # every shard shares the relation and the Dewey space
    return ShardedIndex.from_parts(
        first.relation, first.ordering, first.dewey, durable,
        backend=first.backend,
    )
