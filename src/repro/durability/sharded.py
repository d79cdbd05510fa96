"""Crash-safe durability for a sharded deployment.

Directory layout (one WAL + one snapshot per shard)::

    data_dir/
        MANIFEST.json        # kind=sharded, shard count, router spec, policy
        shard-0000/
            snapshot.idx     # partial (rid-subset) v2 snapshot of shard 0
            wal.log
        shard-0001/
            ...

Each shard's snapshot carries only the relation slots routed to it (live
*and* tombstoned — the rid-keyed v2 row table makes subsets first-class),
plus that shard's Dewey postings and its private mutation epoch.  Shards
snapshot independently, at different times, so the per-shard WALs are
replayed against per-shard snapshot epochs.

Recovery unions the per-shard states: routing partitions the row space,
so the union must cover every rid slot exactly once — a gap means an
acknowledged insert is missing (possible only with cross-shard fsync
batching) and raises :class:`RecoveryError` rather than renumbering rows.
The global Dewey assignment is force-restored from the per-shard tables,
each shard's posting lists are rebuilt over the shared Dewey space, and
the persisted router (including a RangeRouter's exact boundaries) is
rehydrated so every future insert routes exactly as before the crash.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Set, Union

from ..core.ordering import DiversityOrdering
from ..index.inverted import InvertedIndex
from ..index.snapshot import (
    SnapshotError,
    read_snapshot,
    restore_dewey,
    save_index,
)
from ..sharding.router import HashRouter, RangeRouter, ShardRouter
from ..sharding.sharded_index import ShardedIndex
from ..storage.relation import Relation
from ..storage.schema import Attribute, AttributeKind, Schema
from .crash import CrashInjector
from .errors import RecoveryError
from .store import (
    DurableIndex,
    RecoveryReport,
    SNAPSHOT_NAME,
    WAL_NAME,
    _scan_wal_for_recovery,
    fold_shard_state,
    read_manifest,
    reopen_wal,
    write_manifest,
)
from .wal import WriteAheadLog


def shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}"


# ----------------------------------------------------------------------
# Router persistence
# ----------------------------------------------------------------------
def router_spec(router: ShardRouter) -> dict:
    """A JSON-safe description that rebuilds this exact router."""
    if isinstance(router, RangeRouter):
        return {
            "kind": "range",
            "boundaries": [list(boundary) for boundary in router.boundaries],
        }
    if isinstance(router, HashRouter):
        return {"kind": "hash"}
    raise TypeError(f"cannot persist router {router!r}")


def router_from_spec(spec: dict, shards: int, label) -> ShardRouter:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "hash":
        return HashRouter(shards)
    if kind == "range":
        try:
            boundaries = [tuple(boundary) for boundary in spec["boundaries"]]
            return RangeRouter(shards, boundaries)
        except (KeyError, TypeError, ValueError) as error:
            raise RecoveryError(
                label, f"bad range-router spec: {error}"
            ) from None
    raise RecoveryError(label, f"unknown router spec {spec!r}")


# ----------------------------------------------------------------------
# Creation
# ----------------------------------------------------------------------
def create_sharded_store(
    index: ShardedIndex,
    data_dir: Union[str, Path],
    snapshot_every: int = 0,
    fsync_every: int = 1,
    injector: Optional[CrashInjector] = None,
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
                f"durability (found {type(shard).__name__}; clear chaos or "
                f"existing durability wrappers first)"
            )
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(data_dir, {
        "kind": "sharded",
        "shards": index.num_shards,
        "router": router_spec(index.router),
        "snapshot_every": snapshot_every,
        "fsync_every": fsync_every,
        "replicas": replicas,
    })
    owned: List[Set[int]] = [set() for _ in range(index.num_shards)]
    for rid in range(len(index.relation)):
        owned[index.shard_of(rid)].add(rid)
    durable: List[DurableIndex] = []
    for shard_id, shard in enumerate(index.shards):
        shard_dir = data_dir / shard_dir_name(shard_id)
        shard_dir.mkdir(exist_ok=True)
        snapshot_path = shard_dir / SNAPSHOT_NAME
        save_index(shard, snapshot_path, rids=sorted(owned[shard_id]))
        wal = WriteAheadLog.create(shard_dir / WAL_NAME,
                                   fsync_every=fsync_every, injector=injector)
        durable.append(DurableIndex(
            shard, wal, snapshot_path, snapshot_every=snapshot_every,
            injector=injector, owned=owned[shard_id],
        ))
    index._shards = durable  # same in-place swap inject_chaos performs
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


def read_shard_dir(data_dir: Path, shard_id: int) -> tuple:
    """One shard directory's ``(snapshot payload, WAL scan)``."""
    shard_dir = data_dir / shard_dir_name(shard_id)
    snapshot_path = shard_dir / SNAPSHOT_NAME
    if not snapshot_path.exists():
        raise RecoveryError(
            data_dir, f"missing snapshot for shard {shard_id} ({snapshot_path})"
        )
    try:
        payload = read_snapshot(snapshot_path)
    except SnapshotError as error:
        raise RecoveryError(data_dir, str(error)) from error
    return payload, _scan_wal_for_recovery(shard_dir / WAL_NAME, shard_dir)


def empty_relation(payload: dict, label) -> Relation:
    """The (still row-less) relation a snapshot payload describes."""
    try:
        schema = Schema(
            Attribute(name, AttributeKind(kind))
            for name, kind in payload["schema"]
        )
    except (KeyError, TypeError, ValueError) as error:
        raise RecoveryError(label, f"bad schema: {error}") from None
    return Relation(schema, name=payload.get("name", "R"))


def recover_sharded_store(
    data_dir: Union[str, Path],
    snapshot_every: Optional[int] = None,
    fsync_every: Optional[int] = None,
    injector: Optional[CrashInjector] = None,
) -> ShardedIndex:
    """Recover a full sharded deployment from its directory tree."""
    data_dir = Path(data_dir)
    manifest, num_shards = read_sharded_manifest(data_dir)
    if snapshot_every is None:
        snapshot_every = int(manifest.get("snapshot_every", 0))
    if fsync_every is None:
        fsync_every = int(manifest.get("fsync_every", 1))

    # ---- Pass 1: read every shard's snapshot payload and WAL scan.
    payloads, scans = zip(*(
        read_shard_dir(data_dir, shard_id) for shard_id in range(num_shards)
    ))
    reference = payloads[0]
    for shard_id, payload in enumerate(payloads):
        for key in ("schema", "ordering", "backend", "name"):
            if payload.get(key) != reference.get(key):
                raise RecoveryError(
                    data_dir,
                    f"shard {shard_id} disagrees with shard 0 on {key!r}",
                )

    # ---- Pass 2: fold each shard's WAL over its snapshot, union the rest.
    states = [
        fold_shard_state(payload, scan.records,
                         data_dir / shard_dir_name(shard_id))
        for shard_id, (payload, scan) in enumerate(zip(payloads, scans))
    ]
    rows: dict = {}
    deleted: Set[int] = set()
    assignments: dict = {}
    for shard_id, state in enumerate(states):
        shared = rows.keys() & state.rows.keys()
        if shared:
            raise RecoveryError(
                data_dir / shard_dir_name(shard_id),
                f"rid {min(shared)} appears in more than one shard",
            )
        rows.update(state.rows)
        deleted |= state.deleted
        assignments.update(state.assignments)

    # ---- Pass 3: rebuild the global relation and Dewey space.
    relation = empty_relation(reference, data_dir)
    for rid in range(len(rows)):
        if rid not in rows:
            raise RecoveryError(
                data_dir,
                f"row table has a gap at rid {rid}: an acknowledged insert "
                f"is missing from every shard",
            )
        relation.insert(rows[rid])
    for rid in sorted(deleted):
        relation.delete(rid)
    ordering = DiversityOrdering(reference["ordering"])
    try:
        dewey = restore_dewey(relation, ordering, assignments)
    except SnapshotError as error:
        raise RecoveryError(data_dir, str(error)) from error
    backend = reference["backend"]
    router = router_from_spec(manifest.get("router"), num_shards, data_dir)

    # ---- Pass 4: per-shard posting lists over the shared Dewey space,
    # each re-wrapped durably around its reopened WAL.
    durable: List[DurableIndex] = []
    for shard_id, (state, scan) in enumerate(zip(states, scans)):
        shard = InvertedIndex(relation, ordering, backend=backend, dewey=dewey)
        for rid in state.live:
            shard.index_restored_row(rid)
        shard.restore_epoch(state.epoch)
        shard_dir = data_dir / shard_dir_name(shard_id)
        durable.append(DurableIndex(
            shard, reopen_wal(shard_dir / WAL_NAME, fsync_every, injector),
            shard_dir / SNAPSHOT_NAME,
            snapshot_every=snapshot_every, injector=injector,
            owned=set(state.rows),
            recovery=RecoveryReport(
                path=shard_dir,
                snapshot_epoch=state.epoch - state.replayed,
                replayed=state.replayed,
                skipped=state.skipped,
                torn_bytes=scan.dropped_bytes,
                final_epoch=state.epoch,
            ),
        ))
    return ShardedIndex.from_parts(
        relation, ordering, dewey, router, durable, backend=backend
    )
