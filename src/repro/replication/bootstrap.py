"""Replica bootstrap: grow bit-identical copies of a logical shard.

Two sources, one contract — the new copy serves exactly the rows the
primary serves, addressed by the *same* shared global Dewey assignment,
at the *same* mutation epoch:

* **From a durable store** (:class:`~repro.durability.store.DurableIndex`
  primary): read the shard's snapshot (its sha256 payload digest is
  verified by :func:`~repro.index.snapshot.read_snapshot`), then replay
  the WAL records past the snapshot epoch — the exact recovery discipline
  of :func:`~repro.durability.sharded.recover_sharded_store`, applied to
  a *live* primary to birth a peer instead of resurrecting a corpse.
* **From a live in-memory shard**: re-index the primary's live rid set
  over the shared Dewey assignment (the ``InvertedIndex.build``
  subset idiom the sharded build itself uses).

Either way the result is cross-checked end-to-end: primary and replica
must produce the same canonical snapshot-payload sha256 over the same
rid scope (rows, Dewey postings, epoch) before the copy may serve reads.
"""

from __future__ import annotations

from typing import List

from ..index.inverted import InvertedIndex
from ..index.snapshot import build_payload, payload_digest, read_snapshot


class ReplicaBootstrapError(RuntimeError):
    """A freshly grown replica failed verification against its primary."""


def _raw(shard):
    """Unwrap a chaos proxy (bootstrap reads must see the true index)."""
    return getattr(shard, "inner", shard)


def live_rids(shard) -> List[int]:
    """The rids this shard serves, derived from its live postings."""
    dewey = shard.dewey
    return sorted(dewey.rid_of(dewey_id) for dewey_id in shard.all_postings())


def replica_digest(shard) -> str:
    """Canonical sha256 of what this copy serves (rows, postings, epoch).

    Scoped to the copy's live rids so the digest covers exactly the served
    content — two bit-identical copies of one shard agree byte-for-byte,
    and any divergence in rows, Dewey assignment, or epoch changes it.
    """
    shard = _raw(shard)
    return payload_digest(build_payload(shard, rids=live_rids(shard)))


def clone_from_index(shard) -> InvertedIndex:
    """Rebuild a copy of a live in-memory shard over the shared Dewey space."""
    shard = _raw(shard)
    replica = InvertedIndex(
        shard.relation, shard.ordering, backend=shard.backend, dewey=shard.dewey
    )
    for rid in live_rids(shard):
        replica.index_restored_row(rid)
    replica.restore_epoch(shard.epoch)
    return replica


def clone_from_store(store) -> InvertedIndex:
    """Bootstrap a copy from a durable primary: snapshot + WAL replay.

    The snapshot envelope's sha256 digest is verified on read and the log
    is folded over it under full recovery's checks
    (:func:`~repro.durability.store.fold_shard_state`); every Dewey
    assignment the fold ends with is then cross-checked against the live
    shared assignment (a replica must never invent coordinates), and the
    replay lands on the primary's exact epoch via the WAL seq chain.
    """
    from ..durability.errors import RecoveryError
    from ..durability.store import _scan_wal_for_recovery, fold_shard_state

    store = _raw(store)
    label = store.snapshot_path.parent
    payload = read_snapshot(store.snapshot_path)  # digest-verified envelope
    store.wal.sync()  # flush buffered tail records so the scan sees them
    try:
        scan = _scan_wal_for_recovery(store.wal.path, label)
        state = fold_shard_state(payload, scan.records, label)
    except RecoveryError as error:
        raise ReplicaBootstrapError(str(error)) from error
    dewey = store.dewey
    for rid, assigned in state.assignments.items():
        if rid not in dewey or dewey.dewey_of(rid) != assigned:
            raise ReplicaBootstrapError(
                f"{label}: snapshot + WAL assign rid {rid} Dewey "
                f"{list(assigned)} but the live global assignment disagrees"
            )
    replica = InvertedIndex(
        store.relation, store.ordering, backend=store.backend, dewey=dewey
    )
    for rid in state.live:
        replica.index_restored_row(rid)
    replica.restore_epoch(state.epoch)
    return replica


def bootstrap_replicas(primary, count: int) -> List[InvertedIndex]:
    """Grow ``count - 1`` verified copies of ``primary``.

    Durable primaries bootstrap through their snapshot + WAL (the copy is
    exactly what a crash recovery would serve); in-memory primaries
    rebuild directly.  Every copy's payload sha256 must equal the
    primary's before it is returned.
    """
    if count < 1:
        raise ValueError("replica count must be >= 1")
    primary = _raw(primary)
    durable = hasattr(primary, "snapshot_path") and hasattr(primary, "wal")
    expected = replica_digest(primary)
    copies: List[InvertedIndex] = []
    for _ in range(count - 1):
        replica = clone_from_store(primary) if durable else clone_from_index(primary)
        actual = replica_digest(replica)
        if actual != expected:
            raise ReplicaBootstrapError(
                f"replica bootstrap diverged from its primary: payload "
                f"sha256 {actual[:12]}… != {expected[:12]}…"
            )
        copies.append(replica)
    return copies
