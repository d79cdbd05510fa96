"""Replica bootstrap: grow bit-identical copies of a logical shard.

Two sources, one contract — the new copy serves exactly the rows the
primary serves, addressed by the *same* shared global Dewey assignment,
at the *same* mutation epoch:

* **From a durable store** (:class:`~repro.durability.store.DurableIndex`
  primary): read the shard's snapshot (its sha256 payload digest is
  verified by :func:`~repro.index.snapshot.read_snapshot`), then fold
  the WAL records past the snapshot epoch over it — the exact recovery
  discipline of :func:`~repro.durability.store.recover_stores`, applied
  to a *live* primary to birth a peer instead of resurrecting a corpse.
* **From a live in-memory shard**: the live rid set is read off the
  primary's own postings.

Either way the copy's posting lists come from the one bulk build every
restore site uses (:func:`~repro.index.snapshot.restore_index`:
``InvertedIndex.build`` over the shared Dewey assignment, restricted to
the live rids), and the result is cross-checked end-to-end: primary and
replica must produce the same canonical snapshot-payload sha256 over the
same rid scope (rows, Dewey postings, epoch) before the copy may serve
reads.
"""

from __future__ import annotations

from typing import List

from ..index.inverted import InvertedIndex
from ..index.snapshot import build_payload, payload_digest, restore_index


class ReplicaBootstrapError(RuntimeError):
    """A freshly grown replica failed verification against its primary."""


def live_rids(shard) -> List[int]:
    """The rids this shard serves, derived from its live postings."""
    return sorted(shard.dewey.rids_of(shard.all_postings()))


def replica_digest(shard) -> str:
    """Canonical sha256 of what this copy serves (rows, postings, epoch).

    Scoped to the copy's live rids so the digest covers exactly the served
    content — two bit-identical copies of one shard agree byte-for-byte,
    and any divergence in rows, Dewey assignment, or epoch changes it.
    """
    return payload_digest(build_payload(shard, rids=live_rids(shard)))


def clone_from_index(shard) -> InvertedIndex:
    """Rebuild a copy of a live in-memory shard over the shared Dewey space."""
    return restore_index(
        shard.relation, shard.ordering, shard.backend, shard.dewey,
        live_rids(shard), shard.epoch,
    )


def clone_from_store(store) -> InvertedIndex:
    """Bootstrap a copy from a durable primary: snapshot + WAL fold.

    The snapshot envelope's sha256 digest is verified on read and the log
    is folded over it under full recovery's checks
    (:func:`~repro.durability.store.fold_shard_state`); every Dewey
    assignment the fold ends with is then cross-checked against the live
    shared assignment (a replica must never invent coordinates), and the
    fold lands on the primary's exact epoch via the WAL seq chain.
    """
    from ..durability.errors import RecoveryError
    from ..durability.store import fold_shard_state, read_store, refusing_damage

    label = store.snapshot_path.parent
    store.wal.sync()  # flush buffered tail records so the scan sees them
    try:
        with refusing_damage(label):
            payload, scan = read_store(label)
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
    return restore_index(
        store.relation, store.ordering, store.backend, dewey,
        state.live, state.epoch,
    )


def bootstrap_replicas(primary, count: int) -> List[InvertedIndex]:
    """Grow ``count - 1`` verified copies of ``primary``.

    Durable primaries bootstrap through their snapshot + WAL (the copy is
    exactly what a crash recovery would serve); in-memory primaries
    rebuild directly.  Every copy's payload sha256 must equal the
    primary's before it is returned.
    """
    if count < 1:
        raise ValueError("replica count must be >= 1")
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
