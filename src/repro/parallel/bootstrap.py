"""Spawn-safe worker bootstrap: one shard replica from its snapshot dir.

A ``spawn`` worker starts with a fresh interpreter — nothing of the
parent's built index survives the exec — so it rebuilds its shards from
the durability layer's on-disk layout (``data_dir/shard-NNNN/`` holding a
partial rid-subset snapshot plus that shard's WAL).

The full deployment recovery (:func:`repro.durability.sharded
.recover_sharded_store`) restores the *global* relation and refuses rid
gaps, because the coordinator must keep every shard's rows addressable.
A worker needs none of that: the gather algorithms observe only Dewey
IDs — posting lists, ``MergedList`` cursors and ``diverse_subset`` never
read a rid — so the replica packs just its own shard's live rows into a
local dense-rid relation and force-restores the *shared global* Dewey
assignment over them.  Everything else is recovery's own code: the same
directory read, the same log fold
(:func:`repro.durability.store.fold_shard_state`) and the same bulk build
(:func:`repro.index.snapshot.restore_index`).  Posting-list content (the
set of Dewey IDs per ``(attribute, value)``) is bit-identical to the
coordinator's shard, and the replica lands on the shard's exact mutation
epoch, which is what the coordinator's epoch fence checks against.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..durability.errors import RecoveryError
from ..index.inverted import InvertedIndex
from ..index.snapshot import restore_dewey_space, restore_index


def load_shard_replica(
    data_dir: Union[str, Path], shard_id: int
) -> InvertedIndex:
    """Rebuild shard ``shard_id`` of the deployment at ``data_dir``.

    Returns a standalone read-only :class:`InvertedIndex` whose posting
    lists, Dewey assignments and mutation epoch match the coordinator's
    shard exactly (snapshot + full WAL fold, then the one bulk build).
    Raises :class:`RecoveryError` on a damaged or inconsistent directory —
    a worker must refuse to serve from a shard it cannot prove complete.
    """
    from ..durability.sharded import read_sharded_manifest, shard_store_dir
    from ..durability.store import fold_shard_state, read_store, refusing_damage

    data_dir = Path(data_dir)
    _, num_shards = read_sharded_manifest(data_dir)
    if not 0 <= shard_id < num_shards:
        raise RecoveryError(
            data_dir,
            f"shard {shard_id} outside the deployment's 0..{num_shards - 1}",
        )
    store_dir = shard_store_dir(data_dir, shard_id)
    with refusing_damage(data_dir):
        payload, scan = read_store(store_dir)
        state = fold_shard_state(payload, scan.records, store_dir)
        # Local dense rids over the live rows, in global-rid order.
        live = state.live
        relation, ordering, dewey = restore_dewey_space(
            payload,
            {local: state.rows[rid] for local, rid in enumerate(live)},
            (),
            {local: state.assignments[rid] for local, rid in enumerate(live)},
        )
        return restore_index(
            relation, ordering, payload["backend"], dewey,
            range(len(live)), state.epoch,
        )
