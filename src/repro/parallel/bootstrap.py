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
assignment over them.  Posting-list content (the set of Dewey IDs per
``(attribute, value)``) is bit-identical to the coordinator's shard, and
the replica lands on the shard's exact mutation epoch, which is what the
coordinator's epoch fence checks against.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..core.ordering import DiversityOrdering
from ..durability.errors import RecoveryError
from ..index.inverted import InvertedIndex
from ..index.snapshot import SnapshotError, restore_dewey


def load_shard_replica(
    data_dir: Union[str, Path], shard_id: int
) -> InvertedIndex:
    """Rebuild shard ``shard_id`` of the deployment at ``data_dir``.

    Returns a standalone read-only :class:`InvertedIndex` whose posting
    lists, Dewey assignments and mutation epoch match the coordinator's
    shard exactly (snapshot + full WAL replay).  Raises
    :class:`RecoveryError` on a damaged or inconsistent directory — a
    worker must refuse to serve from a shard it cannot prove complete.
    """
    from ..durability.sharded import (
        empty_relation,
        read_shard_dir,
        read_sharded_manifest,
        shard_dir_name,
    )
    from ..durability.store import fold_shard_state

    data_dir = Path(data_dir)
    _, num_shards = read_sharded_manifest(data_dir)
    if not 0 <= shard_id < num_shards:
        raise RecoveryError(
            data_dir,
            f"shard {shard_id} outside the deployment's 0..{num_shards - 1}",
        )
    payload, scan = read_shard_dir(data_dir, shard_id)
    state = fold_shard_state(
        payload, scan.records, data_dir / shard_dir_name(shard_id)
    )

    # ---- Local dense-rid relation over the live rows (global-rid order).
    relation = empty_relation(payload, data_dir)
    ordering = DiversityOrdering(payload["ordering"])
    local_assignments = {}
    for local_rid, global_rid in enumerate(state.live):
        relation.insert(state.rows[global_rid])
        local_assignments[local_rid] = state.assignments[global_rid]
    try:
        dewey = restore_dewey(relation, ordering, local_assignments)
    except SnapshotError as error:
        raise RecoveryError(data_dir, str(error)) from error
    index = InvertedIndex(
        relation, ordering, backend=payload["backend"], dewey=dewey
    )
    for local_rid in range(len(relation)):
        index.index_restored_row(local_rid)
    index.restore_epoch(state.epoch)
    return index
