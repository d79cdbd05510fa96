"""Tests for the durable store layer: WAL-ahead mutation, auto-snapshot,
recovery, epoch continuity across restart, and the CLI surface."""

import pytest

from repro import DiversityEngine, ServingEngine
from repro.__main__ import main as cli_main
from repro.core.engine import ALGORITHMS
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability import (
    DurableIndex,
    RecoveryError,
    create_sharded_store,
    create_store,
    recover,
    recover_store,
    recover_sharded_store,
)
from repro.durability.store import (
    SNAPSHOT_NAME,
    WAL_NAME,
    read_manifest,
    write_manifest,
)
from repro.durability.wal import read_wal
from repro.index.inverted import InvertedIndex
from repro.sharding.sharded_index import ShardedIndex

NEW_ROWS = [
    ("Tesla", "ModelS", "Red", 2008, "rare electric clean"),
    ("Kia", "Rio", "Green", 2006, "cheap commuter"),
    ("Honda", "Fit", "Orange", 2008, "low miles"),
    ("Acura", "TSX", "Silver", 2007, "one owner"),
]

QUERIES = [
    "Make = 'Honda'",
    "Color = 'Green' OR Description CONTAINS 'miles'",
]


def _signature(index):
    """Everything recovery must reproduce bit-identically."""
    relation = index.relation
    engine = DiversityEngine(index)
    answers = tuple(
        tuple(engine.search(q, k=4, algorithm=a, scored=s).deweys)
        for q in QUERIES
        for a in ALGORITHMS
        for s in (False, True)
    )
    return (
        index.epoch,
        tuple(sorted((rid, index.dewey.dewey_of(rid))
                     for rid in index.dewey.iter_rids())),
        tuple(tuple(row) for row in relation),
        tuple(relation.deleted_rids()),
        answers,
    )


def _close(target):
    """Close a store of either shape and the log handle of every shard."""
    for store in getattr(target, "shards", [target]):
        store.close()


def _fresh_store(tmp_path, name="store", **kwargs):
    relation = figure1_relation()
    index = InvertedIndex.build(relation, figure1_ordering())
    return create_store(index, tmp_path / name, **kwargs)


class TestSingleStore:
    def test_records_written_before_apply(self, tmp_path):
        store = _fresh_store(tmp_path)
        relation = store.relation
        rid = relation.insert(NEW_ROWS[0])
        store.insert(rid)
        store.close()
        records = read_wal(tmp_path / "store" / WAL_NAME).records
        assert len(records) == 1
        assert records[0]["op"] == "insert"
        assert records[0]["rid"] == rid
        assert tuple(records[0]["dewey"]) == store.dewey.dewey_of(rid)
        assert records[0]["seq"] == store.epoch

    def test_recovery_replays_to_identical_state(self, tmp_path):
        store = _fresh_store(tmp_path)
        relation = store.relation
        for row in NEW_ROWS[:3]:
            store.insert(relation.insert(row))
        relation.delete(1)
        store.remove(1)
        expected = _signature(store.index)
        store.close()
        recovered = recover(tmp_path / "store")
        assert isinstance(recovered, DurableIndex)
        assert _signature(recovered.index) == expected
        assert recovered.recovery.replayed == 4
        recovered.close()

    def test_idempotent_insert_writes_no_record(self, tmp_path):
        store = _fresh_store(tmp_path)
        rid = store.relation.insert(NEW_ROWS[0])
        store.insert(rid)
        store.insert(rid)  # double-apply must not double-log
        store.close()
        assert len(read_wal(tmp_path / "store" / WAL_NAME).records) == 1

    def test_remove_of_absent_rid_writes_no_record(self, tmp_path):
        store = _fresh_store(tmp_path)
        assert store.remove(999_999 if False else 14) is not None
        assert store.remove(14) is None  # already gone
        store.close()
        assert len(read_wal(tmp_path / "store" / WAL_NAME).records) == 1

    def test_auto_snapshot_by_log_length(self, tmp_path):
        store = _fresh_store(tmp_path, snapshot_every=3)
        relation = store.relation
        for row in NEW_ROWS:  # 4 mutations: snapshot fires at the 3rd
            store.insert(relation.insert(row))
        assert store.snapshots == 1
        assert store.wal.appended_since_truncate == 1
        store.close()
        # The snapshot absorbed the first three records.
        assert len(read_wal(tmp_path / "store" / WAL_NAME).records) == 1
        recovered = recover(tmp_path / "store")
        assert recovered.recovery.snapshot_epoch == 3
        assert recovered.recovery.replayed == 1
        assert _signature(recovered.index) == _signature(store.index)
        recovered.close()

    def test_recovered_store_keeps_accepting_writes(self, tmp_path):
        store = _fresh_store(tmp_path)
        store.insert(store.relation.insert(NEW_ROWS[0]))
        store.close()
        recovered = recover(tmp_path / "store")
        rid = recovered.relation.insert(NEW_ROWS[1])
        recovered.insert(rid)
        recovered.close()
        second = recover(tmp_path / "store")
        assert _signature(second.index) == _signature(recovered.index)
        second.close()

    def test_stale_records_skipped_after_snapshot(self, tmp_path):
        """A snapshot without log truncation (the post-rename crash window)
        must not replay covered records twice."""
        store = _fresh_store(tmp_path)
        relation = store.relation
        for row in NEW_ROWS[:2]:
            store.insert(relation.insert(row))
        # Snapshot manually, bypassing the truncation the normal path does.
        from repro.index.snapshot import save_index

        save_index(store.index, store.snapshot_path)
        store.insert(relation.insert(NEW_ROWS[2]))
        expected = _signature(store.index)
        store.close()
        recovered = recover(tmp_path / "store")
        assert recovered.recovery.skipped == 2
        assert recovered.recovery.replayed == 1
        assert _signature(recovered.index) == expected
        recovered.close()

    def test_sequence_gap_raises(self, tmp_path):
        store = _fresh_store(tmp_path)
        relation = store.relation
        for row in NEW_ROWS[:3]:
            store.insert(relation.insert(row))
        store.close()
        # Drop the middle record (frames 1 and 3 intact): a gap in
        # acknowledged mutations, not a torn tail.
        wal_path = tmp_path / "store" / WAL_NAME
        scan = read_wal(wal_path)
        from repro.durability.wal import MAGIC, encode_frame

        frames = [encode_frame(r) for r in scan.records]
        wal_path.write_bytes(MAGIC + frames[0] + frames[2])
        with pytest.raises(RecoveryError, match="sequence gap"):
            recover(tmp_path / "store")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="MANIFEST"):
            recover(tmp_path / "nothing-here")

    def test_corrupt_snapshot_raises_recovery_error(self, tmp_path):
        store = _fresh_store(tmp_path)
        store.close()
        snapshot = tmp_path / "store" / SNAPSHOT_NAME
        data = bytearray(snapshot.read_bytes())
        data[len(data) // 2] ^= 0xFF
        snapshot.write_bytes(bytes(data))
        with pytest.raises(RecoveryError):
            recover(tmp_path / "store")

    def test_wrong_kind_dispatch(self, tmp_path):
        store = _fresh_store(tmp_path)
        store.close()
        with pytest.raises(RecoveryError, match="not a sharded store"):
            recover_sharded_store(tmp_path / "store")


class TestShardedStore:
    def _build(self, tmp_path, shards=3, snapshot_every=0):
        relation = figure1_relation()
        index = ShardedIndex.build(relation, figure1_ordering(), shards=shards)
        create_sharded_store(
            index, tmp_path / "cluster", snapshot_every=snapshot_every
        )
        return index

    def test_mutations_route_to_per_shard_wals(self, tmp_path):
        index = self._build(tmp_path)
        relation = index.relation
        rids = [relation.insert(row) for row in NEW_ROWS]
        for rid in rids:
            index.insert(rid)
        per_shard = [
            len(read_wal(tmp_path / "cluster" / f"shard-{i:04d}" / WAL_NAME).records)
            for i in range(index.num_shards)
        ]
        assert sum(per_shard) == len(rids)
        for rid in rids:
            shard = index.shard_of(rid)
            assert any(
                record["rid"] == rid
                for record in read_wal(
                    tmp_path / "cluster" / f"shard-{shard:04d}" / WAL_NAME
                ).records
            )
        _close(index)

    def test_full_deployment_recovery(self, tmp_path):
        index = self._build(tmp_path, shards=3)
        relation = index.relation
        for row in NEW_ROWS:
            index.insert(relation.insert(row))
        relation.delete(2)
        index.remove(2)
        expected = _signature(index)
        expected_epochs = index.shard_epochs()
        for shard in index.shards:
            shard.close()
        recovered = recover(tmp_path / "cluster")
        assert isinstance(recovered, ShardedIndex)
        assert recovered.shard_epochs() == expected_epochs
        assert _signature(recovered) == expected
        _close(recovered)

    def test_independent_shard_snapshots(self, tmp_path):
        """Shards snapshot at different times; recovery reconciles the
        mixed snapshot epochs + logs into one consistent deployment."""
        index = self._build(tmp_path, shards=2, snapshot_every=2)
        relation = index.relation
        for row in NEW_ROWS * 2:
            index.insert(relation.insert(row))
        snapshots = [shard.snapshots for shard in index.shards]
        assert any(count > 0 for count in snapshots)
        expected = _signature(index)
        for shard in index.shards:
            shard.close()
        recovered = recover(tmp_path / "cluster")
        assert _signature(recovered) == expected
        _close(recovered)

    def test_range_router_manifest_is_refused(self, tmp_path):
        """Rows route only by hash: a manifest naming a range router is
        refused, never recovered under a router that would place its rows
        elsewhere."""
        index = self._build(tmp_path, shards=3)
        for shard in index.shards:
            shard.close()
        data_dir = tmp_path / "cluster"
        manifest = read_manifest(data_dir)
        assert manifest["router"] == {"kind": "hash"}
        manifest["router"] = {
            "kind": "range", "boundaries": [[1, "Honda"], [1, "Toyota"]],
        }
        write_manifest(data_dir, manifest)
        with pytest.raises(RecoveryError, match="range"):
            recover(data_dir)
        with pytest.raises(RecoveryError, match="range"):
            ServingEngine.recover(data_dir)

    def test_missing_shard_raises(self, tmp_path):
        index = self._build(tmp_path, shards=3)
        for shard in index.shards:
            shard.close()
        import shutil

        shutil.rmtree(tmp_path / "cluster" / "shard-0001")
        with pytest.raises(RecoveryError, match="shard 1"):
            recover(tmp_path / "cluster")


class TestReplayFold:
    """One fold (``durability.store.fold_shard_state``) serves full
    recovery, spawn-worker bootstrap and replica bootstrap, so a damaged
    log is refused identically by all three — each in its own error type,
    each naming the offending record."""

    @staticmethod
    def _bad_records(index):
        """``{case: (record, match)}`` against shard 0 (epoch 0, so the
        next legal seq is 1)."""
        from repro.durability.wal import insert_record, remove_record

        dewey = index.dewey
        mine, other = (
            [dewey.rid_of(d) for d in shard.all_postings()]
            for shard in index.shards[:2]
        )
        rid = mine[0]
        contradicting = list(index.relation[rid])
        contradicting[-1] = "not what the snapshot says"
        return {
            "remove-not-live": (
                remove_record(1, other[0], dewey.dewey_of(other[0])),
                "remove record 1"),
            "remove-wrong-dewey": (
                remove_record(1, rid, dewey.dewey_of(mine[1])),
                "remove record 1"),
            "insert-contradicts-snapshot": (
                insert_record(1, rid, contradicting, dewey.dewey_of(rid)),
                "insert record 1"),
            "sequence-gap": (
                remove_record(2, rid, dewey.dewey_of(rid)),
                "expected seq 1, found 2"),
        }

    @pytest.mark.parametrize("caller", ["recover", "worker", "replica"])
    @pytest.mark.parametrize("case", [
        "remove-not-live", "remove-wrong-dewey",
        "insert-contradicts-snapshot", "sequence-gap",
    ])
    def test_every_fold_caller_refuses_a_damaged_log(
        self, tmp_path, caller, case
    ):
        from repro.parallel import load_shard_replica
        from repro.replication import ReplicaBootstrapError, clone_from_store

        index = ShardedIndex.build(
            figure1_relation(), figure1_ordering(), shards=2
        )
        create_sharded_store(index, tmp_path / "cluster")
        store = index.shards[0]
        record, match = self._bad_records(index)[case]
        store.wal.append(record)  # straight into the log, past DurableIndex
        if caller == "replica":
            with pytest.raises(ReplicaBootstrapError, match=match):
                clone_from_store(store)
        _close(index)
        if caller == "replica":
            return
        with pytest.raises(RecoveryError, match=match):
            if caller == "recover":
                recover_sharded_store(tmp_path / "cluster")
            else:
                load_shard_replica(tmp_path / "cluster", 0)

    def test_replicated_recovery_replays_a_remove(self, tmp_path):
        """Regression: replica bootstrap cross-checked the *snapshot's*
        Dewey table against the live assignment before replaying the log,
        so a durable replicated deployment whose WAL tail held a remove
        could not be recovered."""
        relation = figure1_relation()
        with ServingEngine.from_relation(
            relation, figure1_ordering(), shards=2, replicas=2,
            data_dir=tmp_path / "cluster",
        ) as serving:
            serving.delete(0)
            expected = serving.search("Make = 'Honda'", k=4).deweys
        with ServingEngine.recover(tmp_path / "cluster") as recovered:
            assert recovered.engine.index.replication_factor == 2
            assert recovered.search("Make = 'Honda'", k=4).deweys == expected


def _logged_store(tmp_path, shards, version=3):
    """A store of either shape (``shards == 1``: single-index) with a log
    tail — three inserts and a remove past the snapshot — closed; its
    snapshots written by the frozen version-2 writer when ``version == 2``.
    Returns ``(data_dir, [store directories])``."""
    data_dir = tmp_path / "data"
    relation = figure1_relation()
    if shards == 1:
        index = create_store(
            InvertedIndex.build(relation, figure1_ordering()), data_dir
        )
        stores = [index]
    else:
        index = create_sharded_store(
            ShardedIndex.build(relation, figure1_ordering(), shards=shards),
            data_dir,
        )
        stores = index.shards
    if version == 2:
        from .reference_snapshot_v2 import save_index as save_v2

        for store in stores:
            owned = None if store._owned is None else sorted(store._owned)
            save_v2(store.index, store.snapshot_path, rids=owned)
    for row in NEW_ROWS[:3]:
        index.insert(relation.insert(row))
    relation.delete(2)
    index.remove(2)
    for store in stores:
        store.close()
    return data_dir, [store.snapshot_path.parent for store in stores]


def _recovered_stores(data_dir):
    """The durable stores of ``recover(data_dir)``, already closed."""
    recovered = recover(data_dir)
    stores = getattr(recovered, "shards", [recovered])
    for store in stores:
        store.close()
    return stores


def _tamper(snapshot_path, edit, reseal=True):
    """Apply ``edit(payload)`` to a snapshot file; ``reseal`` recomputes
    the digest so the damage is *checksummed*."""
    from .test_snapshot import read_document, write_document

    document = read_document(snapshot_path)
    edit(document["payload"])
    write_document(snapshot_path, document, reseal=reseal)


# Edits that leave a snapshot payload checksummed (resealed) but wrong.
# Each skips a table too short to take it (an empty shard), so every store
# of a deployment can be tampered and the shards still agree on the header.
def _unknown_backend(payload):
    payload["backend"] = "no-such-backend"


def _non_numeric_dewey(payload):
    if payload["dewey_rids"]:
        payload["dewey_levels"][0][0] = "x"


def _unknown_attribute_kind(payload):
    payload["schema"][0][1] = "no-such-kind"


def _bad_rows_nesting(payload):
    payload["columns"] = [7] * len(payload["columns"])


def _tombstone_past_the_row_table(payload):
    payload["deleted"].append(10_000)
    payload["live_rows"] -= 1


def _live_rows_truncated(payload):
    payload["live_rows"] += 1


def _duplicate_dewey(payload):
    if len(payload["dewey_rids"]) > 1:
        for level in payload["dewey_levels"]:
            level[1] = level[0]


def _unequal_attribute_columns(payload):
    payload["columns"][-1].append("one value too many")


def _unequal_level_columns(payload):
    payload["dewey_levels"][-1].append(0)


def _dewey_rid_column_too_long(payload):
    payload["dewey_rids"].append(0)


# The version-2 shape of the edits above that depend on the shape; the
# store's snapshots are then written by the frozen version-2 writer.
def _v2_non_numeric_dewey(payload):
    for _, components in payload["deweys"][:1]:
        components[0] = "x"


def _v2_bad_rows_nesting(payload):
    payload["rows"] = [7] * len(payload["rows"])


def _v2_duplicate_dewey(payload):
    deweys = payload["deweys"]
    if len(deweys) > 1:
        deweys[1][1] = deweys[0][1]


PAYLOAD_DAMAGE = {
    edit.__name__.strip("_").replace("_", "-"): edit
    for edit in (
        _unknown_backend, _non_numeric_dewey, _unknown_attribute_kind,
        _bad_rows_nesting, _tombstone_past_the_row_table,
        _live_rows_truncated, _duplicate_dewey, _unequal_attribute_columns,
        _unequal_level_columns, _dewey_rid_column_too_long,
        _v2_non_numeric_dewey, _v2_bad_rows_nesting, _v2_duplicate_dewey,
    )
}


@pytest.mark.parametrize("shards", [1, 3])
class TestRecoveryRefusals:
    """Both store shapes recover through one routine
    (``durability.store.recover_stores``), so each refusal below is made
    once and surfaces as ``RecoveryError`` naming the store."""

    @pytest.mark.parametrize("damage", sorted(PAYLOAD_DAMAGE))
    def test_checksummed_but_malformed_snapshot(
        self, tmp_path, capsys, shards, damage
    ):
        """Regression: a resealed (valid digest) but malformed payload
        escaped as a raw ``ValueError``/``TypeError`` — which one depended
        on the store shape — and the CLI mapped it to exit 2."""
        version = 2 if damage.startswith("v2-") else 3
        data_dir, store_dirs = _logged_store(tmp_path, shards, version)
        for store_dir in store_dirs:  # all of them: shards must still agree
            _tamper(store_dir / SNAPSHOT_NAME, PAYLOAD_DAMAGE[damage])
        with pytest.raises(RecoveryError, match=str(data_dir)):
            recover(data_dir)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["recover", str(data_dir)])
        assert excinfo.value.code == 4
        assert "recovery failed" in capsys.readouterr().err

    def test_removed_bptree_backend_refused(self, tmp_path, shards):
        """A store whose snapshots name the retired ``bptree`` backend is
        refused by the serving entry point, not loaded as another one."""
        data_dir, store_dirs = _logged_store(tmp_path, shards)
        for store_dir in store_dirs:
            _tamper(store_dir / SNAPSHOT_NAME,
                    lambda payload: payload.update(backend="bptree"))
        with pytest.raises(RecoveryError, match="bptree"):
            ServingEngine.recover(data_dir)

    def test_digest_mismatch(self, tmp_path, shards):
        data_dir, store_dirs = _logged_store(tmp_path, shards)
        _tamper(store_dirs[-1] / SNAPSHOT_NAME,
                lambda payload: payload.update(name="tampered"), reseal=False)
        with pytest.raises(RecoveryError, match="digest mismatch"):
            recover(data_dir)

    def test_any_flipped_snapshot_byte(self, tmp_path, shards):
        """Regression: a damaged deflate stream raises ``zlib.error`` or
        ``EOFError`` (not ``OSError``), which ``read_snapshot`` let through."""
        data_dir, store_dirs = _logged_store(tmp_path, shards)
        snapshot = store_dirs[0] / SNAPSHOT_NAME
        pristine = snapshot.read_bytes()
        for position in range(0, len(pristine), 7):
            data = bytearray(pristine)
            data[position] ^= 0xFF
            snapshot.write_bytes(bytes(data))
            try:
                recovered = recover(data_dir)
            except RecoveryError as error:
                assert str(store_dirs[0]) in str(error)
            else:  # the flip fell in gzip header bytes nothing verifies
                _close(recovered)
                assert position < 10

    def test_log_tail_refusals(self, tmp_path, shards):
        """Records that pass their frame checksum but contradict the
        snapshot: a rid past the row table (an acknowledged insert is
        missing), and a Dewey ID another live row already holds."""
        from repro.durability.wal import WriteAheadLog, insert_record

        data_dir, store_dirs = _logged_store(tmp_path, shards)
        stores = _recovered_stores(data_dir)
        slots = len(stores[0].relation)
        epoch = stores[-1].epoch
        taken = next(iter(stores[0].all_postings()))
        for rid, dewey, match in [
            (slots + 1, (9, 9, 9, 9, 9, 0), f"gap at rid {slots}"),
            (slots, taken, "duplicate Dewey ID"),
        ]:
            wal_path = store_dirs[-1] / WAL_NAME
            pristine = wal_path.read_bytes()
            wal = WriteAheadLog.open_for_append(wal_path, read_wal(wal_path))
            wal.append(insert_record(epoch + 1, rid, list(NEW_ROWS[3]), dewey))
            wal.close()
            with pytest.raises(RecoveryError, match=match) as excinfo:
                recover(data_dir)
            assert str(data_dir) in str(excinfo.value)
            wal_path.write_bytes(pristine)

    def test_missing_log_is_no_tail(self, tmp_path, shards):
        """A crash between the snapshot write and WAL creation: no log
        means no mutations past the snapshot, not an error."""
        data_dir, store_dirs = _logged_store(tmp_path, shards)
        (store_dirs[-1] / WAL_NAME).unlink()
        stores = _recovered_stores(data_dir)
        assert stores[-1].recovery.replayed == 0
        assert stores[-1].epoch == 0
        assert (store_dirs[-1] / WAL_NAME).exists()  # reopened for writing

    def test_recovery_is_observable_per_store(self, tmp_path, shards):
        """Regression: only single-index recovery opened a span and
        bumped the recovery counters; a sharded one was invisible."""
        from faults import RecordingDisk
        from repro.observability import use_registry

        data_dir, store_dirs = _logged_store(tmp_path, shards)
        with RecordingDisk(tmp_path) as recorder:
            recovered = recover(data_dir)
            stores = getattr(recovered, "shards", [recovered])
            stores[0].snapshot()
            for store in stores:
                store.close()
        # A crash once a snapshot's rename is durable, before the log
        # truncation: every record of that store is stale on the next
        # recovery.
        crash = next(image for image in recorder.images()
                     if image.damage == "dropped"
                     and recorder.ops[image.cut - 1].kind == "fsync_dir")
        root = crash.write(tmp_path / "crashed")
        data_dir = root / data_dir.relative_to(tmp_path)
        store_dirs = [root / path.relative_to(tmp_path) for path in store_dirs]
        with use_registry() as registry:
            reports = [store.recovery for store in _recovered_stores(data_dir)]
            assert sum(report.replayed + report.skipped for report in reports) == 4
            assert sum(report.skipped for report in reports) > 0
            assert registry.value("repro_recoveries_total") == shards
            assert registry.value("repro_recovery_replayed_total") == sum(
                report.replayed for report in reports)
            assert registry.value("repro_recovery_skipped_total") == sum(
                report.skipped for report in reports)
            spans = [record for record in registry.spans
                     if record.name == "durability.recover"]
            assert sorted(record.fields["path"] for record in spans) == sorted(
                str(path) for path in store_dirs)


def test_single_recovery_refuses_a_shard_subset_snapshot(tmp_path):
    import shutil

    cluster, shard_dirs = _logged_store(tmp_path / "cluster", 3)
    single, _ = _logged_store(tmp_path / "single", 1)
    shutil.copy(shard_dirs[0] / SNAPSHOT_NAME, single / SNAPSHOT_NAME)
    with pytest.raises(RecoveryError, match="shard-subset") as excinfo:
        recover(single)
    assert str(single) in str(excinfo.value)


def test_replica_bootstrap_cross_checks_the_live_assignment(tmp_path):
    """A durable primary whose snapshot + log assign a Dewey ID the live
    shared assignment does not hold must not be cloned."""
    from repro.durability.wal import insert_record
    from repro.replication import ReplicaBootstrapError, clone_from_store

    index = ShardedIndex.build(figure1_relation(), figure1_ordering(), shards=2)
    create_sharded_store(index, tmp_path / "cluster")
    store = index.shards[0]
    rid = index.relation.insert(NEW_ROWS[0])
    store.wal.append(insert_record(
        store.epoch + 1, rid, list(index.relation[rid]), store.dewey.peek(rid)
    ))  # logged, never applied
    with pytest.raises(ReplicaBootstrapError, match="live global assignment"):
        clone_from_store(store)
    for shard in index.shards:
        shard.close()


def test_a_short_build_is_an_error_not_a_short_index():
    from repro.index.snapshot import SnapshotError, restore_index

    index = InvertedIndex.build(figure1_relation(), figure1_ordering())
    live = [*index.dewey.iter_rids(), 99]  # 99 has no Dewey ID
    with pytest.raises(SnapshotError, match="posts only 15"):
        restore_index(index.relation, index.ordering, index.backend,
                      index.dewey, live, index.epoch)


class TestServingRestart:
    def test_warm_cache_survives_restart(self, tmp_path):
        """Epoch continuity: entries cached before a restart are served as
        hits afterwards, because recovery reproduces the exact epoch."""
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), data_dir=tmp_path / "data"
        )
        serving.insert(NEW_ROWS[0])
        first = serving.search(QUERIES[0], k=3)
        cache = serving.cache
        epoch = serving.epoch
        serving.close()

        warm = ServingEngine.recover(tmp_path / "data", cache=cache)
        assert warm.epoch == epoch
        hits_before = warm.stats.hits
        again = warm.search(QUERIES[0], k=3)
        assert again.deweys == first.deweys
        assert warm.stats.hits == hits_before + 1
        warm.close()

    def test_stale_cache_entries_die_after_recovered_mutation(self, tmp_path):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), data_dir=tmp_path / "data"
        )
        serving.search(QUERIES[0], k=3)
        cache = serving.cache
        serving.close()
        warm = ServingEngine.recover(tmp_path / "data", cache=cache)
        warm.insert(("Honda", "Prelude", "Black", 2007, "rare manual"))
        misses_before = warm.stats.misses
        warm.search(QUERIES[0], k=3)
        assert warm.stats.misses == misses_before + 1  # epoch moved on
        warm.close()

    def test_sharded_serving_recover(self, tmp_path):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2,
            data_dir=tmp_path / "data", snapshot_every=3,
        )
        for row in NEW_ROWS:
            serving.insert(row)
        expected = serving.search(QUERIES[1], k=4).deweys
        epoch = serving.epoch
        serving.close()
        recovered = ServingEngine.recover(tmp_path / "data")
        assert recovered.epoch == epoch
        assert recovered.search(QUERIES[1], k=4).deweys == expected
        recovered.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_recovery_reads_each_log_once(self, tmp_path, monkeypatch, shards):
        """The reopen for appending starts from the scan the fold replayed;
        it does not read the log a second time."""
        import repro.durability.store as store_module
        import repro.durability.wal as wal_module

        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=shards,
            data_dir=tmp_path / "data",
        )
        for row in NEW_ROWS:
            serving.insert(row)
        epoch = serving.epoch
        serving.close()
        reads = []

        def counting_read_wal(path):
            reads.append(path)
            return read_wal(path)

        monkeypatch.setattr(store_module, "read_wal", counting_read_wal)
        monkeypatch.setattr(wal_module, "read_wal", counting_read_wal)
        recovered = ServingEngine.recover(tmp_path / "data")
        assert recovered.epoch == epoch
        assert len(reads) == shards
        assert len(set(reads)) == shards
        recovered.insert(("Kia", "Soul", "Blue", 2009, "boxy"))
        recovered.close()
        monkeypatch.undo()
        again = ServingEngine.recover(tmp_path / "data")
        assert again.epoch == epoch + 1
        again.close()


class TestServingAssembly:
    """``ServingEngine`` is the one assembler and the one closer of a
    durable deployment."""

    def test_refused_deployment_never_touches_disk(self, tmp_path):
        """A process pool cannot serve replicas: the refusal comes before
        the build, so no store directory is left behind."""
        from repro.parallel import UnsupportedWorkerModeError

        data_dir = tmp_path / "store"
        with pytest.raises(UnsupportedWorkerModeError):
            ServingEngine.from_relation(
                figure1_relation(), figure1_ordering(), shards=2, replicas=2,
                workers=2, worker_mode="process", data_dir=data_dir,
            )
        assert not data_dir.exists()
        with pytest.raises(ValueError, match="sharded deployment"):
            ServingEngine.from_relation(
                figure1_relation(), figure1_ordering(), replicas=2,
                data_dir=data_dir,
            )
        assert not data_dir.exists()

    def test_refused_recovery_reopens_no_log(self, tmp_path, monkeypatch):
        """Recovery asks the same rule, with the manifest's replica count,
        before any log is replayed or reopened."""
        import repro.serving.engine as serving_engine
        from repro.parallel import UnsupportedWorkerModeError

        data_dir = tmp_path / "store"
        ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, replicas=2,
            data_dir=data_dir,
        ).close()
        monkeypatch.setattr(serving_engine, "recover_index",
                            lambda *args, **kwargs: pytest.fail("recovered"))
        with pytest.raises(UnsupportedWorkerModeError):
            ServingEngine.recover(data_dir, workers=2)

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_close_reaches_stores_under_replicas_and_chaos(
            self, tmp_path, replicas):
        from faults.chaos import ChaosPolicy, ShardFaultSpec, inject
        from repro.serving.engine import durable_stores

        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2,
            replicas=replicas, data_dir=tmp_path / "store",
        )
        stores = durable_stores(serving.engine.index)
        # Leaving the block puts the proxied copies back before close.
        with serving, inject(serving.engine,
                             ChaosPolicy(default=ShardFaultSpec(latency_ms=0.01))):
            assert len(stores) == 2
            assert not any(store.wal.closed for store in stores)
        assert all(store.wal.closed for store in stores)


class TestCli:
    def _write_csv(self, tmp_path):
        csv = tmp_path / "cars.csv"
        csv.write_text(
            "Make:categorical,Model:categorical,Color:categorical,"
            "Year:numeric,Description:text\n"
            "Honda,Civic,Blue,2007,low miles clean\n"
            "Honda,Accord,Green,2006,one owner\n"
            "Toyota,Camry,Red,2007,new tires\n"
            "Kia,Rio,Green,2006,cheap commuter\n"
        )
        return csv

    def test_build_and_recover_single(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path)
        assert cli_main([
            "build", str(csv), "--ordering", "Make,Model,Color",
            "--data-dir", str(tmp_path / "store"), "--snapshot-every", "5",
        ]) == 0
        assert cli_main(["recover", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "recovered 4 live rows" in out

    def test_build_and_recover_sharded_with_query(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path)
        assert cli_main([
            "build", str(csv), "--ordering", "Make,Model",
            "--data-dir", str(tmp_path / "store"), "--shards", "2",
        ]) == 0
        assert cli_main([
            "recover", str(tmp_path / "store"),
            "--query", "Make = 'Honda'", "-k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard-0000" in out and "shard-0001" in out
        assert "Civic" in out or "Accord" in out

    def test_query_command_accepts_data_dir(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path)
        cli_main([
            "build", str(csv), "--ordering", "Make,Model",
            "--data-dir", str(tmp_path / "store"),
        ])
        assert cli_main([
            "query", str(tmp_path / "store"), "Color = 'Green'", "-k", "3",
        ]) == 0
        assert "Accord" in capsys.readouterr().out

    def test_recover_missing_dir_exits_4(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["recover", str(tmp_path / "missing")])
        assert excinfo.value.code == 4
        assert "recovery failed" in capsys.readouterr().err

    def test_recover_corrupt_store_exits_4(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path)
        cli_main([
            "build", str(csv), "--ordering", "Make,Model",
            "--data-dir", str(tmp_path / "store"),
        ])
        snapshot = tmp_path / "store" / SNAPSHOT_NAME
        snapshot.write_bytes(b"garbage, not gzip")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["recover", str(tmp_path / "store")])
        assert excinfo.value.code == 4

    def test_build_requires_destination(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path)
        assert cli_main([
            "build", str(csv), "--ordering", "Make,Model",
        ]) == 2
        assert "--out and/or --data-dir" in capsys.readouterr().err
