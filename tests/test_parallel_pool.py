"""Pool-lifecycle suite: sizing, teardown, self-healing, fencing, refusals.

The bugfix sweep riding along with the process backend:

* the thread pool's width tracks the live config (the historical bug
  sized it once at first use and never resized);
* replica-set hedge pools derive their width from the owning engine's
  worker budget instead of a hardcoded ``min(4, R + 1)``;
* a failed fan-out never leaks futures, and ``close()`` after a failed
  ``execute()`` joins every worker — thread and process alike;
* a killed worker process costs one degraded answer, not the engine;
* unsupported mode combinations (process + chaos, process + replication,
  spawn without a durable store) raise loudly instead of silently
  serving wrong experiments.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import signal
import threading
import time

import pytest

from repro import DiversityEngine
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.parallel import (
    ProcessShardPool,
    UnsupportedWorkerModeError,
    resolve_worker_mode,
)
from repro.replication.replica_set import ReplicaSet
from repro.resilience import ChaosPolicy, ResiliencePolicy
from repro.resilience.policy import Deadline
from repro.sharding import ShardedEngine, ShardedIndex

from .conftest import (
    RANDOM_ORDERING,
    fanout_query,
    random_query,
    random_relation,
)

HAS_FORK = "fork" in mp.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)


def _payload(result):
    return [
        (item.dewey, item.rid, tuple(sorted(item.values.items())), item.score)
        for item in result
    ]


# ----------------------------------------------------------------------
# Satellite 1: thread-pool width tracks the live configuration
# ----------------------------------------------------------------------
class TestThreadPoolWidth:
    def test_pool_width_is_min_of_workers_and_shards(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=8
        ) as engine:
            pool = engine._executor._ensure_pool()
            assert pool._max_workers == 2
            assert engine._executor._pool_width == 2

    def test_set_workers_rebuilds_the_pool_at_the_new_width(self):
        """Regression: the pool was sized once at first use and never
        resized, so a later ``set_workers`` silently kept the old width."""
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=4, workers=2
        ) as engine:
            first = engine._executor._ensure_pool()
            assert first._max_workers == 2
            engine.set_workers(4)
            second = engine._executor._ensure_pool()
            assert second is not first
            assert second._max_workers == 4
            # And back down again.
            engine.set_workers(3)
            assert engine._executor._ensure_pool()._max_workers == 3

    def test_unchanged_width_reuses_the_pool(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=4, workers=2
        ) as engine:
            assert engine._executor._ensure_pool() is engine._executor._ensure_pool()

    def test_set_workers_rejects_negative(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=2
        ) as engine:
            with pytest.raises(ValueError):
                engine.set_workers(-1)


# ----------------------------------------------------------------------
# Satellite 3: hedge-pool width derives from the engine's worker budget
# ----------------------------------------------------------------------
class TestHedgePoolWidth:
    def test_no_budget_keeps_the_legacy_width(self):
        assert ReplicaSet.derive_pool_width(1, 4, 0) == 2
        assert ReplicaSet.derive_pool_width(2, 4, 0) == 3
        assert ReplicaSet.derive_pool_width(3, 4, 0) == 4
        assert ReplicaSet.derive_pool_width(9, 4, 0) == 4  # legacy cap

    def test_budget_share_caps_at_replica_count_plus_hedge(self):
        # 16 workers over 2 shards: an 8-wide share, but 2 replicas only
        # ever race 3 legs.
        assert ReplicaSet.derive_pool_width(2, 2, 16) == 3

    def test_small_budget_floors_at_two_legs(self):
        # 1 worker over 4 shards: a hedge still needs a racer.
        assert ReplicaSet.derive_pool_width(3, 4, 1) == 2

    def test_budget_splits_across_shards(self):
        # 8 workers over 4 shards -> share 2 -> width 3 (capped by R+1=4).
        assert ReplicaSet.derive_pool_width(3, 4, 8) == 3

    def test_engine_budget_reaches_replica_sets(self):
        relation = random_relation(random.Random(11), max_rows=30)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        with ShardedEngine(index, workers=8) as engine:
            index.replicate(2)
            expected = ReplicaSet.derive_pool_width(2, 2, 8)
            for shard in index.shards:
                assert shard.pool_width == expected
            # Re-sizing the engine re-derives the hedge widths too.
            engine.set_workers(2)
            narrowed = ReplicaSet.derive_pool_width(2, 2, 2)
            for shard in index.shards:
                assert shard.pool_width == narrowed

    def test_standalone_set_keeps_legacy_width(self):
        relation = random_relation(random.Random(12), max_rows=20)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        index.replicate(2)
        for shard in index.shards:
            assert shard.pool_width == 3  # min(4, R + 1), no budget

    def test_set_pool_budget_rejects_zero(self):
        relation = random_relation(random.Random(13), max_rows=20)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        index.replicate(2)
        with pytest.raises(ValueError):
            index.shards[0].set_pool_budget(0)


# ----------------------------------------------------------------------
# Satellite 2: teardown on exception paths, thread and process
# ----------------------------------------------------------------------
class TestTeardownAfterFailure:
    def test_thread_close_after_failed_execute(self):
        rng = random.Random(21)
        relation = random_relation(rng, max_rows=30)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, workers=2,
            policy=ResiliencePolicy(max_retries=0),
        )
        engine.inject_chaos(ChaosPolicy.crash_shards(0, 1))
        with pytest.raises(Exception):
            engine.search(random_query(rng), 5, algorithm="probe")
        engine.close()  # joins the fan-out threads despite the failure
        assert engine._executor._pool is None
        engine.close()  # and stays idempotent

    @needs_fork
    def test_process_close_after_killed_worker(self):
        rng = random.Random(22)
        relation = random_relation(rng, max_rows=30)
        engine = ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, workers=2,
            worker_mode="fork",
        )
        # Fan-out queries: a routed gather never reaches the workers.
        engine.search(fanout_query(rng), 5, algorithm="naive")
        for pid in engine._executor._pool.worker_pids():
            os.kill(pid, signal.SIGKILL)
        # The next query sees dead pipes; whatever it reports, close()
        # afterwards must still join everything.
        try:
            engine.search(fanout_query(rng), 5, algorithm="naive")
        except Exception:
            pass
        engine.close()
        engine.close()
        assert mp.active_children() == []

    @needs_fork
    def test_process_concurrent_close_race(self):
        engine = ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=2,
            worker_mode="fork",
        )
        engine.search("Make = 'Honda'", k=2, algorithm="naive")
        errors = []
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            try:
                engine.close()
            except BaseException as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert mp.active_children() == []


# ----------------------------------------------------------------------
# Reuse after close: the lazily rebuilt pool is released by the next close
# ----------------------------------------------------------------------
@pytest.mark.parametrize("worker_mode", [
    "thread", pytest.param("fork", marks=needs_fork),
])
def test_close_search_close_leaves_no_pool_behind(worker_mode):
    """Regression: ``close()`` latched a ``_closed`` flag, a later gather
    query lazily rebuilt the pool, and the second ``close()`` returned
    early — the rebuilt pool's threads/workers were never joined."""
    engine = ShardedEngine.from_relation(
        figure1_relation(), figure1_ordering(), shards=2, workers=2,
        worker_mode=worker_mode,
    )
    # No ``Make = v`` conjunct: a routed gather builds no pool.
    engine.search("Color = 'Blue'", k=2, algorithm="naive")
    engine.close()
    engine.search("Color = 'Blue'", k=2, algorithm="naive")  # pool is back
    rebuilt = engine._executor._pool
    assert rebuilt is not None
    pids = rebuilt.worker_pids() if worker_mode == "fork" else []
    engine.close()
    assert engine._executor._pool is None
    assert not [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-shard")
    ]
    assert not [
        child for child in mp.active_children() if child.pid in pids
    ]


# ----------------------------------------------------------------------
# Self-healing: a killed worker costs one degraded answer, not the engine
# ----------------------------------------------------------------------
@needs_fork
def test_killed_worker_degrades_then_heals():
    rng = random.Random(31)
    relation = random_relation(rng, max_rows=40)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    query = random_query(rng)
    with ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=4, workers=2, worker_mode="fork"
    ) as engine:
        expected = _payload(reference.search(query, 5, algorithm="naive"))
        assert _payload(engine.search(query, 5, algorithm="naive")) == expected
        victim = engine._executor._pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.05)
        degraded = engine.search(query, 5, algorithm="naive")
        # The victim's shards are lost for this answer; the engine reports
        # the degradation instead of hanging or crashing.
        assert degraded.stats["degraded"] is True
        assert degraded.stats["shards_failed"] >= 1
        assert engine._executor._pool.broken
        # Next query rebuilds the pool: full bit-identical answers again.
        healed = engine.search(query, 5, algorithm="naive")
        assert _payload(healed) == expected
        assert not healed.stats["degraded"]
        assert not engine._executor._pool.broken
    assert mp.active_children() == []


# ----------------------------------------------------------------------
# Epoch fencing at the pool level: stale answers are rejected, not merged
# ----------------------------------------------------------------------
@needs_fork
def test_pool_rejects_mismatched_epochs():
    rng = random.Random(41)
    relation = random_relation(rng, max_rows=30)
    index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
    query = random_query(rng)
    with ProcessShardPool(index, workers=2, mode="fork") as pool:
        fresh = pool.fanout(query, 5, "naive", False, index.shard_epochs())
        assert all(status == "ok" for status, _, _ in fresh.values())
        # Claim a future epoch: every worker must refuse to answer.
        drifted = [epoch + 1 for epoch in index.shard_epochs()]
        fenced = pool.fanout(query, 5, "naive", False, drifted)
        assert all(status == "stale" for status, _, _ in fenced.values())
        for status, value, _ in fenced.values():
            seen, expected = value
            assert expected == seen + 1
    assert mp.active_children() == []


@needs_fork
def test_pool_stale_detection_after_index_mutation():
    rng = random.Random(42)
    relation = random_relation(rng, max_rows=30)
    index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
    with ProcessShardPool(index, workers=2, mode="fork") as pool:
        assert not pool.stale()
        rid = relation.insert(("A", "m1", "red", "fun"))
        index.insert(rid)
        assert pool.stale()
        pool.rebuild("test")
        assert not pool.stale()
        assert pool.built_epochs == index.shard_epochs()
    assert mp.active_children() == []


@needs_fork
def test_deadline_expiry_reports_deadline_and_discards_late_replies():
    rng = random.Random(43)
    relation = random_relation(rng, max_rows=30)
    index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
    query = random_query(rng)
    with ProcessShardPool(index, workers=2, mode="fork") as pool:
        # Freeze the workers: no reply can arrive inside the deadline.
        for pid in pool.worker_pids():
            os.kill(pid, signal.SIGSTOP)
        try:
            dropped = pool.fanout(
                query, 5, "naive", False, index.shard_epochs(), Deadline(50.0)
            )
        finally:
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGCONT)
        assert all(
            status == "deadline" for status, _, _ in dropped.values()
        )
        # The abandoned replies drain on the next fan-out (request-id
        # matching): fresh answers come back clean.
        fresh = pool.fanout(query, 5, "naive", False, index.shard_epochs())
        assert all(status == "ok" for status, _, _ in fresh.values())
    assert mp.active_children() == []


# ----------------------------------------------------------------------
# Unsupported combinations fail loudly
# ----------------------------------------------------------------------
class TestUnsupportedCombinations:
    @needs_fork
    def test_chaos_plus_process_engine_raises(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=2,
            worker_mode="fork",
        ) as engine:
            with pytest.raises(UnsupportedWorkerModeError):
                engine.inject_chaos(ChaosPolicy.transient(0.5, seed=1))

    @needs_fork
    def test_replication_plus_process_pool_raises(self):
        relation = random_relation(random.Random(51), max_rows=20)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        index.replicate(2)
        with pytest.raises(UnsupportedWorkerModeError):
            ProcessShardPool(index, workers=2, mode="fork")

    @needs_fork
    def test_replication_plus_process_engine_raises_eagerly(self):
        relation = random_relation(random.Random(52), max_rows=20)
        index = ShardedIndex.build(relation, RANDOM_ORDERING, shards=2)
        index.replicate(2)
        with pytest.raises(UnsupportedWorkerModeError):
            ShardedEngine(index, workers=2, worker_mode="process")

    def test_spawn_without_durable_store_raises_at_first_fanout(self):
        rng = random.Random(53)
        relation = random_relation(rng, max_rows=20)
        with ShardedEngine.from_relation(
            relation, RANDOM_ORDERING, shards=2, workers=2,
            worker_mode="spawn",
        ) as engine:
            with pytest.raises(UnsupportedWorkerModeError,
                               match="durable store"):
                engine.search(fanout_query(rng), 5, algorithm="naive")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_worker_mode("gevent")

    def test_serving_replicas_plus_process_raises(self):
        from repro.serving import ServingEngine

        with pytest.raises(UnsupportedWorkerModeError):
            ServingEngine.from_relation(
                figure1_relation(), figure1_ordering(), shards=2,
                workers=2, worker_mode="process", replicas=2,
            )


# ----------------------------------------------------------------------
# Single-shard / zero-worker configs degrade to serial, not to errors
# ----------------------------------------------------------------------
def test_process_mode_with_one_shard_runs_serial():
    rng = random.Random(61)
    relation = random_relation(rng, max_rows=30)
    reference = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
    query = random_query(rng)
    with ShardedEngine.from_relation(
        relation, RANDOM_ORDERING, shards=1, workers=4, worker_mode="process"
    ) as engine:
        assert _payload(engine.search(query, 5, algorithm="naive")) == \
            _payload(reference.search(query, 5, algorithm="naive"))
        assert engine._executor._pool is None  # never built
    assert mp.active_children() == []
