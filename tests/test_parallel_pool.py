"""Pool-lifecycle suite: sizing, teardown, self-healing, fencing, refusals.

* the process pool is ``min(workers, shards)`` wide and reused while the
  index stands still;
* ``close()`` after a killed worker or from many threads at once joins
  every worker process;
* a killed worker process costs one degraded answer, not the engine;
* unsupported combinations (a pool over replicas or chaos, spawn without
  a durable store) raise loudly instead of silently serving wrong
  experiments, and refuse only when a pool would actually run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import signal
import threading
import time

import pytest

from faults.chaos import ChaosPolicy, FaultyShard, inject
from repro import DiversityEngine
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.parallel import (
    ProcessShardPool,
    UnsupportedWorkerModeError,
    resolve_worker_mode,
)
from repro.observability import use_registry
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
# Pool widths
# ----------------------------------------------------------------------
@needs_fork
class TestProcessPoolWidth:
    def test_pool_width_is_min_of_workers_and_shards(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=8,
            worker_mode="fork",
        ) as engine:
            assert engine._executor._ensure_pool().width == 2

    def test_unchanged_width_reuses_the_pool(self):
        with ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=4, workers=2,
            worker_mode="fork",
        ) as engine:
            assert engine._executor._ensure_pool() is engine._executor._ensure_pool()


# ----------------------------------------------------------------------
# Teardown on exception paths
# ----------------------------------------------------------------------
class TestTeardownAfterFailure:
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
    pytest.param("fork", marks=needs_fork),
])
def test_close_search_close_leaves_no_pool_behind(worker_mode):
    """Regression: ``close()`` latched a ``_closed`` flag, a later gather
    query lazily rebuilt the pool, and the second ``close()`` returned
    early — the rebuilt pool's workers were never joined."""
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
    pids = rebuilt.worker_pids()
    engine.close()
    assert engine._executor._pool is None
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
                inject(engine, ChaosPolicy.transient(0.5, seed=1))

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

    @pytest.mark.parametrize("workers, replicas, chaos, worker_mode, refused", [
        (0, 2, False, "process", None),
        (2, 2, False, "process", UnsupportedWorkerModeError),
        (0, 1, True, "process", None),
        (2, 1, True, "process", UnsupportedWorkerModeError),
        (0, 1, False, "thread", ValueError),
    ], ids=["serial-replicas", "pool-replicas", "serial-chaos", "pool-chaos",
            "thread-mode"])
    def test_refusals_apply_only_when_a_pool_would_run(
            self, tmp_path, workers, replicas, chaos, worker_mode, refused):
        from repro.serving import ServingEngine

        data_dir = tmp_path / "store"

        def deploy():
            serving = ServingEngine.from_relation(
                figure1_relation(), figure1_ordering(), shards=2,
                replicas=replicas, workers=workers, worker_mode=worker_mode,
                data_dir=data_dir,
            )
            if chaos:
                try:
                    inject(serving.engine, ChaosPolicy.slow_shards(0.01))
                except ValueError:
                    serving.close()
                    raise
            return serving

        if refused is None:
            with deploy() as serving:
                assert serving.engine.resolved_worker_mode == "serial"
                assert serving.engine.sharded_index.replication_factor == replicas
                result = serving.search("Color = 'Blue'", k=2, algorithm="naive")
                assert len(result) == 2
                slot = serving.engine.sharded_index.shards[0]
                assert isinstance(slot, FaultyShard) == chaos
            return
        with pytest.raises(refused) as excinfo:
            deploy()
        if worker_mode == "thread":
            assert "('process', 'fork', 'spawn')" in str(excinfo.value)
        if not chaos:
            # Refused before the build: nothing was written.
            assert not data_dir.exists()

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
        assert engine.resolved_worker_mode == "serial"
    assert mp.active_children() == []


def test_serial_gathers_are_labelled_serial():
    """Regression: the serial loop inherited ``mode = "thread"``, so its
    ``shard.scatter`` spans and ``resolved_worker_mode`` named a thread
    pool that never ran."""
    with use_registry() as registry:
        engine = ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=0
        )
        # A fan-out gather, then a routed one.
        for query in ("Color = 'Blue'", "Make = 'Honda'"):
            engine.search(query, k=2, algorithm="naive")
    assert engine.resolved_worker_mode == "serial"
    assert [
        record.fields for record in registry.spans
        if record.name == "shard.scatter"
    ] == [
        {"shards": 2, "workers": 0, "mode": "serial"},
        {"shards": 1, "workers": 0, "mode": "serial"},
    ]
