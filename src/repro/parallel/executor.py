"""The process :class:`~repro.sharding.executor.ShardExecutor`.

Ships each :class:`~repro.sharding.executor.GatherTask` to a
:class:`~repro.parallel.pool.ProcessShardPool` and classifies every
shard's reply into a :class:`~repro.sharding.executor.ShardOutcome`.
Workers call :func:`~repro.parallel.worker.compute_candidates` — the same
function the task runs in-process — so which executor ran is invisible to
the merge.
"""

from __future__ import annotations

import threading
from typing import List

from ..observability.spans import SPAN_DURATION_METRIC, SpanRecord
from ..sharding.executor import ShardExecutor, ShardOutcome
from .pool import CRASHED, DEADLINE, OK, STALE, ProcessShardPool


class ProcessExecutor(ShardExecutor):
    """Fan-out over dedicated worker processes (``fork`` or ``spawn``).

    The pool is built lazily on the first fan-out and released by
    :meth:`close`, which is idempotent and keeps no "closed" flag of its
    own: an executor used again after a close simply builds a new pool,
    and the next close releases that one.
    """

    def __init__(self, index, runner, workers: int, mode: str):
        super().__init__(index, runner)
        self._workers = workers
        self.mode = mode
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessShardPool:
        with self._lock:
            pool = self._pool
            if pool is None or pool.closed:
                pool = self._pool = ProcessShardPool(
                    self._index, self._workers, self.mode,
                    registry=self._runner.metrics(),
                )
            elif pool.stale():
                # The index mutated (or a worker died) since the replicas
                # were built: re-bootstrap at the current epoch *before*
                # fanning out, so the common path never round-trips a
                # stale answer.
                pool.rebuild("worker-loss" if pool.broken else "epoch-drift")
            return pool

    def _fan_out(self, task, deadline) -> List[ShardOutcome]:
        """Ship the task to the worker pool and classify each reply.

        The stale path is two-level: a pool whose built epochs drifted is
        rebuilt *before* fanning out (:meth:`_ensure_pool`), and any
        worker that still answers ``stale`` (its replica raced a mutation)
        triggers one rebuild-and-retry; a shard stale even then degrades
        rather than merging the wrong epoch's candidates.
        """
        algorithm, k, scored, query = task
        index = self._index
        pool = self._ensure_pool()
        responses = pool.fanout(
            query, k, algorithm, scored, index.shard_epochs(), deadline
        )
        if self._count_stale(responses):
            pool.rebuild("stale-answer")
            responses = pool.fanout(
                query, k, algorithm, scored, index.shard_epochs(), deadline
            )
            self._count_stale(responses)
        registry = self._runner.metrics()
        health = self._runner.health
        outcomes: List[ShardOutcome] = []
        for shard_id in range(index.num_shards):
            status, value, elapsed_ms = responses.get(
                shard_id, (CRASHED, "no reply", 0.0)
            )
            registry.counter(
                "repro_parallel_tasks_total",
                "Process-worker shard tasks, by outcome",
                outcome=status,
            ).inc()
            if status == OK:
                self._record_worker_span(
                    registry, shard_id, pool.worker_of(shard_id), elapsed_ms
                )
                health.record_admitted(shard_id)
                health.record_success(shard_id)
                outcomes.append(ShardOutcome(shard_id, value=value, ok=True))
            elif status == DEADLINE:
                health.record_deadline_drop(shard_id)
                outcomes.append(ShardOutcome(shard_id, reason="deadline"))
            elif status == STALE:
                # Not a shard fault — a pool-lifecycle race.  The shard is
                # dropped from this answer (degraded) without charging its
                # breaker; the pool already rebuilt for the next query.
                outcomes.append(ShardOutcome(shard_id, reason="stale epoch"))
            else:
                health.record_hard(shard_id)
                reason = "crashed" if status == CRASHED else "error"
                outcomes.append(ShardOutcome(shard_id, reason=reason))
        return outcomes

    def _count_stale(self, responses) -> int:
        stale = sum(
            1 for status, _, _ in responses.values() if status == STALE
        )
        if stale:
            self._runner.metrics().counter(
                "repro_parallel_stale_rejected_total",
                "Worker answers rejected by the epoch fence",
            ).inc(stale)
        return stale

    @staticmethod
    def _record_worker_span(registry, shard_id: int, worker: int,
                            elapsed_ms: float) -> None:
        """Publish one worker task as a span record + duration histogram.

        The duration was measured *inside* the worker process, so the
        record is materialised directly instead of bracketing coordinator
        code with :class:`span` (which would time pipe waiting, not work).
        """
        if not registry.enabled:
            return
        record = SpanRecord(
            name="shard.worker",
            duration_ms=elapsed_ms,
            parent="shard.scatter",
            fields={"shard": shard_id, "worker": worker},
        )
        registry.record_span(record)
        registry.histogram(
            SPAN_DURATION_METRIC,
            help="Wall duration of instrumented pipeline spans",
            span="shard.worker",
        ).observe(elapsed_ms)
        registry.histogram(
            "repro_parallel_task_ms",
            "Per-task worker compute time (measured worker-side)",
            worker=str(worker),
        ).observe(elapsed_ms)

    def close(self) -> None:
        """Release the pool, if one was built; callable from any thread.
        Joins every worker (terminate after a bounded grace), including
        after a failed fan-out left the pool broken."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
