"""The shard-executor seam: how one gather task reaches every shard.

A scatter-gather query is one picklable :class:`GatherTask`; a
:class:`ShardExecutor` takes it to every shard and returns one
:class:`ShardOutcome` per shard.  Three executors run the *same* task —
:class:`SerialExecutor` and :class:`ThreadExecutor` here, the process one
in :mod:`repro.parallel.executor` — and :func:`make_executor` is the one
place ``(worker_mode, workers, num_shards)`` picks among them.

In-process shard calls run under one :class:`PolicyRunner`: breaker-gated
admission, bounded retries around a single backoff step, and deadline
checks.  The engine's coordinator-side retries (plan statistics, the
union-cursor scan) go through the same runner.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple

from ..parallel.pool import PROCESS_MODES
from ..parallel.worker import compute_candidates
from ..query.query import Query
from ..resilience.errors import (
    DeadlineExceededError,
    ResilienceError,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from ..resilience.policy import Deadline, deadline_scope


@dataclass
class ShardOutcome:
    """One shard's fate within a single scatter-gather fan-out."""

    shard_id: int
    value: Any = None
    ok: bool = False
    reason: str = ""          # "" | "crashed" | "circuit open" |
                              # "retries exhausted" | "deadline" | "error"
    retries: int = 0


class GatherTask(NamedTuple):
    """One gather request: calling it on a shard yields that shard's
    ``(candidates, next_calls, scored_next_calls)``.  A plain tuple of
    picklable values, so it crosses a worker pipe unchanged."""

    algorithm: str
    k: int
    scored: bool
    query: Query

    def __call__(self, shard):
        return compute_candidates(
            shard, self.query, self.k, self.algorithm, self.scored
        )


class PolicyRunner:
    """Runs shard calls under one engine's :class:`ResiliencePolicy`."""

    def __init__(self, policy, health, rng, sleep: Callable[[float], None],
                 metrics: Callable[[], Any]):
        self.policy = policy
        self.health = health
        self.metrics = metrics
        self._rng = rng
        self._sleep = sleep

    def _backoff(self, shard_id: int, attempt: int, deadline: Deadline,
                 phase: str) -> bool:
        """Spend retry ``attempt``'s jittered backoff, clamped to what is
        left of the deadline; False when the wait used the budget up."""
        self.health.record_retry(shard_id)
        self.metrics().counter(
            "repro_retries_total",
            "Shard-call retries spent on transient faults, by phase",
            phase=phase,
        ).inc()
        delay_s = self.policy.backoff_ms(attempt, self._rng) / 1000.0
        delay_s = min(delay_s, deadline.remaining_ms() / 1000.0)
        if delay_s > 0.0:
            self._sleep(delay_s)
        return not deadline.expired()

    def retrying(self, operation, deadline: Deadline, phase: str = "scan"):
        """Run ``operation()`` retrying transient shard faults per policy.

        Returns ``(value, retries_spent)``.  Crashes and exhausted retries
        surface as :class:`ShardUnavailableError`; an expired deadline as
        :class:`DeadlineExceededError`.  Used where the work cannot be
        split per shard: plan preparation and the coordinator-driven scan,
        both of which read through union cursors that touch every shard.
        """
        policy = self.policy
        health = self.health
        attempts = 0
        while True:
            try:
                # The deadline scope lets layers below the index read
                # protocol (a ReplicaSet timing a hedged backup read) see
                # the remaining budget without widening the protocol.
                with deadline_scope(deadline):
                    return operation(), attempts
            except TransientShardError as error:
                health.record_transient(error.shard_id)
                if attempts >= policy.max_retries:
                    raise ShardUnavailableError(
                        {error.shard_id: "retries exhausted"}, len(health)
                    ) from error
                attempts += 1
                # Checked before *and* after the wait: a backoff that
                # consumed the rest of the budget must not grant one extra
                # attempt after the deadline fully elapsed (drift).
                if deadline.expired() or not self._backoff(
                    error.shard_id, attempts, deadline, phase
                ):
                    raise DeadlineExceededError(
                        policy.deadline_ms or 0.0, deadline.elapsed_ms()
                    ) from error
            except ShardCrashedError as error:
                health.record_hard(error.shard_id)
                raise ShardUnavailableError(
                    {error.shard_id: "crashed"}, len(health)
                ) from error

    def shard_task(self, shard_id: int, index, task,
                   deadline: Deadline) -> ShardOutcome:
        """Run ``task`` on shard ``shard_id`` of ``index`` under the
        policy; never raises.

        Breaker-gated admission, bounded retries with jittered backoff on
        transient faults, deadline checks between attempts.  The outcome
        carries either the value or a machine-readable failure reason the
        gather step turns into degradation stats.
        """
        health = self.health
        if not health.allow(shard_id):
            health.record_skip(shard_id)
            return ShardOutcome(shard_id, reason="circuit open")
        attempts = 0
        while True:
            if deadline.expired():
                health.record_deadline_drop(shard_id)
                return ShardOutcome(shard_id, reason="deadline", retries=attempts)
            health.record_admitted(shard_id)
            reader = index.pinned(shard_id)  # one replica choice per attempt
            try:
                with deadline_scope(deadline):
                    value = task(reader)
            except TransientShardError:
                health.record_transient(shard_id)
                if attempts >= self.policy.max_retries:
                    return ShardOutcome(
                        shard_id, reason="retries exhausted", retries=attempts
                    )
                attempts += 1
                self._backoff(shard_id, attempts, deadline, "gather")
            except ShardCrashedError:
                health.record_hard(shard_id)
                return ShardOutcome(shard_id, reason="crashed", retries=attempts)
            except ResilienceError:
                health.record_hard(shard_id)
                return ShardOutcome(shard_id, reason="error", retries=attempts)
            else:
                health.record_success(shard_id)
                return ShardOutcome(
                    shard_id, value=value, ok=True, retries=attempts
                )
            finally:
                index.release(reader)


class ShardExecutor:
    """``scatter(task, deadline)`` to every shard, plus ``close()``.

    Subclasses implement :meth:`_fan_out`.  Pools are built lazily on the
    first fan-out and released by :meth:`close`, which is idempotent and
    keeps no "closed" flag of its own: an executor used again after a
    close simply builds a new pool, and the next close releases that one.
    """

    #: What spans report as the fan-out backend.
    mode = "thread"
    #: The fan-out pool once built (never, for the serial executor).
    _pool = None

    def __init__(self, index, runner: PolicyRunner):
        self._index = index
        self._runner = runner
        self._lock = threading.Lock()

    def scatter(self, task: GatherTask, deadline: Deadline) -> List[ShardOutcome]:
        """One outcome per shard, in shard order.  Raises only on total
        loss: :class:`DeadlineExceededError` when the deadline killed
        every shard, :class:`ShardUnavailableError` when no shard survived
        for any other mix of reasons."""
        outcomes = self._fan_out(task, deadline)
        if not any(outcome.ok for outcome in outcomes):
            if all(outcome.reason == "deadline" for outcome in outcomes):
                raise DeadlineExceededError(
                    self._runner.policy.deadline_ms or 0.0,
                    deadline.elapsed_ms(),
                )
            raise ShardUnavailableError(
                {outcome.shard_id: outcome.reason for outcome in outcomes},
                len(outcomes),
            )
        return outcomes

    def _fan_out(self, task: GatherTask, deadline: Deadline) -> List[ShardOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release the pool, if one was built; callable from any thread."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            self._shutdown(pool)

    def _shutdown(self, pool) -> None:
        raise NotImplementedError


class SerialExecutor(ShardExecutor):
    """Shard after shard on the calling thread."""

    def _fan_out(self, task, deadline):
        run, index = self._runner.shard_task, self._index
        return [
            run(shard_id, index, task, deadline)
            for shard_id in range(index.num_shards)
        ]


class ThreadExecutor(ShardExecutor):
    """All shards at once on a persistent ``min(workers, shards)``-wide
    thread pool (GIL-bound: concurrency, not parallelism)."""

    def __init__(self, index, runner: PolicyRunner, workers: int):
        super().__init__(index, runner)
        self._pool_width = min(workers, index.num_shards)

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._pool_width,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    def _fan_out(self, task, deadline):
        pool = self._ensure_pool()
        run = self._runner.shard_task
        health = self._runner.health
        futures = {
            pool.submit(run, shard_id, self._index, task, deadline): shard_id
            for shard_id in range(self._index.num_shards)
        }
        try:
            timeout = deadline.remaining_ms() / 1000.0
            done, not_done = wait(
                futures, timeout=None if timeout == float("inf") else timeout
            )
        except BaseException:
            # The fan-out itself failed (not a shard): cancel what has
            # not started and surface the error with the pool clean —
            # never leak futures into a pool we may close right after.
            for future in futures:
                future.cancel()
            raise
        outcomes: Dict[int, ShardOutcome] = {}
        for future in done:
            shard_id = futures[future]
            if future.exception() is not None:
                # The runner is supposed to be total; treat a leak as a
                # hard shard failure rather than poisoning the pool.
                health.record_hard(shard_id)
                outcomes[shard_id] = ShardOutcome(shard_id, reason="error")
            else:
                outcomes[shard_id] = future.result()
        for future in not_done:
            # Past deadline: cancel what never started, abandon (drain
            # into the persistent pool) what is mid-flight.
            shard_id = futures[future]
            future.cancel()
            health.record_deadline_drop(shard_id)
            outcomes[shard_id] = ShardOutcome(shard_id, reason="deadline")
        return [outcomes[shard_id] for shard_id in sorted(outcomes)]

    def _shutdown(self, pool: ThreadPoolExecutor) -> None:
        pool.shutdown(wait=True, cancel_futures=True)


def make_executor(mode: str, workers: int, index,
                  runner: PolicyRunner) -> ShardExecutor:
    """Pick the executor for a resolved ``worker_mode``, a worker budget
    and a topology — the only place that rule is written down: fan-out
    needs more than one worker *and* more than one shard, otherwise every
    mode runs serially (and builds no pool)."""
    if workers > 1 and index.num_shards > 1:
        if mode in PROCESS_MODES:
            from ..parallel.executor import ProcessExecutor

            return ProcessExecutor(index, runner, workers, mode)
        return ThreadExecutor(index, runner, workers)
    return SerialExecutor(index, runner)
