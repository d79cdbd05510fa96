"""The shard-executor seam: how one gather task reaches every shard.

A scatter-gather query is one picklable :class:`GatherTask`; a
:class:`ShardExecutor` takes it to every shard and returns one
:class:`ShardOutcome` per shard.  Two executors run the *same* task —
:class:`ShardExecutor` itself, shard after shard on the calling thread,
and the process one in :mod:`repro.parallel.executor` — and
:func:`gather_backend` is the one place ``(worker_mode, workers,
num_shards)`` picks between them.

In-process shard calls run under one :class:`PolicyRunner`: breaker-gated
admission, bounded retries around a single backoff step, and deadline
checks.  The engine's coordinator-side retries (plan statistics, the
union-cursor scan) go through the same runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, NamedTuple

from ..parallel.pool import UnsupportedWorkerModeError, resolve_worker_mode
from ..parallel.worker import compute_candidates
from ..query.query import Query
from ..resilience.errors import (
    DeadlineExceededError,
    ResilienceError,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from ..resilience.policy import Deadline


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

    This base runs shard after shard on the calling thread; a shard the
    loop reaches after the deadline is dropped unread.
    :class:`~repro.parallel.executor.ProcessExecutor` overrides
    :meth:`_fan_out` and :meth:`close` with its worker pool.
    """

    #: What spans report as the fan-out backend.
    mode = "serial"
    #: The fan-out pool once built (never, for the serial loop).
    _pool = None

    def __init__(self, index, runner: PolicyRunner):
        self._index = index
        self._runner = runner

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
        run, index = self._runner.shard_task, self._index
        return [
            run(shard_id, index, task, deadline)
            for shard_id in range(index.num_shards)
        ]

    def close(self) -> None:
        """Release the pool, if one was built (the serial loop has none)."""


def gather_backend(worker_mode: str, workers: int, num_shards: int,
                   replicas: int = 1) -> str:
    """Where a deployment's scatter-gathers run: ``"serial"``, or the
    resolved process mode (``fork``/``spawn``) when more than one worker
    *and* more than one shard ask for a pool.

    The one statement of that rule and of what a pool cannot serve:
    replica failover is coordinator-side state a worker process never
    sees, so a deployment that would run a pool over it is refused here — callers ask before they build or write
    anything.  ``worker_mode`` is validated either way.
    """
    mode = resolve_worker_mode(worker_mode)
    if workers <= 1 or num_shards <= 1:
        return ShardExecutor.mode
    if replicas > 1:
        raise UnsupportedWorkerModeError(
            f"process workers (workers={workers}, worker_mode="
            f"{worker_mode!r}) cannot fan out over a replicated deployment "
            f"(replicas={replicas}): replica failover is "
            f"coordinator-side state that worker processes cannot mirror; "
            f"use workers=0 with replicas > 1"
        )
    return mode


def make_executor(backend: str, workers: int, index,
                  runner: PolicyRunner) -> ShardExecutor:
    """The executor for a :func:`gather_backend` verdict: the serial loop,
    or a ``workers``-wide process pool built lazily on the first fan-out."""
    if backend == ShardExecutor.mode:
        return ShardExecutor(index, runner)
    from ..parallel.executor import ProcessExecutor

    return ProcessExecutor(index, runner, workers, backend)
