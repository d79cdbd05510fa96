"""R bit-identical copies of one logical shard behind one read protocol.

A :class:`ReplicaSet` stands where a single shard index used to stand in
``ShardedIndex._shards`` (the same in-place wrapping idiom chaos and
durability use), so both engine strategies — scatter-gather and the
coordinator-driven union-cursor scan — read through it without knowing
replication exists.  Guarantees:

* **Bit-identical reads from any copy.**  Every replica serves the same
  rid subset over the *same shared global Dewey assignment* at the same
  epoch (verified by payload sha256 at bootstrap,
  :mod:`repro.replication.bootstrap`), so failing over mid-query cannot
  change an answer — the paper's Definitions 1-2 are preserved exactly
  through any partial replica loss.
* **Transparent failover.**  Reads prefer the healthiest copy (closed
  breaker first, lowest EWMA latency, replica id as the deterministic
  tiebreak) and on :class:`TransientShardError` / :class:`ShardCrashedError`
  / an open per-replica breaker move to the next.  Only when *every*
  copy fails does the set surface a shard-level error — transient if any
  copy failed transiently (the engine's retry machinery may yet succeed),
  crashed otherwise — so the engine degrades or fails exactly as if the
  whole logical shard were lost.  The preference order is resolved per
  query *phase*, not per read (:meth:`ReplicaSet.pin`): it cannot change
  inside one healthy phase, so the phase's reads go straight to the chosen
  copy and their bookkeeping (counts, one latency sample, the breaker
  window) is batched into the release, not dropped; a read that fails is
  booked at once and re-enters the failover loop.
* **Optional hedged reads.**  With a :class:`~repro.replication.hedging
  .HedgePolicy`, the first attempt of a read races a backup on the
  next-best replica after the configured latency percentile; first
  response wins, the loser is cancelled (best-effort), never more than
  one backup per read, and both the trigger delay and the wait are
  bounded by the query's remaining deadline budget
  (:func:`~repro.resilience.policy.current_deadline`).  Unhedged sets
  are fully sequential and deterministic — the chaos differential suite
  runs that way.
* **Converged mutations.**  ``insert``/``remove`` forward to every copy
  (primary first — a durable primary WALs the record before any copy
  changes) and then assert epoch + Dewey agreement, raising
  :class:`~repro.resilience.errors.ReplicaDivergenceError` on any
  disagreement rather than serving from a silently forked copy.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..index.reader import NamedReads, sum_memory_stats
from ..observability import MONOTONIC, Clock, get_registry
from ..resilience.breaker import CircuitBreaker, OPEN
from ..resilience.errors import (
    ReplicaDivergenceError,
    ShardCrashedError,
    TransientShardError,
)
from ..resilience.policy import DEFAULT_POLICY, ResiliencePolicy, current_deadline
from .bootstrap import bootstrap_replicas
from .hedging import HedgePolicy

#: EWMA smoothing for per-replica read latency (weight of the new sample).
_EWMA_ALPHA = 0.2


def _remaining_seconds(deadline) -> Optional[float]:
    """Deadline budget as a future/wait timeout (None when unbounded)."""
    if deadline is None:
        return None
    remaining_ms = deadline.remaining_ms()
    if math.isinf(remaining_ms):
        return None
    return max(0.0, remaining_ms / 1000.0)


@dataclass
class ReplicaHealth:
    """Cumulative outcome counters for one physical copy of a shard."""

    shard_id: int
    replica_id: int
    requests: int = 0
    successes: int = 0
    transient_failures: int = 0
    hard_failures: int = 0
    skipped_open: int = 0      # attempts rejected by this copy's open breaker
    ewma_ms: float = 0.0       # smoothed read latency (0 until first success)


class _HedgedFailure(Exception):
    """Internal: both legs of a hedged read failed; carries per-replica reasons."""

    def __init__(self, reasons: Dict[int, str]):
        self.reasons = reasons
        super().__init__(f"hedged read failed on replicas {sorted(reasons)}")


class ReplicaSet(NamedReads):
    """R replicas of one logical shard, speaking the shard read protocol."""

    def __init__(
        self,
        replicas: List,
        shard_id: int,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        hedge: Optional[HedgePolicy] = None,
        registry=None,
    ):
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self._replicas = list(replicas)
        self.shard_id = shard_id
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._clock = clock
        self._hedge = hedge
        self._registry = registry
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._health = [
            ReplicaHealth(shard_id=shard_id, replica_id=replica_id)
            for replica_id in range(len(self._replicas))
        ]
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker.from_policy(self._policy, clock) for _ in self._replicas
        ]
        self.failovers = 0
        self.hedges_fired = 0
        self.hedges_won = 0
        self.hedges_wasted = 0
        self._samples: deque = deque(
            maxlen=hedge.window if hedge is not None else 128
        )

    @classmethod
    def grow(
        cls,
        primary,
        count: int,
        shard_id: int,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        hedge: Optional[HedgePolicy] = None,
        registry=None,
    ) -> "ReplicaSet":
        """Bootstrap ``count - 1`` verified copies of ``primary`` and wrap
        all ``count`` behind one set (see :mod:`repro.replication.bootstrap`)."""
        copies = bootstrap_replicas(primary, count)
        return cls([primary, *copies], shard_id, policy=policy, clock=clock,
                   hedge=hedge, registry=registry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> List:
        """The physical copies, replica order (0 is the primary)."""
        return self._replicas

    @property
    def num_replicas(self) -> int:
        return len(self._replicas)

    def health_rows(self) -> List[Dict]:
        """Per-replica health dicts (the HealthBoard snapshot contract)."""
        with self._lock:
            return [
                {**asdict(health), "retries": 0, "deadline_drops": 0,
                 "breaker": self.breakers[replica_id].state}
                for replica_id, health in enumerate(self._health)
            ]

    def __repr__(self) -> str:
        states = ",".join(breaker.state for breaker in self.breakers)
        return (
            f"ReplicaSet(shard={self.shard_id}, replicas={self.num_replicas}, "
            f"breakers=[{states}], failovers={self.failovers}, "
            f"hedges={self.hedges_fired})"
        )

    @staticmethod
    def _raw(replica):
        """Unwrap a chaos proxy (mutations and control reads skip chaos)."""
        return getattr(replica, "inner", replica)

    @property
    def _target(self):
        # Control plane: no failover — identical on every copy by
        # invariant, so the raw primary answers.
        return self._raw(self._replicas[0])

    def memory_stats(self) -> dict:
        """Deployment-truthful accounting: every copy is resident memory."""
        stats = sum_memory_stats(
            self.backend, [self._raw(replica) for replica in self._replicas]
        )
        stats["replicas"] = self.num_replicas
        return stats

    # ------------------------------------------------------------------
    # Data-path reads: failover (+ optional hedging)
    # ------------------------------------------------------------------
    def pin(self):
        """This set's reader for one query phase: a :class:`PinnedReplica`
        on the preferred copy, admitted by its breaker once — or the set
        itself (the per-read path) when hedged or refused."""
        if self._hedge is None:
            replica_id = self._selection_order()[0]
            if self.breakers[replica_id].allow():
                return PinnedReplica(self, replica_id)
        return self

    def _selection_order(self) -> List[int]:
        """Preference order: closed breakers before open ones, then lowest
        EWMA latency, then replica id (the deterministic tiebreak that keeps
        unhedged fault-free runs pinned to the primary)."""
        # Lock-free: each ``ewma_ms`` is one float stored under the lock,
        # and a preference needs no consistent snapshot across copies.
        order = sorted(
            (breaker.state == OPEN, health.ewma_ms, health.replica_id)
            for breaker, health in zip(self.breakers, self._health)
        )
        return [replica_id for _, _, replica_id in order]

    def _read(self, operation: str, *args, pinned=None):
        """One read, moving down the preference order past failed copies.
        ``pinned``: a pin whose copy just failed this read (booked already)
        — that copy is skipped and the pin moves to the one that answers."""
        candidates = deque(self._selection_order())
        reasons: Dict[int, str] = {}
        hedged = False
        if pinned is not None:
            reasons[pinned.replica_id] = pinned.failure
            candidates.remove(pinned.replica_id)
            self._count_failovers(1)
        while candidates:
            replica_id = candidates.popleft()
            if not self.breakers[replica_id].allow():
                with self._lock:
                    self._health[replica_id].skipped_open += 1
                reasons[replica_id] = "circuit open"
                continue
            use_hedge = (
                self._hedge is not None and not hedged and bool(candidates)
            )
            try:
                if use_hedge:
                    hedged = True  # at most one backup per shard read
                    return self._call_hedged(operation, replica_id, args,
                                             candidates)
                value = self._call(operation, replica_id, args)
                if pinned is not None:
                    pinned.move_to(replica_id)
                return value
            except TransientShardError:
                reasons[replica_id] = "transient"
            except ShardCrashedError:
                reasons[replica_id] = "crashed"
            except _HedgedFailure as failure:
                reasons.update(failure.reasons)
                for rid in failure.reasons:
                    if rid in candidates:
                        candidates.remove(rid)
            self._count_failovers(1)
        return self._raise_exhausted(operation, reasons)

    def _raise_exhausted(self, operation: str, reasons: Dict[int, str]):
        detail = ", ".join(
            f"replica {rid}: {reason}" for rid, reason in sorted(reasons.items())
        )
        message = (
            f"all {self.num_replicas} replicas of shard {self.shard_id} "
            f"failed during {operation!r} ({detail})"
        )
        if any(reason == "transient" for reason in reasons.values()):
            # A transient-anywhere loss is worth the engine's retry budget:
            # the next attempt re-enters the failover loop from the top.
            raise TransientShardError(self.shard_id, operation, message=message)
        raise ShardCrashedError(self.shard_id, operation, message=message)

    def _call(self, operation: str, replica_id: int, args: tuple):
        """One timed, health-recorded read against one copy."""
        with self._lock:
            self._health[replica_id].requests += 1
        started = self._clock()
        try:
            value = getattr(self._replicas[replica_id], operation)(*args)
        except (TransientShardError, ShardCrashedError) as error:
            self._book_failure(replica_id, error)
            raise
        self._book_successes(replica_id, 1, (self._clock() - started) * 1000.0)
        return value

    def _book_failure(self, replica_id: int, error: Exception,
                      requests: int = 0) -> str:
        """Book one failed read on one copy; returns the failover reason."""
        health = self._health[replica_id]
        transient = isinstance(error, TransientShardError)
        with self._lock:
            health.requests += requests
            if transient:
                health.transient_failures += 1
            else:
                health.hard_failures += 1
        self.breakers[replica_id].record_failure()
        return "transient" if transient else "crashed"

    def _book_successes(self, replica_id: int, reads: int, elapsed_ms: float,
                        requests: int = 0) -> None:
        """Book ``reads`` successes on one copy under one lock acquisition:
        counters advance by ``reads`` (``requests`` by a pin's not-yet-
        counted attempts), EWMA and hedge window take the mean latency."""
        health = self._health[replica_id]
        if reads:
            sample_ms = elapsed_ms / reads
            with self._lock:
                health.requests += requests
                if health.successes == 0:
                    health.ewma_ms = sample_ms
                else:
                    health.ewma_ms += _EWMA_ALPHA * (sample_ms - health.ewma_ms)
                health.successes += reads
                self._samples.append(sample_ms)
        self.breakers[replica_id].record_successes(reads)

    # ------------------------------------------------------------------
    # Hedged reads
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The hedge pool, built on the first hedged read: ``min(4, R + 1)``
        threads, enough for every leg a hedge can race."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(4, self.num_replicas + 1),
                    thread_name_prefix=f"repro-hedge-{self.shard_id}",
                )
            return self._pool

    def _call_hedged(self, operation: str, primary_id: int, args: tuple,
                     candidates) -> Any:
        """First attempt with a backup racer: primary now, next-best replica
        after the hedge delay, first response wins, loser cancelled."""
        deadline = current_deadline()
        remaining_s = _remaining_seconds(deadline)
        delay_s = self._hedge.delay_seconds(list(self._samples))
        if remaining_s is not None:
            delay_s = min(delay_s, remaining_s)
        pool = self._ensure_pool()
        primary_future = pool.submit(self._call, operation, primary_id, args)
        try:
            return primary_future.result(timeout=delay_s)
        except FutureTimeoutError:
            pass  # primary is slow: hedge
        except TransientShardError:
            raise _HedgedFailure({primary_id: "transient"}) from None
        except ShardCrashedError:
            raise _HedgedFailure({primary_id: "crashed"}) from None
        backup_id = next(
            (rid for rid in candidates if self.breakers[rid].allow()), None
        )
        if backup_id is None:
            # Nowhere to hedge to: just wait the primary out.
            return self._await_leg(primary_future, primary_id, deadline)
        with self._lock:
            self.hedges_fired += 1
        self._count_hedge("fired")
        backup_future = pool.submit(self._call, operation, backup_id, args)
        futures = {primary_future: primary_id, backup_future: backup_id}
        reasons: Dict[int, str] = {}
        while futures:
            timeout = _remaining_seconds(deadline)
            done, _ = wait(set(futures), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # Deadline expired with both legs in flight: abandon them
                # (their health outcomes land when they finish) and let the
                # engine's deadline machinery classify the loss.
                for future in futures:
                    future.cancel()
                reasons.update(
                    (rid, "transient") for rid in futures.values()
                )
                raise _HedgedFailure(reasons)
            for future in done:
                replica_id = futures.pop(future)
                try:
                    value = future.result()
                except TransientShardError:
                    reasons[replica_id] = "transient"
                except ShardCrashedError:
                    reasons[replica_id] = "crashed"
                else:
                    if replica_id == backup_id:
                        with self._lock:
                            self.hedges_won += 1
                        self._count_hedge("won")
                    else:
                        with self._lock:
                            self.hedges_wasted += 1
                        self._count_hedge("wasted")
                    for loser in futures:
                        loser.cancel()  # best-effort; a running leg drains
                    return value
        raise _HedgedFailure(reasons)

    def _await_leg(self, future, replica_id: int, deadline) -> Any:
        timeout = _remaining_seconds(deadline)
        try:
            return future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()
            raise _HedgedFailure({replica_id: "transient"}) from None
        except TransientShardError:
            raise _HedgedFailure({replica_id: "transient"}) from None
        except ShardCrashedError:
            raise _HedgedFailure({replica_id: "crashed"}) from None

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _metrics(self):
        return self._registry if self._registry is not None else get_registry()

    def _count_failovers(self, count: int) -> None:
        with self._lock:
            self.failovers += count
        self._metrics().counter(
            "repro_replica_failovers_total",
            "Reads that moved past a failed/skipped replica, by shard",
            shard=str(self.shard_id),
        ).inc(count)

    def _count_hedge(self, outcome: str) -> None:
        self._metrics().counter(
            "repro_replica_hedges_total",
            "Hedged backup reads by outcome (fired / won / wasted)",
            outcome=outcome,
        ).inc()

    # ------------------------------------------------------------------
    # Mutations: forward to every copy, assert convergence
    # ------------------------------------------------------------------
    def insert(self, rid: int):
        primary = self._raw(self._replicas[0])
        dewey = primary.insert(rid)
        for replica_id in range(1, self.num_replicas):
            follower = self._raw(self._replicas[replica_id])
            mirrored = follower.insert(rid)
            if mirrored != dewey:
                raise ReplicaDivergenceError(
                    self.shard_id,
                    f"replica {replica_id} assigned rid {rid} Dewey "
                    f"{list(mirrored)} != primary's {list(dewey)}",
                )
        self._check_converged("insert", rid)
        return dewey

    def remove(self, rid: int):
        primary = self._raw(self._replicas[0])
        shared = primary.dewey
        if rid not in shared:
            return None
        dewey = shared.dewey_of(rid)
        if dewey not in primary.all_postings():
            return None  # not this shard's row (shared global Dewey space)
        removed = primary.remove(rid)
        if removed is None:
            return None
        for replica_id in range(1, self.num_replicas):
            # The primary's remove retired the shared Dewey assignment;
            # followers mirror only the posting-list effect.
            self._raw(self._replicas[replica_id]).remove_mirrored(rid, dewey)
        self._check_converged("remove", rid)
        return removed

    def _check_converged(self, operation: str, rid: int) -> None:
        epochs = [
            self._raw(replica).epoch for replica in self._replicas
        ]
        if len(set(epochs)) != 1:
            raise ReplicaDivergenceError(
                self.shard_id,
                f"epochs {epochs} disagree after {operation}(rid={rid})",
            )
        lengths = [len(self._raw(replica)) for replica in self._replicas]
        if len(set(lengths)) != 1:
            raise ReplicaDivergenceError(
                self.shard_id,
                f"posting counts {lengths} disagree after {operation}(rid={rid})",
            )

    # ------------------------------------------------------------------
    # Chaos (per-replica addressing) and lifecycle
    # ------------------------------------------------------------------
    def inject_chaos(self, chaos) -> None:
        """Wrap every copy in a replica-addressed chaos proxy."""
        from ..resilience.chaos import FaultyShard

        self.clear_chaos()
        self._replicas = [
            FaultyShard(replica, self.shard_id, chaos, replica_id=replica_id)
            for replica_id, replica in enumerate(self._replicas)
        ]

    def clear_chaos(self) -> None:
        self._replicas = [self._raw(replica) for replica in self._replicas]

    @property
    def chaos(self):
        """The active :class:`ChaosPolicy`, or ``None`` when uninjected."""
        return getattr(self._replicas[0], "chaos", None)

    def close(self) -> None:
        """Release the hedge pool and close closeable replicas (durable
        primaries sync + release their WAL handles)."""
        self.close_pool()
        for replica in self._replicas:
            closer = getattr(self._raw(replica), "close", None)
            if callable(closer):
                closer()

    def close_pool(self) -> None:
        """Release only the hedge thread pool (engine shutdown path; the
        serving layer closes the replicas themselves via :meth:`close`)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


class PinnedReplica(NamedReads):
    """One :class:`ReplicaSet`'s reader for one query phase: posting reads
    are the chosen copy's own (chaos proxy included, so injected faults
    still land), timed but lock-free; :meth:`release` books them in one
    batch.  A failed read is booked at once, continues down the set's
    failover loop, and moves the pin to the copy that answered."""

    __slots__ = ("_set", "_target", "replica_id", "failure", "_clock",
                 "_reads", "_elapsed")

    def __init__(self, replicas: "ReplicaSet", replica_id: int):
        self._set = replicas
        self._clock = replicas._clock
        self._reads = 0
        self._elapsed = 0.0
        self.failure = ""          # why the pinned copy's last read failed
        self.move_to(replica_id)

    def move_to(self, replica_id: int) -> None:
        self.replica_id = replica_id
        self._target = self._set._replicas[replica_id]

    def _read(self, operation: str, *args):
        started = self._clock()
        try:
            value = getattr(self._target, operation)(*args)
        except (TransientShardError, ShardCrashedError) as error:
            # Booked in the order it happened: this copy's reads so far,
            # then its failure; the set's loop books the survivor's read.
            self.release()
            self.failure = self._set._book_failure(self.replica_id, error, 1)
            return self._set._read(operation, *args, pinned=self)
        self._elapsed += self._clock() - started
        self._reads += 1
        return value

    def release(self) -> None:
        """Book the phase's reads on the pinned copy (none: the breaker's
        admission is handed back unused)."""
        reads, elapsed = self._reads, self._elapsed * 1000.0
        self._reads, self._elapsed = 0, 0.0
        self._set._book_successes(self.replica_id, reads, elapsed, reads)
