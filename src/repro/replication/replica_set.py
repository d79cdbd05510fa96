"""R bit-identical copies of one logical shard behind one read protocol.

A :class:`ReplicaSet` stands where a single shard index used to stand in
``ShardedIndex.shards`` (the same in-place slot swap durability makes),
so both engine strategies — scatter-gather and the
coordinator-driven union-cursor scan — read through it without knowing
replication exists.  Guarantees:

* **Bit-identical reads from any copy.**  Every replica serves the same
  rid subset over the *same shared global Dewey assignment* at the same
  epoch (verified by payload sha256 at bootstrap,
  :mod:`repro.replication.bootstrap`), so failing over mid-query cannot
  change an answer — the paper's Definitions 1-2 are preserved exactly
  through any partial replica loss.
* **Transparent failover.**  Reads prefer the healthiest copy (closed
  breaker first, then replica id, so a fault-free set always reads its
  primary) and on :class:`TransientShardError` / :class:`ShardCrashedError`
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
* **Sequential reads.**  Every copy costs the same CPU for the same
  read, so a set never races a second copy: a read goes to the preferred
  copy and moves on only when that copy fails.
* **Converged mutations.**  ``insert``/``remove`` forward to every copy
  (primary first — a durable primary WALs the record before any copy
  changes) and then assert epoch + Dewey agreement, raising
  :class:`~repro.resilience.errors.ReplicaDivergenceError` on any
  disagreement rather than serving from a silently forked copy.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from ..index.reader import NamedReads, sum_memory_stats
from ..observability import MONOTONIC, Clock, get_registry
from ..resilience.breaker import CircuitBreaker, OPEN
from ..resilience.errors import (
    ReplicaDivergenceError,
    ShardCrashedError,
    TransientShardError,
)
from ..resilience.policy import DEFAULT_POLICY, ResiliencePolicy
from .bootstrap import bootstrap_replicas

#: EWMA smoothing for per-replica read latency (weight of the new sample).
_EWMA_ALPHA = 0.2


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


class ReplicaSet(NamedReads):
    """R replicas of one logical shard, speaking the shard read protocol."""

    def __init__(
        self,
        replicas: List,
        shard_id: int,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        registry=None,
    ):
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        self._replicas = list(replicas)
        self.shard_id = shard_id
        self._policy = policy if policy is not None else DEFAULT_POLICY
        self._clock = clock
        self._registry = registry
        self._lock = threading.Lock()
        self._health = [
            ReplicaHealth(shard_id=shard_id, replica_id=replica_id)
            for replica_id in range(len(self._replicas))
        ]
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker.from_policy(self._policy, clock) for _ in self._replicas
        ]
        self.failovers = 0

    @classmethod
    def grow(
        cls,
        primary,
        count: int,
        shard_id: int,
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        registry=None,
    ) -> "ReplicaSet":
        """Bootstrap ``count - 1`` verified copies of ``primary`` and wrap
        all ``count`` behind one set (see :mod:`repro.replication.bootstrap`)."""
        copies = bootstrap_replicas(primary, count)
        return cls([primary, *copies], shard_id, policy=policy, clock=clock,
                   registry=registry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> List:
        """The live list of physical copies, replica order (0 is the
        primary): a copy swapped in place here serves every later read."""
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
            f"breakers=[{states}], failovers={self.failovers})"
        )

    @property
    def _target(self):
        # Control plane: no failover — identical on every copy by
        # invariant, so the primary answers.
        return self._replicas[0]

    def memory_stats(self) -> dict:
        """Deployment-truthful accounting: every copy is resident memory."""
        stats = sum_memory_stats(self.backend, self._replicas)
        stats["replicas"] = self.num_replicas
        return stats

    # ------------------------------------------------------------------
    # Data-path reads: failover
    # ------------------------------------------------------------------
    def pin(self):
        """This set's reader for one query phase: a :class:`PinnedReplica`
        on the preferred copy, admitted by its breaker once — or the set
        itself (the per-read path) when that breaker refuses."""
        replica_id = self._selection_order()[0]
        if self.breakers[replica_id].allow():
            return PinnedReplica(self, replica_id)
        return self

    def _selection_order(self) -> List[int]:
        """Preference order: closed breakers before open ones, then replica
        id — so a fault-free set reads its primary every time.  Latency
        does not rank copies: every copy costs the same CPU per read, and
        ``ewma_ms`` is only the reported gauge."""
        breakers = self.breakers
        return sorted(range(len(breakers)),
                      key=lambda rid: breakers[rid].state == OPEN)

    def _read(self, operation: str, *args, pinned=None):
        """One read, moving down the preference order past failed copies.
        ``pinned``: a pin whose copy just failed this read (booked already)
        — that copy is skipped and the pin moves to the one that answers."""
        candidates = deque(self._selection_order())
        reasons: Dict[int, str] = {}
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
            try:
                value = self._call(operation, replica_id, args)
                if pinned is not None:
                    pinned.move_to(replica_id)
                return value
            except TransientShardError:
                reasons[replica_id] = "transient"
            except ShardCrashedError:
                reasons[replica_id] = "crashed"
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
        counted attempts), the EWMA gauge takes the mean latency."""
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
        self.breakers[replica_id].record_successes(reads)

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

    # ------------------------------------------------------------------
    # Mutations: forward to every copy, assert convergence
    # ------------------------------------------------------------------
    def insert(self, rid: int):
        dewey = self._replicas[0].insert(rid)
        for replica_id in range(1, self.num_replicas):
            mirrored = self._replicas[replica_id].insert(rid)
            if mirrored != dewey:
                raise ReplicaDivergenceError(
                    self.shard_id,
                    f"replica {replica_id} assigned rid {rid} Dewey "
                    f"{list(mirrored)} != primary's {list(dewey)}",
                )
        self._check_converged("insert", rid)
        return dewey

    def remove(self, rid: int):
        dewey = self._replicas[0].remove(rid)
        if dewey is None:
            return None  # absent, or another shard's row
        for replica_id in range(1, self.num_replicas):
            # The primary's remove retired the shared Dewey assignment;
            # followers mirror only the posting-list effect.
            self._replicas[replica_id].remove_mirrored(rid, dewey)
        self._check_converged("remove", rid)
        return dewey

    def _check_converged(self, operation: str, rid: int) -> None:
        epochs = [replica.epoch for replica in self._replicas]
        if len(set(epochs)) != 1:
            raise ReplicaDivergenceError(
                self.shard_id,
                f"epochs {epochs} disagree after {operation}(rid={rid})",
            )
        lengths = [len(replica) for replica in self._replicas]
        if len(set(lengths)) != 1:
            raise ReplicaDivergenceError(
                self.shard_id,
                f"posting counts {lengths} disagree after {operation}(rid={rid})",
            )


class PinnedReplica(NamedReads):
    """One :class:`ReplicaSet`'s reader for one query phase: posting reads
    are the chosen copy's own (whatever stands in its slot), timed but
    lock-free; :meth:`release` books them in one
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
