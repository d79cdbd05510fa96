"""Per-shard health tracking: counters plus circuit breakers.

One :class:`HealthBoard` lives inside each :class:`~repro.sharding.engine
.ShardedEngine`.  Every shard call reports its outcome here; the board
keeps exact per-shard counters (requests, failures by kind, retries,
open-circuit skips) and one :class:`~repro.resilience.breaker
.CircuitBreaker` per shard, configured from the engine's
:class:`~repro.resilience.policy.ResiliencePolicy`.  The fan-out consults
:meth:`HealthBoard.allow` before dispatching to a shard, which is how a
persistently failing shard stops costing deadline budget.

With replication (:mod:`repro.replication`) each logical shard row is the
*coordinator's* view — what the fan-out observed after replica failover —
while every physical copy keeps its own counters, breaker and latency
estimate inside its :class:`~repro.replication.ReplicaSet`.
:meth:`HealthBoard.snapshot` surfaces both: logical rows carry
``replica_id=None``, per-replica rows carry the ``(shard, replica)``
address, so failover decisions are observable per copy instead of being
flattened into one shard counter.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from .breaker import CircuitBreaker
from .policy import ResiliencePolicy


@dataclass
class ShardHealth:
    """Cumulative outcome counters for one shard."""

    shard_id: int
    requests: int = 0             # calls admitted to the shard
    successes: int = 0
    transient_failures: int = 0   # individual transient faults observed
    hard_failures: int = 0        # crashes / non-retryable errors
    retries: int = 0              # re-attempts spent on this shard
    skipped_open: int = 0         # calls rejected by an open circuit
    deadline_drops: int = 0       # calls abandoned for deadline reasons


class HealthBoard:
    """Counters + breakers for every shard of one engine."""

    def __init__(
        self,
        num_shards: int,
        policy: ResiliencePolicy,
        clock: Callable[[], float] = time.monotonic,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be positive")
        self._policy = policy
        self._shards: List[ShardHealth] = [
            ShardHealth(shard_id=shard) for shard in range(num_shards)
        ]
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker.from_policy(policy, clock) for _ in range(num_shards)
        ]
        self._replica_source: Optional[Callable[[], list]] = None

    def __len__(self) -> int:
        return len(self._shards)

    def __getitem__(self, shard_id: int) -> ShardHealth:
        return self._shards[shard_id]

    # ------------------------------------------------------------------
    # Admission + outcome recording
    # ------------------------------------------------------------------
    def allow(self, shard_id: int) -> bool:
        """May the fan-out call this shard now?  (Breaker-gated.)"""
        return self.breakers[shard_id].allow()

    def record_admitted(self, shard_id: int) -> None:
        self._shards[shard_id].requests += 1

    def record_success(self, shard_id: int) -> None:
        self._shards[shard_id].successes += 1
        self.breakers[shard_id].record_success()

    def record_transient(self, shard_id: int) -> None:
        self._shards[shard_id].transient_failures += 1
        self.breakers[shard_id].record_failure()

    def record_hard(self, shard_id: int) -> None:
        self._shards[shard_id].hard_failures += 1
        self.breakers[shard_id].record_failure()

    def record_retry(self, shard_id: int) -> None:
        self._shards[shard_id].retries += 1

    def record_skip(self, shard_id: int) -> None:
        self._shards[shard_id].skipped_open += 1

    def record_deadline_drop(self, shard_id: int) -> None:
        self._shards[shard_id].deadline_drops += 1

    # ------------------------------------------------------------------
    # Replica visibility
    # ------------------------------------------------------------------
    def bind_replica_source(self, source: Callable[[], list]) -> None:
        """Attach a provider of the current shard objects (the engine binds
        its index's ``shards`` list).  Evaluated lazily at snapshot time, so
        replication attached *after* engine construction — the serving
        layer replicates post-durability — is still observed."""
        self._replica_source = source

    def replica_rows(self) -> List[Dict]:
        """Per-replica health rows from every attached ReplicaSet."""
        if self._replica_source is None:
            return []
        rows: List[Dict] = []
        for shard in self._replica_source():
            health_rows = getattr(shard, "health_rows", None)
            if callable(health_rows):
                rows.extend(health_rows())
        return rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def open_shards(self) -> List[int]:
        """Shards whose breaker is open right now.  A half-open breaker is
        not listed, whether or not its trial slot is taken."""
        return [
            shard for shard, breaker in enumerate(self.breakers)
            if breaker.state == "open"
        ]

    def snapshot(self) -> List[Dict]:
        """Per-shard and per-replica health as plain dicts.

        Logical rows (the coordinator's post-failover view) carry
        ``replica_id=None``; replicated deployments append one row per
        physical copy with its ``(shard_id, replica_id)`` address, its own
        breaker state and its EWMA read latency.
        """
        rows = [
            {
                **asdict(health),
                "replica_id": None,
                "breaker": self.breakers[shard].state,
            }
            for shard, health in enumerate(self._shards)
        ]
        rows.extend(self.replica_rows())
        return rows

    def __repr__(self) -> str:
        states = ",".join(breaker.state for breaker in self.breakers)
        return f"HealthBoard({len(self._shards)} shards, breakers=[{states}])"


#: (gauge, help) per logical shard, exported as ``repro_shard_<gauge>{shard}``
#: from the snapshot-row key of the same name.
_SHARD_GAUGES = (
    ("requests", "Calls admitted to the shard"),
    ("successes", "Successful shard calls"),
    ("transient_failures", "Transient shard faults observed"),
    ("hard_failures", "Crashes / non-retryable shard errors"),
    ("retries", "Re-attempts spent on the shard"),
    ("skipped_open", "Calls rejected by an open circuit"),
    ("deadline_drops", "Calls abandoned for deadline reasons"),
    ("breaker_open", "1 while the shard's circuit breaker is open"),
)
#: Physical-copy rows (replicated deployments): their own metric family,
#: ``repro_replica_<gauge>{shard, replica}`` — the logical per-shard
#: gauges stay exactly as they are without replication.
_REPLICA_GAUGES = (
    ("requests", "Reads attempted on the replica"),
    ("successes", "Successful replica reads"),
    ("transient_failures", "Transient replica faults observed"),
    ("hard_failures", "Crashes / non-retryable replica errors"),
    ("skipped_open", "Reads rejected by the replica's open circuit"),
    ("breaker_open", "1 while the replica's circuit breaker is open"),
    ("ewma_latency_ms", "Smoothed replica read latency"),
)


def _gauge_value(entry: Dict, gauge: str) -> float:
    if gauge == "breaker_open":
        return 1.0 if entry["breaker"] == "open" else 0.0
    if gauge == "ewma_latency_ms":
        return entry.get("ewma_ms", 0.0)
    return entry[gauge]


def register_health_collector(registry, owner):
    """Publish ``owner.health`` as per-shard gauges at export time.

    Weakref'd like the serving cache collector: a collected engine
    unhooks itself from the registry on the next export.  Returns the
    ``(registry, collect)`` pair to unregister with, or ``None`` when the
    registry is disabled.
    """
    if registry is None or not registry.enabled:
        return None
    ref = weakref.ref(owner)

    def collect() -> None:
        target = ref()
        if target is None:
            registry.unregister_collector(collect)
            return
        for entry in target.health.snapshot():
            labels = {"shard": str(entry["shard_id"])}
            family, table = "repro_shard_", _SHARD_GAUGES
            if entry.get("replica_id") is not None:
                labels["replica"] = str(entry["replica_id"])
                family, table = "repro_replica_", _REPLICA_GAUGES
            for gauge, help_text in table:
                registry.gauge(family + gauge, help_text, **labels).set(
                    _gauge_value(entry, gauge)
                )

    registry.register_collector(collect)
    return (registry, collect)
