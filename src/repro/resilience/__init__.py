"""repro.resilience — failure handling for the sharded serving path.

The sharding layer (PR 2) made a partitioned deployment answer-identical
to one big index; this package makes it survive the partitions failing.
Three pieces, layered:

* :mod:`~repro.resilience.errors` — the structured error taxonomy every
  fan-out failure is expressed in (transient vs crashed vs unavailable vs
  deadline), replacing bare exceptions.
* :mod:`~repro.resilience.policy` — per-query budgets
  (:class:`ResiliencePolicy`: deadline, bounded retries with exponential
  backoff + jitter) and the :class:`Deadline` countdown.
* :mod:`~repro.resilience.breaker` / :mod:`~repro.resilience.health` —
  per-shard circuit breakers (closed/open/half-open) and health counters.

Degradation contract (argued in docs/paper_mapping.md): for the
scatter-gather algorithms a lost shard is dropped and the diverse-merge
over the *survivors* is still a valid Definitions 1-2 diverse top-k over
the reachable rows (``DiverseResult.stats["degraded"]`` says so); the
coordinator-driven scan algorithms need every shard and fail fast with
:class:`ShardUnavailableError`.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .errors import (
    DeadlineExceededError,
    ReplicaDivergenceError,
    ResilienceError,
    ShardCrashedError,
    ShardUnavailableError,
    TransientShardError,
)
from .health import HealthBoard, ShardHealth
from .policy import DEFAULT_POLICY, Deadline, ResiliencePolicy

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "DEFAULT_POLICY",
    "Deadline",
    "DeadlineExceededError",
    "HealthBoard",
    "ReplicaDivergenceError",
    "ResilienceError",
    "ResiliencePolicy",
    "ShardCrashedError",
    "ShardHealth",
    "ShardUnavailableError",
    "TransientShardError",
]
