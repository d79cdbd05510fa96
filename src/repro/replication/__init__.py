"""repro.replication — shard replicas and automatic failover.

The sharding layer (PR 2) made a partitioned deployment answer-identical
to one big index; the resilience layer (PR 3) made it degrade predictably
when shards die.  This package removes the degradation for any *minority*
replica loss: each logical shard becomes a :class:`ReplicaSet` of R
bit-identical copies (same rid subset, same shared global Dewey
assignment, verified by payload sha256 at bootstrap), and reads fail over
between copies transparently.  A query returns a degraded or failed
answer only when **every** replica of some shard is down — otherwise the
answer is exactly the fault-free one, for all five algorithms, because
every copy serves identical postings (docs/paper_mapping.md argues why
this preserves the paper's Definitions 1-2 exactly).

Pieces:

* :class:`ReplicaSet` — the shard-slot wrapper: per-replica circuit
  breakers and EWMA-latency health, preference ordering, sequential
  failover, convergent mutation forwarding.
* :mod:`~repro.replication.bootstrap` — growing verified copies from a
  live shard (re-index) or a durable one (snapshot + WAL replay, the PR 4
  recovery discipline applied to a live primary).
"""

from .bootstrap import (
    ReplicaBootstrapError,
    bootstrap_replicas,
    clone_from_index,
    clone_from_store,
    live_rids,
    replica_digest,
)
from .replica_set import ReplicaHealth, ReplicaSet

__all__ = [
    "ReplicaBootstrapError",
    "ReplicaHealth",
    "ReplicaSet",
    "bootstrap_replicas",
    "clone_from_index",
    "clone_from_store",
    "live_rids",
    "replica_digest",
]
