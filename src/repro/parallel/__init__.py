"""Process-based shard execution for the scatter-gather fan-out.

CPython threads cannot run the pure-python per-shard diverse top-k
concurrently (the GIL serialises them), so this package supplies the one
:class:`~repro.sharding.executor.ShardExecutor` besides the serial loop —
the same ``GatherTask``, computed in real OS processes:

* :class:`~repro.parallel.executor.ProcessExecutor` — the executor: ships
  the task to the pool, classifies each shard's reply into a
  ``ShardOutcome``, rebuilds the pool on epoch drift or worker loss.
  (Picked by ``repro.sharding.executor.make_executor``; imported lazily
  there, not re-exported here, because the sharding layer imports this
  package.)
* :class:`~repro.parallel.pool.ProcessShardPool` — the transport.  One
  dedicated worker process per pool slot, each owning a fixed subset of
  shards, spoken to over a :mod:`multiprocessing` pipe.
* :mod:`~repro.parallel.worker` — the worker side: a blocking task loop
  answering with :func:`~repro.parallel.worker.compute_candidates` against
  a read-only shard replica.  ``fork`` workers inherit the built
  in-memory shard indexes from the parent (POSIX, zero-copy until the
  first write); ``spawn`` workers rebuild them from the durability
  layer's per-shard snapshot directories
  (:func:`~repro.parallel.bootstrap.load_shard_replica`).
* **Epoch fencing** — every request carries the per-shard mutation epoch
  the coordinator expects; a worker whose replica sits at any other epoch
  answers ``stale`` instead of computing, and the coordinator rebuilds
  the pool rather than merging a stale candidate list.

Deployments the workers cannot faithfully mirror are rejected with
:class:`UnsupportedWorkerModeError` (never silently bypassed): replica-set
failover is coordinator-side state that does not exist inside a worker
process.  The eager refusal is
:func:`~repro.sharding.executor.gather_backend`, asked before a
deployment is built; :func:`~repro.parallel.pool._data_shard` is the lazy
one, for wrappers added after the engine was built.
"""

from .bootstrap import load_shard_replica
from .pool import (
    CRASHED,
    DEADLINE,
    ERROR,
    OK,
    PROCESS_MODES,
    STALE,
    ProcessShardPool,
    UnsupportedWorkerModeError,
    WORKER_MODES,
    resolve_worker_mode,
)
from .worker import compute_candidates

__all__ = [
    "CRASHED",
    "DEADLINE",
    "ERROR",
    "OK",
    "PROCESS_MODES",
    "STALE",
    "ProcessShardPool",
    "UnsupportedWorkerModeError",
    "WORKER_MODES",
    "compute_candidates",
    "load_shard_replica",
    "resolve_worker_mode",
]
