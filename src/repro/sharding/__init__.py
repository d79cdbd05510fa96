"""Horizontal scaling: shard the index, fan out queries, diverse-merge.

The paper's algorithms (Sections III-IV) operate per index; this package
scales them horizontally while keeping every answer bit-identical to an
unsharded engine:

* :mod:`~repro.sharding.router` — rows are routed on the diversity
  ordering's top attribute, so sibling (level-1) subtrees co-locate.
* :mod:`~repro.sharding.sharded_index` — N inverted-index shards sharing
  one global Dewey assignment, behind the single-index read protocol.
* :mod:`~repro.sharding.merge` — the diverse-merge step: Definitions 1-2
  re-applied to the union of per-shard diverse top-k candidates.
* :mod:`~repro.sharding.executor` — the executor seam: a gather query is
  one picklable ``GatherTask``; ``ShardExecutor.scatter(task, deadline)``
  takes it to every shard serially or — in :mod:`repro.parallel` — on
  worker processes that sidestep the GIL.  ``gather_backend`` is the one
  place that choice is made; in-process shard calls run under one
  ``PolicyRunner`` (deadlines, retries with a single backoff step,
  circuit breakers).
* :mod:`~repro.sharding.engine` — the engine over that seam:
  scatter-gather with survivor-only degraded answers for the gather
  algorithms, coordinator-driven union-cursor scans for the rest,
  cache-compatible with the serving layer.  ``ShardedEngine.assemble`` is
  the one assembler of a deployment (replicas) over a built index.

Correctness is proven empirically by ``tests/test_sharding_differential.py``
(and under injected faults by ``tests/test_resilience_differential.py``)
and argued in ``docs/paper_mapping.md``.
"""

from .engine import GATHER_ALGORITHMS, ShardOutcome, ShardedEngine
from .merge import diverse_merge, merge_first_k, scored_diverse_merge
from .router import HashRouter
from .sharded_index import ShardedIndex, UnionPostingView

__all__ = [
    "GATHER_ALGORITHMS",
    "ShardOutcome",
    "HashRouter",
    "ShardedEngine",
    "ShardedIndex",
    "UnionPostingView",
    "diverse_merge",
    "merge_first_k",
    "scored_diverse_merge",
]
