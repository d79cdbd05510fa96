"""The serving front-end: the one owner of cache, plan and assembly.

:class:`ServingEngine` fronts a :class:`~repro.core.engine.DiversityEngine`
(which itself holds no cache and is left exactly as it was found) and owns
the three decisions a deployment has to make once:

* **who holds the cache** — :meth:`ServingEngine.search` is validate →
  :meth:`ServingCache.search <repro.serving.cache.ServingCache.search>`;
  ``serving.engine.search`` is the same query with the cache bypassed
  (what the CLI's ``--no-cache`` calls);
* **who plans a query** — the memoised plan entry answers the search,
  :meth:`ServingEngine.price` and :meth:`ServingEngine.lookup`, the one
  question the HTTP router asks per request: the cached answer, or the
  admission price to queue the search at;
* **who stacks a deployment** — :meth:`ServingEngine.from_relation` and
  :meth:`ServingEngine.recover` put durable stores under replica sets
  under the sharded engine under the cache, :func:`build_index` is the
  index-and-store half a bare ``build`` shares, and :meth:`close` releases
  everything they opened (:func:`durable_stores` is the one place that
  knows what may wrap a store).

This is the layer a web tier calls: skewed traffic hits the caches,
mutations bump the index epoch and hand the cache their row, and a cached
answer survives every write whose row its plan does not match.
"""

from __future__ import annotations

import threading
import weakref
from typing import List, Optional

from ..core.engine import DiversityEngine, validate_search
from ..core.result import DiverseResult
from ..durability import (
    DurableIndex,
    create_sharded_store,
    create_store,
    read_manifest,
    recover as recover_index,
)
from ..durability.sharded import read_sharded_manifest
from ..observability import MONOTONIC, Clock, get_registry
from ..sharding import ShardedEngine, ShardedIndex
from ..sharding.executor import gather_backend
from .cache import CacheStats, ServingCache


#: (CacheStats field, help): the running totals the collector publishes,
#: each as the gauge ``repro_cache_<field>``, and ``repro query --stats``
#: prints, each as ``cache_<field>``.
CACHE_TOTALS = (
    ("hits", "Result-cache hits"),
    ("misses", "Result-cache misses"),
    ("evictions", "Entries dropped (LRU pressure + epoch invalidation)"),
    ("epoch_invalidations",
     "Entries dropped: a write touched them or went unrecorded"),
    ("plan_hits", "Plan-cache hits"),
    ("plan_misses", "Plan-cache misses"),
    ("plan_revalidations", "Plans re-ordered before running at a newer epoch"),
    ("decision_hits", "auto decisions served from the plan cache"),
    ("decision_misses", "auto decisions computed fresh"),
    ("decision_replans", "auto decisions recomputed after an epoch change"),
)


def register_cache_collector(registry, serving: "ServingEngine"):
    """Publish the serving cache's counters/sizes as gauges at export time.

    The collector holds the engine through a weakref: once the engine is
    garbage-collected the callback unregisters itself, so short-lived
    engines never pin themselves to the process registry.
    """
    if registry is None or not registry.enabled:
        return None
    ref = weakref.ref(serving)

    def collect() -> None:
        engine = ref()
        if engine is None:
            registry.unregister_collector(collect)
            return
        stats = engine.cache.stats_snapshot()
        for field_name, help_text in CACHE_TOTALS:
            registry.gauge(f"repro_cache_{field_name}", help_text).set(
                getattr(stats, field_name))
        for kind, size in engine.cache.sizes().items():
            registry.gauge("repro_cache_entries", "Live cache entries",
                           kind=kind).set(size)

    registry.register_collector(collect)
    return (registry, collect)


def check_shape(shards: int, replicas: int) -> None:
    """Refuse a deployment shape nothing can stand up — the one statement
    of the rule, reached by every constructor and by the CLI's ``build``."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if replicas > 1 and shards <= 1:
        raise ValueError("replication needs a sharded deployment (shards > 1)")


def build_index(
    relation,
    ordering,
    backend: str = "array",
    shards: int = 1,
    replicas: int = 1,
    data_dir=None,
    snapshot_every: int = 0,
    fsync_every: int = 1,
):
    """Build one deployment's index: sharded when ``shards > 1``, and made
    durable under ``data_dir`` (snapshot + one WAL per store) when given.

    The index-and-store half of :meth:`ServingEngine.from_relation`, which
    the CLI's ``build`` calls on its own: a build writes a store, it does
    not stand a deployment up.  ``replicas`` is only *recorded* here (in a
    sharded store's manifest, for recovery to re-grow); a shape no
    deployment can have is refused before anything is built or written.
    """
    check_shape(shards, replicas)
    if shards > 1:
        index = ShardedIndex.build(relation, ordering, shards=shards, backend=backend)
        if data_dir is not None:
            create_sharded_store(
                index, data_dir, snapshot_every=snapshot_every,
                fsync_every=fsync_every, replicas=replicas,
            )
        return index
    index = DiversityEngine.from_relation(relation, ordering, backend=backend).index
    if data_dir is not None:
        index = create_store(
            index, data_dir, snapshot_every=snapshot_every, fsync_every=fsync_every
        )
    return index


def durable_stores(index) -> List[DurableIndex]:
    """The durable stores under ``index`` (empty when it is not durable).

    The one place that knows what may wrap a store: a sharded index holds
    one per shard slot, and a replica set keeps it as its primary.
    """
    stores = []
    for slot in getattr(index, "shards", [index]):
        store = getattr(slot, "replicas", [slot])[0]
        if isinstance(store, DurableIndex):
            stores.append(store)
    return stores


class ServingEngine:
    """Plan + result caches in front of a :class:`DiversityEngine`.

    ``search`` answers through the cache; ``insert``/``delete`` delegate to
    the engine and record the written row with the cache, which validates
    older entries against it lazily.  The engine is only ever
    *called*: ``serving.engine.search`` stays uncached, and other holders
    of the engine see no change.  :meth:`close` (or use as a context
    manager) releases the engine's own resources and any durable stores
    under it.
    """

    def __init__(
        self,
        engine: DiversityEngine,
        cache: Optional[ServingCache] = None,
        registry=None,
    ):
        self._engine = engine
        self._cache = cache if cache is not None else ServingCache()
        self._close_lock = threading.Lock()
        self._closed = False
        self._collector = register_cache_collector(
            registry if registry is not None else get_registry(), self
        )

    @classmethod
    def from_relation(
        cls,
        relation,
        ordering,
        backend: str = "array",
        shards: int = 1,
        workers: int = 0,
        worker_mode: str = "process",
        policy=None,
        data_dir=None,
        snapshot_every: int = 0,
        fsync_every: int = 1,
        clock: Clock = MONOTONIC,
        replicas: int = 1,
        **cache_options,
    ) -> "ServingEngine":
        """Build a serving engine; ``shards > 1`` builds a sharded deployment.

        The sharded engine keeps per-shard mutation epochs (``insert``/
        ``delete`` route to one shard and bump only its counter); the
        caches key on the summed epoch, so the PR 1 invalidation contract
        holds unchanged.  ``workers`` > 1 sizes the scatter-gather
        process pool (``worker_mode`` picks how its workers start);
        ``policy`` (a :class:`~repro.resilience.ResiliencePolicy`) sets the
        deadline/retry/breaker budgets of the sharded fan-out.

        ``data_dir`` makes the deployment crash-safe: the built index is
        snapshotted there and every subsequent mutation is write-ahead-
        logged (one WAL per shard) before it is applied.  A positive
        ``snapshot_every`` re-snapshots (and truncates the log) whenever a
        store's log reaches that many records; ``fsync_every`` batches WAL
        fsyncs (1 = every record).  Use :meth:`recover` to reopen the
        directory after a crash or restart.

        ``replicas`` > 1 (sharded deployments only) grows every shard to
        that many bit-identical copies behind automatic failover —
        *after* durability wrapping, so only replica 0 of each shard owns
        the WAL and the other copies bootstrap from its snapshot + log
        (:mod:`repro.replication`).
        """
        # Before the build and before ``data_dir`` exists, not after.
        gather_backend(worker_mode, workers, shards, replicas)
        index = build_index(
            relation, ordering, backend=backend, shards=shards,
            replicas=replicas, data_dir=data_dir,
            snapshot_every=snapshot_every, fsync_every=fsync_every,
        )
        if shards > 1:
            engine = ShardedEngine.assemble(
                index, workers=workers, worker_mode=worker_mode,
                policy=policy, clock=clock, replicas=replicas,
            )
        else:
            engine = DiversityEngine(index)
        return cls(engine, ServingCache(**cache_options) if cache_options else None)

    @classmethod
    def recover(
        cls,
        data_dir,
        workers: int = 0,
        worker_mode: str = "process",
        policy=None,
        snapshot_every: Optional[int] = None,
        fsync_every: Optional[int] = None,
        cache: Optional[ServingCache] = None,
        replicas: Optional[int] = None,
        **cache_options,
    ) -> "ServingEngine":
        """Resurrect a serving engine from a durable data directory.

        Dispatches on the directory's manifest (single-index or sharded),
        replays each WAL over its snapshot, and reopens the logs for
        writing.  The recovered index lands on the exact epoch the crashed
        process had acknowledged, so passing the previous process's
        ``cache`` (e.g. an external cache tier) keeps its entries stamped
        at that epoch valid; the rows it recorded for the old engine vouch
        for nothing here, so any older entry is dropped.

        ``replicas=None`` re-replicates a sharded deployment to the factor
        recorded in its manifest (replica copies are never persisted —
        each is re-bootstrapped from its shard's snapshot + WAL); pass an
        explicit count to grow or shrink the factor across the restart.
        A deployment the stack refuses is refused before any log reopens.
        """
        if read_manifest(data_dir).get("kind") == "sharded":
            manifest, shards = read_sharded_manifest(data_dir)
            if replicas is None:
                replicas = int(manifest.get("replicas", 1))
            gather_backend(worker_mode, workers, shards, replicas)
        recovered = recover_index(data_dir, snapshot_every=snapshot_every,
                                  fsync_every=fsync_every)
        if isinstance(recovered, DurableIndex):
            engine = DiversityEngine(recovered)
        else:
            engine = ShardedEngine.assemble(
                recovered, workers=workers, worker_mode=worker_mode,
                policy=policy, replicas=replicas,
            )
        if cache is None and cache_options:
            cache = ServingCache(**cache_options)
        return cls(engine, cache)

    @property
    def engine(self) -> DiversityEngine:
        return self._engine

    @property
    def cache(self) -> ServingCache:
        return self._cache

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    # ------------------------------------------------------------------
    # Single-call surface (cache-mediated reads, delegated writes)
    # ------------------------------------------------------------------
    def search(self, query, k: int, algorithm: str = "probe",
               scored: bool = False) -> DiverseResult:
        """``engine.search`` through the plan and result caches."""
        validate_search(k, algorithm)
        return self._cache.search(self._engine, query, k, algorithm, scored)

    def price(self, query, k: int, algorithm: str = "probe",
              scored: bool = False) -> float:
        """Seek-unit admission price of the same ``search`` call, from the
        memoised plan (:meth:`ServingCache.price
        <repro.serving.cache.ServingCache.price>`)."""
        return self._cache.price(self._engine, query, k, algorithm, scored)

    def lookup(self, query, k: int, algorithm: str = "probe",
               scored: bool = False):
        """``(hit, price)``: the cached answer of the same ``search`` call
        if there is one at this epoch, else ``None`` and its :meth:`price`
        (:meth:`ServingCache.lookup
        <repro.serving.cache.ServingCache.lookup>`); executes nothing."""
        return self._cache.lookup(self._engine, query, k, algorithm, scored)

    def search_page(self, query, k: int = 10, page: int = 1,
                    page_size: Optional[int] = None,
                    algorithm: str = "probe") -> DiverseResult:
        """Diverse result page ``page`` (1-based), cache-mediated.

        Pages follow :class:`~repro.core.pagination.DiversePaginator`
        semantics: page 1 is the diverse top-``page_size`` answer, page 2
        is the diverse top-``page_size`` over everything not yet shown,
        and so on — pages never overlap.  ``page_size`` defaults to ``k``.
        Each page is cached independently under the plan's canonical key,
        so a cache hit returns bit-identical pages until the index epoch
        moves; degraded pages are never cached (the PR 3 invariant).
        Unscored only, ``algorithm`` in ``("probe", "onepass")`` — the
        drivers that run over an exclusion view of the merged list.
        """
        if page < 1:
            raise ValueError("page must be >= 1")
        size = page_size if page_size is not None else k
        if size < 1:
            raise ValueError("page_size must be >= 1")
        return self._cache.search_page(self._engine, query, page, size,
                                       algorithm)

    def insert(self, row) -> int:
        before = self._engine.epoch
        rid = self._engine.insert(row)
        self._wrote(before, rid)
        return rid

    def delete(self, rid: int) -> bool:
        before = self._engine.epoch
        deleted = self._engine.delete(rid)
        if deleted:
            self._wrote(before, rid)
        return deleted

    def _wrote(self, before: int, rid: int) -> None:
        """Hand the cache the written row if the epoch moved by exactly
        this write's one step (never a concurrent write's)."""
        engine = self._engine
        if engine.epoch == before + 1:
            self._cache.record_write(engine, before + 1, engine.relation[rid])

    def clear_cache(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the wrapped engine and the durable stores under it.

        Idempotent and safe to call concurrently — e.g. from a signal
        handler while another thread is mid-``close`` or mid-``search``
        (the server's drain path).  The first caller does
        the teardown; everyone else returns immediately.  Durable stores
        attached to the index (single or per-shard) are closed too,
        syncing and releasing their WAL file handles.

        Concurrent callers serialise on the close lock: the winner tears
        down, later callers block until teardown finishes and then
        return — so "close returned" always means "fully closed"."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            collector, self._collector = self._collector, None
            if collector is not None:
                registry, collect = collector
                # Final flush: materialise the terminal cache stats as
                # gauges, so a post-close export still sees this engine's
                # lifetime totals even if nothing exported while it was
                # open.
                collect()
                registry.unregister_collector(collect)
            self._engine.close()
            for store in durable_stores(self._engine.index):
                store.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
