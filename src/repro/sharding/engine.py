"""The sharded serving engine: fan-out, per-shard top-k, diverse-merge.

:class:`ShardedEngine` is a :class:`~repro.core.engine.DiversityEngine`
over a :class:`~repro.sharding.sharded_index.ShardedIndex`.  Three
execution strategies, picked per query and algorithm so every answer stays
bit-identical to an unsharded engine:

* **Scatter-gather** (``naive``, and unscored ``basic``): the query fans
  out to all shards — shard after shard, or on worker processes
  (``workers`` > 1) — each shard computes its *local* diverse top-k (the
  canonical Definitions 1-2 selection over its rows), and the coordinator
  re-applies Definitions 1-2 to the union (:mod:`repro.sharding.merge`).
  Subtree co-location + the shared Dewey space make each shard's answer a
  superset of its contribution to the global answer, so the merge is exact.
* **Coordinator-driven scan** (``onepass``, ``probe``, scored ``basic``,
  ``multq``): these outputs depend on the probing order over the merged
  list, not just on the match set (a maximally diverse subset is not
  unique; one-pass keeps the representative it meets first), so gathering
  per-shard answers would return *a* diverse set, not *the* unsharded
  one.  Instead the unmodified algorithm runs on the coordinator against
  the sharded index's union cursors: every ``next`` fans out to all shards
  and takes the min/max — probe responses, answers and probe counts are
  those of the unsharded run.
* **Routed** (either of the above but ``multq``, when the plan is a leaf
  or a top-level AND with an equality on the routing attribute): rows
  route on that attribute, so every match lives in
  ``router.shard_of(value)`` (subtree co-location) and the unmodified
  driver runs on that one shard's reader — same matches, so the same
  ``next`` responses, answers and probe counts; no union view, no fan-out.

**Failure story** (:mod:`repro.resilience`): every shard call runs under
the engine's :class:`~repro.resilience.policy.ResiliencePolicy` — deadline
budget, bounded retries with jittered backoff for transient faults, and a
per-shard circuit breaker.  The strategies degrade differently:

* Scatter-gather *drops* a shard that is crashed, open-circuit, out of
  retries, or past deadline, and diverse-merges the survivors — still a
  valid Definitions 1-2 diverse top-k over the reachable rows
  (docs/paper_mapping.md), flagged ``degraded`` in ``result.stats``.  Only
  a total loss raises.
* The scan needs every shard (union cursors have no survivors-only mode
  that preserves bit-identity), so it retries the failed read on transient
  faults and otherwise **fails fast** with a structured
  :class:`~repro.resilience.errors.ShardUnavailableError` naming the lost
  shards.
* A routed query is hostage to its home shard only: it consults and
  credits that shard's breaker alone, exact and undegraded while any other
  shard is down.  With the home shard lost a routed scan fails fast naming
  it and a routed gather returns what the fan-out would: the degraded,
  empty, never-cached answer.

Posting reads run in *phases* (plan statistics, one scan, one gather
task), each over :meth:`ShardedIndex.pinned`: a replicated deployment
chooses every shard's serving copy once per phase, not once per read.
Mutations route to exactly one shard and bump only its epoch; the serving
caches key on the summed epoch (degraded answers are never cached).
"""

from __future__ import annotations

import random
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Sequence, Union

from ..core.engine import AUTO, DiversityEngine, run_algorithm
from ..core.ordering import DiversityOrdering
from ..core.result import DiverseResult
from ..index.postings import ARRAY_BACKEND
from ..index.reader import EMPTY_READER, NamedReads
from ..observability import MONOTONIC, Clock, get_registry, span
from ..query.estimate import order_for_leapfrog
from ..query.parser import parse_query
from ..query.predicates import ScalarPredicate
from ..query.query import AND, Query
from ..resilience import (
    Deadline,
    HealthBoard,
    ResiliencePolicy,
    ShardUnavailableError,
)
from ..resilience.health import register_health_collector
from ..resilience.policy import DEFAULT_POLICY
from ..storage.relation import Relation
from .executor import (
    GatherTask,
    PolicyRunner,
    ShardExecutor,
    ShardOutcome,
    gather_backend,
    make_executor,
)
from .merge import diverse_merge, merge_first_k, scored_diverse_merge
from .sharded_index import ShardedIndex

#: Algorithms served by scatter-gather + diverse-merge (their unsharded
#: output is the canonical Definitions 1-2 selection, which the merge
#: reconstructs exactly); the rest run coordinator-driven.
GATHER_ALGORITHMS = ("naive", "basic")


class RetryingReader(NamedReads):
    """A reader (the sharded index's pinned view, or one shard's) with
    per-read transient retries.

    The coordinator-driven scan makes many small index reads (multq can
    make hundreds); retrying the *whole run* on one flaky read would need
    a fault-free pass through all of them — exponentially unlikely.  Each
    read is idempotent, so retrying just the failed read is cheap and
    exactly answer-preserving.  All reads share one deadline budget; the
    control plane (relation, dewey, depth, epoch, ...) passes through.
    """

    __slots__ = ("_target", "_retrying", "_deadline", "retries")

    def __init__(self, reader, retrying, deadline: Deadline):
        self._target = reader
        self._retrying = retrying   # PolicyRunner.retrying
        self._deadline = deadline
        self.retries = 0

    def _read(self, operation: str, *args):
        value, attempts = self._retrying(
            partial(getattr(self._target, operation), *args), self._deadline
        )
        self.retries += attempts
        return value


class ShardedEngine(DiversityEngine):
    """Diverse top-k over a sharded index, answer-identical to unsharded.

    ``workers`` > 1 fans scatter-gather queries out on a persistent pool of
    that many worker processes (``worker_mode``: ``process``, ``fork`` or
    ``spawn``); 0 or 1 runs them shard after shard
    (:mod:`repro.sharding.executor`).  :meth:`close` (or use as a context
    manager) releases the pool.  ``policy`` sets the failure-handling
    budgets (:class:`ResiliencePolicy`); per-shard breakers and health
    counters live in :attr:`health`.  Everything else — prepare/execute
    split, explain — is inherited: the sharded index
    implements the single-index read protocol.
    """

    def __init__(
        self,
        index: ShardedIndex,
        workers: int = 0,
        worker_mode: str = "process",
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        sleep=time.sleep,
        registry=None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        backend = gather_backend(worker_mode, workers, index.num_shards,
                                 index.replication_factor)
        super().__init__(index, registry=registry)
        self._workers = workers
        self._policy = policy if policy is not None else DEFAULT_POLICY
        # One clock drives deadlines, breakers and backoff alike (and one
        # injectable sleep serves the backoff waits), so a FakeClock fakes
        # the whole failure path end-to-end — no mixed perf_counter/
        # monotonic timelines to drift apart.
        self._clock = clock
        self._health = HealthBoard(index.num_shards, self._policy, clock=clock)
        # Lazy binding: replica rows appear in health snapshots as soon as
        # the index is replicated, even when that happens after engine
        # construction.
        self._health.bind_replica_source(lambda: self._index.shards)
        self._runner = PolicyRunner(
            self._policy, self._health, random.Random(self._policy.seed),
            sleep, self._metrics,
        )
        self._close_lock = threading.Lock()
        self._executor = make_executor(backend, workers, index, self._runner)
        self._collector = register_health_collector(self._metrics(), self)

    @classmethod
    def assemble(
        cls,
        index: ShardedIndex,
        workers: int = 0,
        worker_mode: str = "process",
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        sleep=time.sleep,
        replicas: int = 1,
    ) -> "ShardedEngine":
        """Stack the deployment layers over a built (or recovered) index.

        The layers only compose in one order — durable stores under
        replica sets, the engine's guards seeing the finished stack — so
        every entry point funnels through here: refuse what cannot work,
        :meth:`ShardedIndex.replicate` (``index`` is already
        durable-wrapped, or never will be), then construct.
        """
        gather_backend(worker_mode, workers, index.num_shards,
                       max(replicas, index.replication_factor))
        if replicas > 1:
            index.replicate(replicas, policy=policy, clock=clock)
        return cls(index, workers=workers, worker_mode=worker_mode,
                   policy=policy, clock=clock, sleep=sleep)

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        ordering: Union[DiversityOrdering, Sequence[str]],
        shards: int = 2,
        backend: str = ARRAY_BACKEND,
        workers: int = 0,
        worker_mode: str = "process",
        policy: Optional[ResiliencePolicy] = None,
        clock: Clock = MONOTONIC,
        sleep=time.sleep,
        replicas: int = 1,
    ) -> "ShardedEngine":
        """Build the sharded index (offline step) and wrap it in an engine.

        ``replicas`` > 1 grows every shard to that many bit-identical
        copies behind automatic failover (see :mod:`repro.replication`).
        ``workers`` > 1 runs the gather
        algorithms on that many worker processes, started per
        ``worker_mode`` (``"process"`` picks the platform's best of
        ``"fork"``/``"spawn"``; :mod:`repro.parallel`) — incompatible with
        ``replicas`` > 1, which is rejected loudly.
        """
        # Before the build, not after.
        gather_backend(worker_mode, workers, shards, replicas)
        index = ShardedIndex.build(relation, ordering, shards=shards, backend=backend)
        return cls.assemble(index, workers=workers, worker_mode=worker_mode,
                            policy=policy, clock=clock, sleep=sleep,
                            replicas=replicas)

    # ------------------------------------------------------------------
    # Lifecycle (persistent fan-out pool)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the fan-out pool.

        Idempotent and concurrency-safe (callable from a signal handler
        while a search is in flight): callers serialise on the close
        lock.  The engine stays usable — a later gather query lazily
        builds a new pool, which the next close releases in turn."""
        with self._close_lock:
            collector, self._collector = self._collector, None
            if collector is not None:
                registry, collect = collector
                registry.unregister_collector(collect)
            self._executor.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sharded_index(self) -> ShardedIndex:
        return self._index

    @property
    def num_shards(self) -> int:
        return self._index.num_shards

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def resolved_worker_mode(self) -> str:
        """The backend gathers run on: ``serial``, ``fork`` or ``spawn``."""
        return self._executor.mode

    @property
    def policy(self) -> ResiliencePolicy:
        return self._policy

    @property
    def health(self) -> HealthBoard:
        """Per-shard health counters + circuit breakers."""
        return self._health

    def shard_epochs(self) -> List[int]:
        return self._index.shard_epochs()

    # ------------------------------------------------------------------
    # Coordinator-side retries (plan statistics + scan algorithms)
    # ------------------------------------------------------------------
    def _deadline(self) -> Deadline:
        return Deadline(self._policy.deadline_ms, clock=self._clock)

    def _metrics(self):
        return self._registry if self._registry is not None else get_registry()

    def _run_with_retries(self, operation, deadline: Deadline,
                          phase: str = "scan"):
        """``(operation(), retries_spent)`` under the policy's retry and
        deadline budgets (:meth:`PolicyRunner.retrying`)."""
        return self._runner.retrying(operation, deadline, phase)

    def _read_stats(self, read, phase: str):
        """``read(view)``, one statistics phase over the sharded index's
        pinned view, retry-wrapped — or ``None`` when the statistics are
        unreachable and the caller must plan without them.

        A shard whose breaker is already open is presumed down: the read
        is skipped at once, touching no shard.  Re-proving the failure
        every query would charge the broken shard a second hard failure
        per query (the execute phase records one) and burn every caller's
        retry budget while the breaker is trying to cool down."""
        if self._health.open_shards():
            reason = "circuit open"
        else:
            view = self._index.pinned()
            try:
                return self._run_with_retries(
                    partial(read, view), self._deadline(), phase
                )[0]
            except ShardUnavailableError:
                reason = "shard unavailable"
            finally:
                self._index.release(view)
        self._metrics().counter(
            "repro_plan_degraded_total",
            "Plans that skipped statistics-driven reordering",
            reason=reason,
        ).inc()
        return None

    def order(self, plan: Query) -> Query:
        """The ordering, retry-wrapped: it reads posting statistics
        through the sharded index, so a flaky shard can fault here too.
        When the statistics are unreachable (:meth:`_read_stats`) the
        *plan* degrades instead of the query: the reordering is skipped —
        answers do not depend on predicate order, so execution still
        proceeds on its own terms."""
        ordered = self._read_stats(partial(order_for_leapfrog, plan), "prepare")
        return plan if ordered is None else ordered

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def plan(
        self,
        query: Union[Query, str],
        k: int,
        scored: bool = False,
        candidates=None,
    ):
        """Plan step of ``algorithm="auto"``, retry-wrapped like
        :meth:`order`: the cost model reads posting statistics through the
        sharded index's union views, so a flaky shard can fault here too.
        Transient faults retry; when a shard stays unreachable (or its
        breaker is already open) the *decision* degrades to ``naive`` — the
        scatter-gather algorithm that can still answer from surviving
        shards — instead of failing the query before it even ran.

        Union posting views report global list lengths, so a healthy
        sharded deployment plans identically to an unsharded engine over
        the same rows (the differential tests assert this across shard
        counts)."""
        from ..planner import PlanDecision, choose, extract_features

        if isinstance(query, str):
            query = parse_query(query)
        decision = self._read_stats(
            lambda view: choose(view, query, k, scored, candidates=candidates),
            "plan",
        )
        if decision is not None:
            return decision
        # Stats are unreachable: a zeroed feature vector prices nothing,
        # so fall back to the degradable gather algorithm outright.
        return PlanDecision(
            algorithm="naive",
            k=k,
            scored=scored,
            epoch=self.epoch,
            costs={"naive": 0.0},
            features=extract_features(EMPTY_READER, query, k, scored),
            reason="stats unavailable",
        )

    def execute(
        self,
        query: Query,
        k: int,
        algorithm: str = "probe",
        scored: bool = False,
        decision=None,
    ) -> DiverseResult:
        """Sharded execution of an already-prepared plan.

        Scatter-gather (degradable) for the canonical algorithms,
        coordinator-driven union-cursor scan (all-shards-or-fail) for the
        scan-order-dependent ones, either on the :meth:`_home_shard` alone
        when there is one; ``auto`` plans first (see :meth:`plan`) and
        dispatches the selected algorithm through the same split.
        """
        if algorithm == AUTO:
            return self._execute_auto(query, k, scored, decision)
        home = None if algorithm == "multq" else self._home_shard(query)
        if algorithm == "naive" or (algorithm == "basic" and not scored):
            return self._execute_gather(query, k, algorithm, scored, home)
        return self._execute_scan(query, k, algorithm, scored, home)

    def _home_shard(self, query: Query) -> Optional[int]:
        """The one shard holding every match of ``query``, or ``None``:
        rows route on the ordering's top attribute, so a leaf or top-level
        conjunct ``top = v`` confines the matches to ``shard_of(v)``.  Only
        direct children of the top AND are inspected (scored plans are not
        normalised) — a missed nesting is a missed saving, never a wrong
        shard; two contradicting values match nothing on any shard."""
        index = self._index
        top = index.ordering.attributes[0]
        for conjunct in query.children if query.kind == AND else (query,):
            predicate = conjunct.predicate  # None on an AND/OR node
            if isinstance(predicate, ScalarPredicate) and predicate.attribute == top:
                return index.router.shard_of(predicate.value)
        return None

    def _execute_scan(
        self, query: Query, k: int, algorithm: str, scored: bool,
        home: Optional[int] = None,
    ) -> DiverseResult:
        """Coordinator-driven scan, over the union view or the ``home``
        shard's reader: needs every shard it reads, so fail fast.

        An open circuit means a shard is presumed down — refuse before
        burning the deadline.  Transient faults retry the *failed read*
        (idempotent, so the answer stays bit-identical to the unsharded
        scan — see :class:`RetryingReader`); crashes surface immediately
        as :class:`ShardUnavailableError` naming the dead shard.
        """
        read_shards = range(self.num_shards) if home is None else (home,)
        open_shards = [shard for shard in self._health.open_shards()
                       if shard in read_shards]
        if open_shards:
            raise ShardUnavailableError(
                {shard: "circuit open" for shard in open_shards}, self.num_shards
            )
        with span("shard.scan", registry=self._registry, algorithm=algorithm,
                  k=k, shards=len(read_shards)):
            view = self._index.pinned(home)
            try:
                reader = RetryingReader(view, self._runner.retrying, self._deadline())
                deweys, scores, stats = run_algorithm(
                    reader, query, k, algorithm, scored
                )
            finally:
                self._index.release(view)
        # A completed scan heard back from the shards it read: credit those
        # breakers (and no other) so a recovered shard's circuit can close.
        for shard in read_shards:
            self._health.record_success(shard)
        result = self._package(deweys, scores, stats, k, algorithm, scored)
        result.stats.update(self._resilience_stats((), reader.retries))
        return result

    def _execute_gather(
        self, query: Query, k: int, algorithm: str, scored: bool,
        home: Optional[int] = None,
    ) -> DiverseResult:
        """Scatter-gather with degradation: each shard's local answer
        (naive: its canonical diverse top-k; basic: its document-order
        first-k), survivors re-merged under Definitions 1-2.  A routed
        gather is the ``home`` shard's task run here, whatever the executor
        (one shard is not a fan-out); losing it degrades, never raises."""
        executor = self._executor
        task = GatherTask(algorithm, k, scored, query)
        with span("shard.scatter", registry=self._registry,
                  shards=self.num_shards if home is None else 1,
                  workers=self._workers,
                  mode=executor.mode if home is None else ShardExecutor.mode):
            if home is None:
                outcomes = executor.scatter(task, self._deadline())
            else:
                outcomes = [self._runner.shard_task(
                    home, self._index, task, self._deadline()
                )]
        gathered = [outcome.value for outcome in outcomes if outcome.ok]
        candidates = [local for local, _, _ in gathered]
        stats = {
            "next_calls": sum(calls for _, calls, _ in gathered),
            "scored_next_calls": sum(calls for _, _, calls in gathered),
            "shards_queried": len(gathered),
            "merge_candidates": sum(len(local) for local in candidates),
        }
        stats.update(self._resilience_stats(
            [outcome for outcome in outcomes if not outcome.ok],
            sum(outcome.retries for outcome in outcomes),
        ))
        scores = None
        if algorithm == "basic":
            deweys = merge_first_k(candidates, k)
        elif scored:
            scores = scored_diverse_merge(candidates, k)
            deweys = sorted(scores)
        else:
            deweys = diverse_merge(candidates, k)
        return self._package(deweys, scores, stats, k, algorithm, scored)

    def _resilience_stats(
        self, failed: Sequence[ShardOutcome], retries: int
    ) -> Dict[str, int]:
        """Per-query resilience stats for ``result.stats``.

        These count the *execute* phase only — one entry per shard per
        query, so a shard that also faulted during plan preparation is not
        double-counted here (prepare-phase faults show up in
        :attr:`health` and the ``repro_retries_total{phase="prepare"}`` /
        ``repro_plan_degraded_total`` metrics instead).
        """
        if failed:
            registry = self._metrics()
            registry.counter(
                "repro_degraded_queries_total",
                "Scatter-gather queries answered from surviving shards only",
            ).inc()
            for outcome in failed:
                registry.counter(
                    "repro_shards_failed_total",
                    "Per-query shard losses in the execute fan-out, by reason",
                    reason=outcome.reason,
                ).inc()
        return {
            "degraded": bool(failed),
            "shards_failed": len(failed),
            "shards_total": self.num_shards,
            "replicas": self._index.replication_factor,
            "retries": retries,
            "deadline_ms": self._policy.deadline_ms or 0,
        }
