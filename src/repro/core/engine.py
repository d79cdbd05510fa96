"""The public facade: a diversity-aware search engine over one relation.

Typical use::

    engine = DiversityEngine.from_relation(cars, ["Make", "Model", "Color"])
    result = engine.search("Make = 'Honda'", k=5)            # UProbe
    result = engine.search(query, k=5, algorithm="onepass")   # UOnePass
    result = engine.search(query, k=5, scored=True)           # SProbe

Algorithms (Section V names in parentheses):

========== ==========================================================
onepass     single scan with skipping (UOnePass / SOnePass)
probe       bidirectional probing, <= ~2k index probes (UProbe / SProbe)
naive       full evaluation + exact post-processing (UNaive / SNaive)
basic       first-k / WAND top-k, no diversity (UBasic / SBasic)
multq       query-rewriting baseline (MultQ)
========== ==========================================================
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from ..index.inverted import InvertedIndex
from ..index.merged import MergedList
from ..observability import (
    MONOTONIC,
    annotate_query_stats,
    get_registry,
    record_query_metrics,
)
from ..planner.cost import annotate_plan_stats, choose
from ..query.estimate import order_for_leapfrog
from ..query.parser import parse_query
from ..query.query import Query
from ..query.rewrite import normalise
from ..storage.relation import Relation
from . import baselines
from .dewey import DeweyId
from .onepass import one_pass_scored, one_pass_unscored
from .ordering import DiversityOrdering
from .probing import probe_scored, probe_unscored
from .result import DiverseResult

ALGORITHMS = ("onepass", "probe", "naive", "basic", "multq")

#: The adaptive selector: not a sixth algorithm but a dispatcher — the
#: planner (:mod:`repro.planner`) prices probe and naive from index
#: statistics and the engine runs the cheaper.
#: Kept out of :data:`ALGORITHMS` so code iterating the fixed algorithms
#: (tests, benchmarks, the metrics CLI's per-algorithm loops) is unchanged.
AUTO = "auto"


def run_algorithm(
    index,
    query: Query,
    k: int,
    algorithm: str = "probe",
    scored: bool = False,
):
    """Execute one prepared query with one algorithm; the engine-agnostic core.

    ``index`` is anything implementing the :class:`InvertedIndex` read
    protocol (including :class:`repro.sharding.ShardedIndex` — the
    algorithms only observe ``next`` results, which the protocol fixes).
    Returns ``(deweys, scores, stats)`` where ``scores`` is ``None`` for
    unscored runs.  A scored plan whose matches all score alike runs the
    unscored driver, each answer stamped with :meth:`Query.max_score`;
    ``naive`` keeps its scored path, which the sharded gather repeats.
    """
    merged = MergedList(query, index)
    stats: Dict[str, int] = {}
    scores: Optional[Dict[DeweyId, float]] = None
    scored_driver = scored and (
        algorithm in ("naive", "multq") or not query.uniform_score()
    )
    if algorithm == "multq":
        if scored:
            scores, issued = baselines.multq_scored(index, query, k)
            deweys = sorted(scores)
        else:
            deweys, issued = baselines.multq_unscored(index, query, k)
        stats["queries_issued"] = issued
    elif scored_driver:
        if algorithm == "onepass":
            scores = one_pass_scored(merged, k)
        elif algorithm == "probe":
            scores = probe_scored(merged, k)
        elif algorithm == "naive":
            scores = baselines.naive_scored(merged, k)
        else:
            scores = baselines.basic_scored(merged, k)
        deweys = sorted(scores)
    else:
        if algorithm == "onepass":
            deweys = one_pass_unscored(merged, k)
        elif algorithm == "probe":
            deweys = probe_unscored(merged, k)
        elif algorithm == "naive":
            deweys = baselines.naive_unscored(merged, k)
        else:
            deweys = baselines.basic_unscored(merged, k)
        if scored:
            scores = dict.fromkeys(deweys, query.max_score())
    stats["next_calls"] = merged.next_calls
    stats["scored_next_calls"] = merged.scored_next_calls
    annotate_query_stats(stats, merged, algorithm, scored_driver, k)
    return deweys, scores, stats


def compile_query(query: Union[Query, str], scored: bool = False) -> Query:
    """The pure half of the plan step: parse text, then run the logical
    normaliser (unscored only, to keep reported scores bit-exact).
    Depends on nothing but the query, so the serving layer's plan cache
    runs it once per entry; ``normalise`` is idempotent, so compiling a
    compiled plan changes nothing."""
    if isinstance(query, str):
        query = parse_query(query)
    return query if scored else normalise(query)


def validate_search(k: int, algorithm: str) -> None:
    """Reject a ``search`` call no engine can answer (shared by the
    serving layer, which fronts :meth:`DiversityEngine.execute` itself)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if algorithm not in ALGORITHMS and algorithm != AUTO:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from "
            f"{ALGORITHMS + (AUTO,)}"
        )


class DiversityEngine:
    """Diverse top-k search over one indexed relation.

    Every :meth:`search` is validate → :meth:`prepare` → :meth:`execute`;
    caching is a stage in front of the engine
    (:class:`repro.serving.ServingEngine`), not a mode of it.

    ``registry`` (optional) pins the engine's metrics destination; the
    default (``None``) resolves the process-wide
    :func:`repro.observability.get_registry` at each query, so swapping
    the global registry (tests, benchmarks) takes effect immediately.
    """

    def __init__(self, index: InvertedIndex, registry=None):
        self._index = index
        self._registry = registry

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        ordering: Union[DiversityOrdering, Sequence[str]],
        backend: str = "array",
    ) -> "DiversityEngine":
        """Build the index (offline step) and wrap it in an engine."""
        if not isinstance(ordering, DiversityOrdering):
            ordering = DiversityOrdering(ordering)
        return cls(InvertedIndex.build(relation, ordering, backend=backend))

    @property
    def index(self) -> InvertedIndex:
        return self._index

    @property
    def relation(self) -> Relation:
        return self._index.relation

    @property
    def ordering(self) -> DiversityOrdering:
        return self._index.ordering

    @property
    def epoch(self) -> int:
        """The index mutation epoch (see :attr:`InvertedIndex.epoch`)."""
        return self._index.epoch

    def close(self) -> None:
        """Release execution resources.  A plain engine holds none; the
        sharded subclass shuts its fan-out pool down.  Idempotent."""

    def __enter__(self) -> "DiversityEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def compile(self, query: Union[Query, str]) -> MergedList:
        """Parse (if needed) and compile a query to its merged list."""
        if isinstance(query, str):
            query = parse_query(query)
        return MergedList(query, self._index)

    def search(
        self,
        query: Union[Query, str],
        k: int,
        algorithm: str = "probe",
        scored: bool = False,
    ) -> DiverseResult:
        """Diverse top-k search.

        ``algorithm`` is one of :data:`ALGORITHMS`, or :data:`AUTO` to let
        the cost model pick probe or naive (see :meth:`plan`);
        ``scored=True`` switches
        to the scored variants (tuples ranked by summed leaf weights, with
        diversity among the lowest-score ties).
        """
        validate_search(k, algorithm)
        return self.execute(self.prepare(query, scored), k, algorithm, scored)

    def prepare(self, query: Union[Query, str], scored: bool = False) -> Query:
        """The plan step of :meth:`search`: :func:`compile_query`, then
        :meth:`order`."""
        return self.order(compile_query(query, scored))

    def order(self, plan: Query) -> Query:
        """The epoch-dependent half of the plan step: conjunctions
        rarest-list-first for the leapfrog intersection.  Deterministic
        given the plan and the current index statistics; the serving
        layer's plan cache re-orders through here when the epoch moves."""
        return order_for_leapfrog(plan, self._index)

    def plan(
        self,
        query: Union[Query, str],
        k: int,
        scored: bool = False,
        candidates=None,
    ):
        """Price the candidate algorithms for one query and pick the cheapest.

        Returns a :class:`~repro.planner.PlanDecision` — the verdict
        ``algorithm="auto"`` executes, stamped with the index epoch it was
        computed at (the serving layer's decision cache re-plans when the
        epoch moves).  ``candidates`` defaults to probe and naive; pure
        statistics work, no row is touched.
        """
        if isinstance(query, str):
            query = parse_query(query)
        return choose(self._index, query, k, scored, candidates=candidates)

    def _execute_auto(
        self, query: Query, k: int, scored: bool, decision=None
    ) -> DiverseResult:
        """Resolve (or adopt) a plan decision, then run what it picked.

        Dispatch back through ``self.execute`` so subclass execution
        strategies (the sharded scatter/scan split) apply to the selected
        algorithm unchanged.
        """
        if decision is None:
            decision = self.plan(query, k, scored)
        result = self.execute(query, k, decision.algorithm, scored)
        annotate_plan_stats(result.stats, decision)
        self._record_plan_metrics(decision, result.stats)
        return result

    def _record_plan_metrics(self, decision, stats: Dict[str, int]) -> None:
        """Export one auto decision: the choice counter plus the paper-bound
        cross-check (a selected algorithm violating its own access bound
        means the plan was priced from a broken premise — must stay 0)."""
        registry = self._registry if self._registry is not None else get_registry()
        if not registry.enabled:
            return
        key = ("plan_choice", decision.algorithm, decision.scored)
        choices = registry.hot_cache.get(key)
        if choices is None:
            choices = registry.hot_cache[key] = registry.counter(
                "repro_plan_choice_total",
                help="auto-planned queries, by selected algorithm",
                algorithm=decision.algorithm,
                mode="scored" if decision.scored else "unscored",
            )
        choices.inc()
        if stats.get("probe_bound_exceeded") or stats.get("scan_passes", 1) > 1:
            registry.counter(
                "repro_plan_bound_violations_total",
                help="auto-selected runs that broke their own access bound "
                     "(Theorem 2 probe bound / one-pass single scan); "
                     "must stay 0",
                algorithm=decision.algorithm,
            ).inc()

    def execute(
        self,
        query: Query,
        k: int,
        algorithm: str = "probe",
        scored: bool = False,
        decision=None,
    ) -> DiverseResult:
        """The run step of :meth:`search`: execute an already-prepared plan.

        ``query`` must be a :class:`Query` (no parsing happens here); no
        normalisation or reordering is applied.  ``algorithm="auto"`` plans
        first (or adopts ``decision``, a memoised
        :class:`~repro.planner.PlanDecision` from the serving cache) and
        runs the selected algorithm.
        """
        if algorithm == AUTO:
            return self._execute_auto(query, k, scored, decision)
        # Per-query latency goes to the ``repro_query_ms`` histogram of the
        # query's instrument bundle, not a span: execute is the per-query
        # hot path, and the full span machinery (contextvars, record ring,
        # field dicts) costs several microseconds a query where this is well
        # under one.  Spans bracket pipeline *stages* (shard.scatter, WAL).
        started = MONOTONIC()
        deweys, scores, stats = run_algorithm(
            self._index, query, k, algorithm, scored
        )
        return self._package(deweys, scores, stats, k, algorithm, scored, started)

    def _package(
        self,
        deweys,
        scores: Optional[Dict[DeweyId, float]],
        stats: Dict[str, int],
        k: int,
        algorithm: str,
        scored: bool,
        started: Optional[float] = None,
    ) -> DiverseResult:
        """Package the answer as columns (:meth:`DiverseResult.package`; no
        row is materialised here), then publish the query's metrics, with
        its latency since ``started`` when given."""
        result = DiverseResult.package(
            self._index, deweys, scores, k, algorithm, scored, stats)
        record_query_metrics(self._registry, algorithm, scored, k, stats, started)
        return result

    def insert(self, row) -> int:
        """Add a listing: insert into the relation and index it."""
        rid = self._index.relation.insert(row)
        self._index.insert(rid)
        return rid

    def delete(self, rid: int) -> bool:
        """Remove a listing (sold/expired): tombstone the relation row and
        unindex it, so queries stop returning it immediately.  Returns False
        if the row was already deleted."""
        if not self._index.relation.delete(rid):
            return False
        self._index.remove(rid)
        return True

    def explain(self, query: Union[Query, str]) -> str:
        """A short human-readable description of the compiled query."""
        if isinstance(query, str):
            query = parse_query(query)
        lines = [f"query: {query.describe()}"]
        lines.append(f"ordering: {self.ordering!r}")
        lines.append(f"index: {self._index!r}")
        return "\n".join(lines)
