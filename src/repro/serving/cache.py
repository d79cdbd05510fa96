"""Serving-layer caches: query plans and diverse results.

Interactive shopping traffic is highly skewed — the same query strings
arrive over and over (cf. Capannini et al., *Efficient Diversification of
Web Search Results*, which treats caching of the diversification pipeline
as a first-class *stage* of the serving path, not a mode of the retrieval
engine).  The engine alone re-parses, re-normalises, re-orders, re-prices
and re-executes every call; this module amortises all five, and is reached
only through :class:`~repro.serving.engine.ServingEngine` — the engine
itself holds no cache:

* :class:`PlanCache` memoises the plan step under the caller's own key —
  a raw query string hits without being parsed, at any epoch.  An entry
  compiles its query once (:func:`~repro.core.engine.compile_query`:
  parse, normalise); the leapfrog ordering depends on posting-list
  statistics, so a plan about to run or be priced at a newer epoch is
  *revalidated* through ``engine.order`` first; a hit never plans.  Each
  entry also memoises, per epoch, what the planner said about it: one
  :class:`~repro.planner.PlanDecision` per ``(k, algorithm)`` — ``auto``'s
  pick, or a fixed algorithm priced as itself — whose cost is the
  seek-unit price that is the admission currency of :mod:`repro.server`.
* :class:`ResultCache` is an LRU over full :class:`DiverseResult` answers,
  keyed by ``(canonical query, k, algorithm, scored)`` and
  stamped with the epoch they were last known good at.  A write records
  its row in a ring of the last :data:`WRITE_RING` epoch steps and touches
  no entry; a lookup that finds an older stamp tests the rows written
  since against the entry's plan.  A row the plan does not match cannot
  change the answer (Definitions 1-2 make it a function of ``RES(R, Q)``
  and those rows' Dewey IDs, which no write renumbers), so if none
  matches the entry is re-stamped and served; otherwise, or when the ring
  cannot vouch for every step, it is dropped.
* :class:`ServingCache` combines both behind thread-safe ``search`` /
  ``search_page`` / ``price`` / ``lookup`` calls.  An answer's ``stats``
  are its own run's plus a ``cache_hit`` flag; the cache's running totals
  (:class:`CacheStats`) are read from ``ServingEngine.stats``,
  :meth:`ServingCache.stats_snapshot` and the ``repro_cache_*`` gauges.

The caches never change answers: a hit is bit-identical to a cache-free
run at the same index state of the algorithm it reports (an ``auto``
answer keeps its ``algorithm_selected``); the property tests interleave
mutations with searches to prove it.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple, Union

from ..core.engine import AUTO, compile_query
from ..core.result import DiverseResult
from ..index.tokenize import token_set
from ..query.predicates import KeywordPredicate, ScalarPredicate
from ..query.query import AND, LEAF, Query
from ..query.rewrite import to_query_string

DEFAULT_PLAN_CAPACITY = 1024
DEFAULT_RESULT_CAPACITY = 4096

#: Epoch steps whose written rows the result cache keeps: this caps one
#: validation at 64 row tests, and the rank-500 entry of the ladder's
#: ``serving-zipf-mutating`` pool sees about 17 writes between its reads.
WRITE_RING = 64


@dataclass
class CacheStats:
    """Exact serving-cache counters (monotone, cumulative)."""

    hits: int = 0                   # result-cache hits (current or validated)
    misses: int = 0                 # result-cache misses (incl. invalidations)
    evictions: int = 0              # result entries dropped for ANY reason:
                                    #   LRU pressure or epoch invalidation,
                                    #   each dropped entry counted exactly once
    epoch_invalidations: int = 0    # stale entries dropped on lookup: a write
                                    #   touched their plan or the write ring
                                    #   could not vouch (a subset of both
                                    #   misses and evictions)
    plan_hits: int = 0              # plan found in cache (at any epoch)
    plan_misses: int = 0            # plan compiled from scratch
    plan_revalidations: int = 0     # re-ordered before executing (or being
                                    #   priced) at a newer epoch
    plan_evictions: int = 0         # plan entries dropped by LRU pressure
    decision_hits: int = 0          # auto decision served from cache
    decision_misses: int = 0        # auto decision computed fresh
    decision_replans: int = 0       # auto decision recomputed: epoch moved
                                    #   (the PR 7 invalidation contract:
                                    #   mutated statistics force a re-plan)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Result-cache hit ratio over all lookups so far (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)


class _LRU:
    """A small capacity-bounded LRU map (recency = access order)."""

    __slots__ = ("_capacity", "_entries", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        if len(entries) >= self._capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value

    def discard(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


class _PlanEntry:
    """One memoised plan: the compiled base + its ordered form."""

    __slots__ = ("base", "ordered", "canonical", "epoch", "decisions")

    def __init__(self, base: Query, ordered: Query, canonical: str, epoch: int):
        self.base = base            # compile_query's plan: epoch-independent
        self.ordered = ordered      # engine.order(base) at ``epoch``
        self.canonical = canonical  # canonical text of the *base* plan
        self.epoch = epoch          # index epoch the ordering was computed at
        # What the planner said per ``(k, algorithm)``.  Each PlanDecision
        # carries its own epoch stamp, so one computed under older
        # statistics is replaced on its next use (mutations move
        # selectivities, which can flip the cheapest algorithm).
        self.decisions: Dict[Tuple[int, str], Any] = {}


class PlanCache:
    """Memoises the plan step per query as the caller sent it.

    Keys are ``(query, scored)`` over raw query strings (the common
    serving case — no parse needed to hit) and :class:`Query` objects
    (hashable trees).  An entry runs :func:`compile_query` once and is
    cached forever (modulo LRU); its leapfrog ordering is epoch-stamped,
    and the serving cache re-orders the base through ``engine.order``
    only before the plan runs or is priced at a newer epoch (orderings
    permute AND children, never the matches).
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CAPACITY):
        self._lru = _LRU(capacity)

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    def lookup(
        self, engine, query: Union[Query, str], scored: bool
    ) -> Tuple[_PlanEntry, str]:
        """Return ``(entry, outcome)`` where outcome is ``"hit"`` (whatever
        the epoch) or ``"miss"``; compiles and caches on miss."""
        key = (query, scored)
        entry = self._lru.get(key)
        if entry is not None:
            return entry, "hit"
        epoch = engine.epoch
        base = compile_query(query, scored)
        entry = _PlanEntry(base, engine.order(base), to_query_string(base), epoch)
        self._lru.put(key, entry)
        return entry, "miss"

    def clear(self) -> None:
        self._lru.clear()


class _ResultEntry:
    __slots__ = ("result", "epoch")

    def __init__(self, result: DiverseResult, epoch: int):
        self.result = result
        self.epoch = epoch


class _Write:
    """One recorded epoch step: the row its write inserted or deleted (the
    relation's immutable tuple, shared) and its token sets, memoised."""

    __slots__ = ("epoch", "row", "tokens")

    def __init__(self, epoch: int, row: tuple):
        self.epoch, self.row, self.tokens = epoch, row, {}

    def touches(self, node: Query, position: Callable[[str], int]) -> bool:
        """Is the row in ``RES(node)`` by the index's own rule?"""
        if node.kind != LEAF:
            hits = (self.touches(child, position) for child in node.children)
            return all(hits) if node.kind == AND else any(hits)
        predicate = node.predicate
        if type(predicate) is ScalarPredicate:
            return self.row[position(predicate.attribute)] == predicate.value
        if type(predicate) is KeywordPredicate:
            tokens = self.tokens.get(predicate.attribute)
            if tokens is None:
                tokens = self.tokens[predicate.attribute] = token_set(
                    self.row[position(predicate.attribute)])
            return tokens.issuperset(predicate.terms)
        return True  # TRUE, or a predicate kind this test cannot vouch for


class ResultCache:
    """LRU of executed answers, validated against the writes since their
    stamp (see the module docstring)."""

    def __init__(self, capacity: int = DEFAULT_RESULT_CAPACITY):
        self._lru = _LRU(capacity)
        self.invalidations = 0  # stale entries discarded on lookup
        # Slot ``epoch % WRITE_RING``, for one engine (weakly held: a cache
        # handed to a recovered engine vouches for none of the old one's).
        self._writes: List[Optional[_Write]] = [None] * WRITE_RING
        self._writer: Optional[weakref.ref] = None

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def evictions(self) -> int:
        """Entries dropped by LRU pressure (invalidation drops are separate:
        ``invalidations``; each dropped entry lands in exactly one)."""
        return self._lru.evictions

    def lookup(self, key: Hashable, epoch: int, engine,
               plan: Query) -> Tuple[Optional[DiverseResult], bool]:
        """Return ``(result, invalidated)``: an older entry is re-stamped
        if no write since touches ``plan``, else dropped."""
        entry = self._lru.get(key)
        if entry is None:
            return None, False
        if entry.epoch != epoch:
            if not self._untouched(engine, plan, entry.epoch, epoch):
                self._lru.discard(key)
                self.invalidations += 1
                return None, True
            entry.epoch = epoch
        return entry.result, False

    def record(self, engine, epoch: int, row: tuple) -> None:
        """Writing ``row`` moved ``engine`` to ``epoch``: one slot, O(1)."""
        if self._writer is None or self._writer() is not engine:
            self._writer = weakref.ref(engine)
            self._writes = [None] * WRITE_RING
        self._writes[epoch % WRITE_RING] = _Write(epoch, row)

    def _untouched(self, engine, plan: Query, stamp: int, epoch: int) -> bool:
        """Whether every step from ``stamp`` to ``epoch`` is a recorded
        write to ``engine`` whose row misses ``plan``."""
        if not 0 < epoch - stamp <= WRITE_RING or self._writer is None \
                or self._writer() is not engine:
            return False
        position = engine.relation.schema.position
        writes = self._writes
        for step in range(stamp + 1, epoch + 1):
            write = writes[step % WRITE_RING]
            if write is None or write.epoch != step or write.touches(plan, position):
                return False
        return True

    def store(self, key: Hashable, result: DiverseResult, epoch: int) -> None:
        self._lru.put(key, _ResultEntry(result, epoch))

    def clear(self) -> None:
        self._lru.clear()


class ServingCache:
    """Plan + result caching behind one thread-safe ``search`` call.

    Owned by a :class:`~repro.serving.engine.ServingEngine`, which hands
    the engine it fronts to every call; the engine never sees the cache.
    Answers are always bit-identical to the engine's own at the same index
    epoch.  An answer's ``stats`` add one ``cache_hit`` flag to its run's;
    the cumulative counters stay here, in :attr:`stats`.
    """

    def __init__(
        self,
        plan_capacity: int = DEFAULT_PLAN_CAPACITY,
        result_capacity: int = DEFAULT_RESULT_CAPACITY,
    ):
        self.plans = PlanCache(plan_capacity)
        self.results = ResultCache(result_capacity)
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def search(
        self,
        engine,
        query: Union[Query, str],
        k: int,
        algorithm: str,
        scored: bool,
    ) -> DiverseResult:
        """The cached equivalent of ``engine.search`` (same semantics)."""
        stats = self.stats
        with self._lock:
            epoch = engine.epoch
            plan, (key,), (cached,) = self._find(
                engine, query, scored, epoch, ((k, algorithm),))
            if cached is not None:
                stats.hits += 1
                return self._serve(cached, hit=True)
            stats.misses += 1
            ordered = self._ordered(engine, plan, epoch)
            decision = None
            if algorithm == AUTO:
                # Resolve the memoised decision under the lock (cheap pure
                # statistics work) so concurrent callers share one plan;
                # the selected algorithm executes outside the lock below.
                decision = self._decision(engine, plan, k, AUTO, scored, epoch)
        # Execute outside the lock: concurrent misses may race, but both
        # compute the same answer for the same epoch, so last-write-wins.
        result = engine.execute(ordered, k, algorithm, scored, decision=decision)
        with self._lock:
            # A degraded answer (shards lost mid-query) is correct only for
            # the moment's outage, not for the epoch: never cache it, or a
            # recovered shard would keep serving the survivor-only answer.
            if engine.epoch == epoch and not result.stats.get("degraded"):
                self.results.store(key, result, epoch)
                self._sync_eviction_counters()
            return self._serve(result, hit=False)

    def search_page(
        self,
        engine,
        query: Union[Query, str],
        page: int,
        page_size: int,
        algorithm: str,
    ) -> DiverseResult:
        """Cached diverse pagination: page ``page`` of ``page_size`` rows.

        Every page is cached independently under the plan's canonical key
        (``page:<algorithm>:<n>`` in the algorithm slot, so page entries
        can never collide with whole-answer entries).  A request for page
        N reuses the longest cached prefix of pages 1..N-1 to seed the
        paginator's exclusion set — computing only the missing suffix —
        and stores each newly computed page.  Pages are validated like
        every other entry, under the same plan, and degraded pages are
        never stored (same invariant as :meth:`search`).
        """
        from ..core.pagination import DiversePaginator

        stats = self.stats
        with self._lock:
            epoch = engine.epoch
            plan, keys, cached_pages = self._find(
                engine, query, False, epoch,
                [(page_size, f"page:{algorithm}:{n}") for n in range(1, page + 1)])
            if cached_pages[-1] is not None:
                stats.hits += 1
                return self._serve(cached_pages[-1], hit=True)
            stats.misses += 1
            ordered = self._ordered(engine, plan, epoch)
        # Compute outside the lock (same discipline as ``search``): seed
        # the exclusion set from the contiguous cached prefix, then run
        # the paginator only over the missing pages.
        shown: set = set()
        start = 1
        for prior in cached_pages[:-1]:
            if prior is None:
                break
            shown.update(prior.deweys)
            start += 1
        paginator = DiversePaginator(engine, ordered, page_size, algorithm,
                                     shown=shown)
        computed: List[Tuple[int, DiverseResult]] = []
        result: Optional[DiverseResult] = None
        for number in range(start, page + 1):
            result = paginator.next_page()
            result.stats["page"] = number
            result.stats["page_size"] = page_size
            computed.append((number, result))
        with self._lock:
            if engine.epoch == epoch:
                for number, fresh in computed:
                    if not fresh.stats.get("degraded"):
                        self.results.store(keys[number - 1], fresh, epoch)
                self._sync_eviction_counters()
            return self._serve(result, hit=False)

    def price(
        self,
        engine,
        query: Union[Query, str],
        k: int,
        algorithm: str,
        scored: bool,
    ) -> float:
        """Seek-unit price of ``search(query, k, algorithm, scored)`` — the
        admission currency — resolved from the memoised plan.

        For ``auto`` it is the cost of the memoised decision's own pick, so
        admission and the execution that follows share one planning; a
        fixed algorithm is priced as itself.  At an unchanged epoch a
        repeated request parses, orders and prices nothing.  A malformed
        query raises :class:`~repro.query.parser.QueryParseError`; a query
        whose statistics are unreachable prices at ``0.0``.
        """
        with self._lock:
            epoch = engine.epoch
            plan = self._plan(engine, query, scored)
            return self._price(engine, plan, k, algorithm, scored, epoch)

    def lookup(
        self,
        engine,
        query: Union[Query, str],
        k: int,
        algorithm: str,
        scored: bool,
    ) -> Tuple[Optional[DiverseResult], float]:
        """``(hit, price)`` for ``search(query, k, algorithm, scored)``,
        under one acquisition of the lock: the served answer when the
        result cache holds it for the current epoch (counted as one hit and
        one plan lookup, exactly as :meth:`search` would), else ``None``
        and the :meth:`price` to admit the search at.  Nothing executes
        and a miss is not counted — the ``search`` that follows counts it;
        a stale entry dropped here is counted here, once.
        """
        with self._lock:
            epoch = engine.epoch
            plan, _, (cached,) = self._find(
                engine, query, scored, epoch, ((k, algorithm),))
            if cached is not None:
                self.stats.hits += 1
                return self._serve(cached, hit=True), 0.0
            return None, self._price(engine, plan, k, algorithm, scored, epoch)

    def record_write(self, engine, epoch: int, row: tuple) -> None:
        """Inserting or deleting ``row`` moved ``engine`` to ``epoch`` by
        exactly one step (entries are validated against it lazily)."""
        with self._lock:
            self.results.record(engine, epoch, row)

    def _find(self, engine, query: Union[Query, str], scored: bool,
              epoch: int, slots) -> Tuple[_PlanEntry, list, list]:
        """The memoised plan of ``query`` and, per ``(k, algorithm)`` slot,
        its result key and the answer the result cache holds at ``epoch``
        (else ``None``), counted (lock held).

        A stale entry the lookup drops is one epoch invalidation and one
        eviction, each exactly once — :meth:`_sync_eviction_counters`
        derives evictions from the result cache's own drop counters, so
        no path can double-count the same entry.
        """
        plan = self._plan(engine, query, scored)
        keys = [(plan.canonical, k, algorithm, scored) for k, algorithm in slots]
        answers = []
        for key in keys:
            cached, invalidated = self.results.lookup(key, epoch, engine, plan.base)
            if invalidated:
                self.stats.epoch_invalidations += 1
                self._sync_eviction_counters()
            answers.append(cached)
        return plan, keys, answers

    def _price(self, engine, plan: _PlanEntry, k: int, algorithm: str,
               scored: bool, epoch: int) -> float:
        """The admission price of one plan: the cost of what its memoised
        decision at ``(k, algorithm)`` runs (lock held)."""
        decision = self._decision(engine, plan, k, algorithm, scored, epoch)
        return decision.costs[decision.algorithm]

    def _plan(self, engine, query: Union[Query, str], scored: bool) -> _PlanEntry:
        """The memoised plan for ``query``, counted (lock held)."""
        stats = self.stats
        plan, outcome = self.plans.lookup(engine, query, scored)
        if outcome == "hit":
            stats.plan_hits += 1
        else:
            stats.plan_misses += 1
        stats.plan_evictions = self.plans.evictions
        return plan

    def _ordered(self, engine, plan: _PlanEntry, epoch: int) -> Query:
        """The plan about to run or be priced at ``epoch``: re-ordered from
        its base first if the index moved since (lock held)."""
        if plan.epoch != epoch:
            plan.ordered = engine.order(plan.base)
            plan.epoch = epoch
            self.stats.plan_revalidations += 1
        return plan.ordered

    def _decision(self, engine, plan: _PlanEntry, k: int, algorithm: str,
                  scored: bool, epoch: int):
        """What the planner says about ``plan`` at ``(k, algorithm)``,
        memoised per epoch (lock held).

        ``auto`` is planned over the default candidates; a fixed algorithm
        is forced through the same ``engine.plan``, so a sharded engine's
        statistics reads keep their retry wrapping.  A decision taken
        while statistics were unreachable reflects the outage, not the
        epoch, and is never stored.  Only ``auto`` moves the
        ``decision_*`` counters.
        """
        stats = self.stats
        ordered = self._ordered(engine, plan, epoch)
        decision = plan.decisions.get((k, algorithm))
        if decision is not None and decision.epoch == epoch:
            if algorithm == AUTO:
                stats.decision_hits += 1
            return decision
        if algorithm == AUTO:
            if decision is None:
                stats.decision_misses += 1
            else:
                stats.decision_replans += 1
        decision = engine.plan(ordered, k, scored, candidates=(
            None if algorithm == AUTO else (algorithm,)))
        if decision.reason != "stats unavailable":
            plan.decisions[(k, algorithm)] = decision
        return decision

    def _sync_eviction_counters(self) -> None:
        """Refresh ``stats.evictions`` from the result cache (lock held).

        Every dropped result entry is counted exactly once, whichever way
        it died: LRU pressure (``results.evictions``) or epoch
        invalidation (``results.invalidations``).
        """
        self.stats.evictions = self.results.evictions + self.results.invalidations

    @staticmethod
    def _serve(result: DiverseResult, hit: bool) -> DiverseResult:
        """A stored or fresh result as served: its stats plus ``cache_hit``.

        The answer's columns and item objects are shared, so an entry
        builds its items at most once whatever its hit count; the items
        list and the stats dict are new per call, so callers can never
        corrupt a cached entry.
        """
        return result.share({**result.stats, "cache_hit": 1 if hit else 0})

    def stats_snapshot(self) -> CacheStats:
        """A consistent copy of the counters, taken under the cache lock.

        Reading ``cache.stats`` field by field while pool threads serve
        queries can observe a torn set (a hit counted, its lookup not yet);
        metrics collection snapshots through here.
        """
        with self._lock:
            return self.stats.snapshot()

    def sizes(self) -> Dict[str, int]:
        """Current entry counts (for gauges): plan and result caches."""
        with self._lock:
            return {"plans": len(self.plans), "results": len(self.results)}

    def clear(self) -> None:
        """Drop every entry (counters are preserved; they are cumulative)."""
        with self._lock:
            self.plans.clear()
            self.results.clear()
