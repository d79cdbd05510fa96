"""The serving layer: plan/result caching and epoch invalidation.

The central contract under test: **a cached engine is answer-identical to
an uncached engine at every index state** — caching changes timings and
``cache_*`` stats, never items.  The property tests interleave inserts,
deletes and searches over one shared index to prove it for all five
algorithms, scored and unscored.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.core.engine as core_engine
from repro import ALGORITHMS, AUTO, DiversityEngine, Query, Relation
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.query.rewrite import normalise, to_query_string
from repro.serving import CacheStats, ServingCache, ServingEngine
from repro.serving.cache import PlanCache, ResultCache, _LRU

from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    random_query,
    random_relation,
)


def _paired_engines(**cache_options):
    """One engine, bare and behind a serving cache (wrapping leaves the
    bare engine exactly as it was)."""
    plain = DiversityEngine.from_relation(figure1_relation(), figure1_ordering())
    cached = ServingEngine(plain, ServingCache(**cache_options))
    return plain, cached


def _answers(result):
    """The answer payload of a result (everything but stats)."""
    return [
        (item.dewey, item.rid, item.values, item.score) for item in result.items
    ]


class TestLRU:
    def test_capacity_evicts_oldest(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert lru.get("a") is None
        assert lru.get("b") == 2
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = _LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        lru.put("c", 3)
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_positive_capacity_required(self):
        with pytest.raises(ValueError):
            _LRU(0)


class TestResultCacheBehaviour:
    def test_repeat_query_hits(self):
        _, cached = _paired_engines()
        first = cached.search("Make = 'Honda'", k=3)
        second = cached.search("Make = 'Honda'", k=3)
        assert first.stats["cache_hit"] == 0
        assert second.stats["cache_hit"] == 1
        assert cached.stats.hits == 1
        assert cached.stats.misses == 1
        assert _answers(first) == _answers(second)

    def test_hit_requires_same_k_algorithm_scored(self):
        _, cached = _paired_engines()
        cached.search("Make = 'Honda'", k=3)
        assert cached.search("Make = 'Honda'", k=4).stats["cache_hit"] == 0
        assert (
            cached.search("Make = 'Honda'", k=3, algorithm="onepass").stats["cache_hit"]
            == 0
        )
        assert cached.search("Make = 'Honda'", k=3, scored=True).stats["cache_hit"] == 0
        # The original key still hits.
        assert cached.search("Make = 'Honda'", k=3).stats["cache_hit"] == 1

    def test_equivalent_spellings_share_one_entry(self):
        """Canonicalisation: whitespace/formatting differences hit the same
        result entry once the plan is parsed."""
        _, cached = _paired_engines()
        cached.search("Make = 'Honda'", k=3)
        other = cached.search("Make   =   'Honda'", k=3)
        assert other.stats["cache_hit"] == 1

    def test_query_object_and_string_share_one_entry(self):
        _, cached = _paired_engines()
        cached.search(Query.scalar("Make", "Honda"), k=3)
        assert cached.search("Make = 'Honda'", k=3).stats["cache_hit"] == 1

    def test_insert_invalidates_lazily(self):
        plain, cached = _paired_engines()
        cached.search("Make = 'Honda'", k=5)
        plain.insert(("Honda", "Prelude", "Black", 1999, "classic coupe"))
        result = cached.search("Make = 'Honda'", k=5)
        assert result.stats["cache_hit"] == 0
        assert cached.stats.epoch_invalidations == 1
        assert _answers(result) == _answers(plain.search("Make = 'Honda'", k=5))

    def test_delete_invalidates_lazily(self):
        plain, cached = _paired_engines()
        before = cached.search("Make = 'Honda'", k=5)
        victim = before.items[0].rid
        cached_engine_result = cached.search("Make = 'Honda'", k=5)
        assert cached_engine_result.stats["cache_hit"] == 1
        assert plain.delete(victim)
        after = cached.search("Make = 'Honda'", k=5)
        assert after.stats["cache_hit"] == 0
        assert cached.stats.epoch_invalidations == 1
        assert victim not in after.rids

    @pytest.mark.parametrize("algorithm", ["probe", "auto"])
    def test_lookup_is_the_hit_or_the_price_and_counts_once(self, algorithm):
        """``lookup`` answers what ``search`` would serve from the cache,
        or prices the search that has to run; every counter moves once."""
        plain, cached = _paired_engines()
        query = "Make = 'Honda'"
        hit, price = cached.lookup(query, 3, algorithm)
        assert hit is None
        assert price == cached.price(query, 3, algorithm) > 0.0
        assert (cached.stats.hits, cached.stats.misses) == (0, 0)
        computed = cached.search(query, 3, algorithm)
        before = cached.cache.stats_snapshot()
        hit, _ = cached.lookup(query, 3, algorithm)
        assert hit.stats["cache_hit"] == 1
        assert _answers(hit) == _answers(computed)
        assert hit.items is not computed.items  # a copy, like any hit
        after = cached.cache.stats_snapshot()
        assert after.hits - before.hits == 1
        assert after.plan_hits - before.plan_hits == 1
        assert after.misses == before.misses
        # A mutation: the stale entry dies in the lookup (counted there,
        # once), the miss is counted by the search that follows.
        plain.insert(("Honda", "Prelude", "Black", 1999, "classic coupe"))
        hit, price = cached.lookup(query, 3, algorithm)
        assert hit is None and price > 0.0
        fresh = cached.search(query, 3, algorithm)
        assert fresh.stats["cache_hit"] == 0
        assert cached.stats.epoch_invalidations == 1
        assert cached.stats.evictions == 1
        assert cached.stats.misses == after.misses + 1
        assert _answers(fresh) == _answers(plain.search(query, 3, algorithm))

    def test_unrelated_entries_survive_by_revalidation(self):
        """Epoch invalidation is lazy: an entry computed *after* the bump
        is immediately servable again."""
        plain, cached = _paired_engines()
        cached.search("Make = 'Honda'", k=3)
        plain.insert(("Kia", "Rio", "Red", 2005, "commuter"))
        miss = cached.search("Make = 'Honda'", k=3)
        assert miss.stats["cache_hit"] == 0
        hit = cached.search("Make = 'Honda'", k=3)
        assert hit.stats["cache_hit"] == 1

    def test_eviction_counter(self):
        _, cached = _paired_engines(result_capacity=2)
        cached.search("Make = 'Honda'", k=1)
        cached.search("Make = 'Honda'", k=2)
        cached.search("Make = 'Honda'", k=3)  # evicts the k=1 entry
        result = cached.search("Make = 'Honda'", k=1)
        assert result.stats["cache_hit"] == 0
        assert cached.stats.evictions >= 1

    def test_result_items_are_isolated_copies(self):
        _, cached = _paired_engines()
        first = cached.search("Make = 'Honda'", k=3)
        first.items.append("garbage")
        second = cached.search("Make = 'Honda'", k=3)
        assert second.stats["cache_hit"] == 1
        assert "garbage" not in second.items

    def test_item_values_are_isolated_copies(self):
        """Every hit of an entry shares its items, so an item's ``values``
        must not be a dict one caller can change for all later hits."""
        plain, cached = _paired_engines()
        first = cached.search("Make = 'Honda'", k=2)
        first.items[0].values["Color"] = "MUTATED"
        second = cached.search("Make = 'Honda'", k=2)
        assert second.stats["cache_hit"] == 1
        item = second.items[0]
        assert item.values["Color"] == plain.relation.row_dict(item.rid)["Color"]
        assert item.values["Color"] != "MUTATED"


class TestEmptyPostingListInvalidation:
    """Regression: deleting the *last* row matching a term must invalidate
    cached results for that term.  The hazard is an index that drops the
    now-empty posting list entirely — the re-search sees "no such term" and
    must still miss the cache (epoch bump), not serve the stale hit."""

    def test_delete_last_row_for_term_invalidates_cached_result(self):
        plain, cached = _paired_engines()
        rid = plain.insert(("Honda", "Insight", "Silver", 2009, "zebrafish hybrid"))
        first = cached.search("Description CONTAINS 'zebrafish'", k=5)
        assert [item.rid for item in first.items] == [rid]
        hit = cached.search("Description CONTAINS 'zebrafish'", k=5)
        assert hit.stats["cache_hit"] == 1
        # Delete through the *cached* engine: the only 'zebrafish' posting dies.
        assert cached.delete(rid)
        after = cached.search("Description CONTAINS 'zebrafish'", k=5)
        assert after.stats["cache_hit"] == 0, "stale result served after delete"
        assert cached.stats.epoch_invalidations >= 1
        assert list(after.items) == []

    def test_delete_last_row_for_scalar_value_invalidates(self):
        """Same edge for a scalar predicate whose value disappears."""
        plain, cached = _paired_engines()
        rid = plain.insert(("Zonda", "F", "Yellow", 2006, "track toy"))
        assert [i.rid for i in cached.search("Make = 'Zonda'", k=3).items] == [rid]
        assert cached.search("Make = 'Zonda'", k=3).stats["cache_hit"] == 1
        assert plain.delete(rid)  # mutation through the *other* facade
        after = cached.search("Make = 'Zonda'", k=3)
        assert after.stats["cache_hit"] == 0
        assert list(after.items) == []

    def test_reinsert_after_emptying_serves_fresh_result(self):
        _, cached = _paired_engines()
        rid = cached.insert(("Honda", "Insight", "Silver", 2009, "zebrafish"))
        cached.search("Description CONTAINS 'zebrafish'", k=5)
        assert cached.delete(rid)
        assert cached.search("Description CONTAINS 'zebrafish'", k=5).items == []
        rid2 = cached.insert(("Honda", "Insight", "Blue", 2010, "zebrafish two"))
        again = cached.search("Description CONTAINS 'zebrafish'", k=5)
        assert [item.rid for item in again.items] == [rid2]


class TestPlanCacheBehaviour:
    def test_plan_hits_and_revalidation(self):
        plain, cached = _paired_engines()
        cached.search("Make = 'Honda' AND Color = 'Green'", k=2)
        again = cached.search("Make = 'Honda' AND Color = 'Green'", k=2)
        assert cached.stats.plan_hits == 1
        plain.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
        after = cached.search("Make = 'Honda' AND Color = 'Green'", k=2)
        # The parse/normalise work was reused; only the ordering was redone.
        assert cached.stats.plan_revalidations == 1
        assert cached.stats.plan_misses == 1

    def test_plan_cache_standalone(self):
        engine = DiversityEngine.from_relation(figure1_relation(), figure1_ordering())
        cache = ServingCache(plan_capacity=4)
        plans = cache.plans
        assert isinstance(plans, PlanCache)
        entry, outcome = plans.lookup(engine, "Make = 'Honda'", False)
        assert outcome == "miss"
        entry2, outcome2 = plans.lookup(engine, "Make = 'Honda'", False)
        assert outcome2 == "hit"
        assert entry2 is entry
        engine.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
        # A lookup never re-orders: the entry is served whatever the epoch.
        _, outcome3 = plans.lookup(engine, "Make = 'Honda'", False)
        assert outcome3 == "hit"
        # The execution that follows re-orders the plan, once.
        cache.search(engine, "Make = 'Honda'", 3, "probe", False)
        assert cache.stats.plan_revalidations == 1
        cache.search(engine, "Make = 'Honda'", 3, "probe", False)
        assert cache.stats.plan_revalidations == 1


def _calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so every call is recorded; the call list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _decisions(cached):
    stats = cached.stats
    return stats.decision_misses, stats.decision_hits, stats.decision_replans


class TestCountedPlanning:
    """Each planning fact is computed once: counted calls, no clocks."""

    def test_one_compile_per_entry_one_ordering_per_epoch(self, monkeypatch):
        plain, cached = _paired_engines()
        normalised = _calls(monkeypatch, core_engine, "normalise")
        ordered = _calls(monkeypatch, plain, "order")
        query = "Make = 'Honda' AND Color = 'Green'"
        assert cached.search(query, k=2).stats["cache_hit"] == 0
        for year in (2001, 2002, 2003):
            plain.insert(("Honda", "Fit", "Green", year, "hatchback"))
            assert cached.search(query, k=2).stats["cache_hit"] == 0
        assert (len(normalised), len(ordered)) == (1, 4)
        assert (cached.stats.plan_misses, cached.stats.plan_revalidations) \
            == (1, 3)

    def test_a_forced_price_plans_once(self, monkeypatch):
        plain, cached = _paired_engines()
        planned = _calls(monkeypatch, plain, "plan")
        price = cached.price("Make = 'Honda'", 3, "probe")
        cached.search("Make = 'Honda'", 3, "probe")
        assert cached.price("Make = 'Honda'", 3, "probe") == price > 0.0
        assert len(planned) == 1

    def test_lookup_then_search_decides_once_per_epoch(self, monkeypatch):
        plain, cached = _paired_engines()
        planned = _calls(monkeypatch, plain, "plan")
        query = "Make = 'Honda'"
        assert cached.lookup(query, 3, AUTO)[0] is None
        cached.search(query, 3, AUTO)
        assert (_decisions(cached), len(planned)) == ((1, 1, 0), 1)
        plain.insert(("Honda", "Prelude", "Black", 1999, "classic coupe"))
        assert cached.lookup(query, 3, AUTO)[0] is None
        cached.search(query, 3, AUTO)
        assert (_decisions(cached), len(planned)) == ((1, 2, 1), 2)

    def test_forced_prices_never_move_the_decision_counters(self, monkeypatch):
        plain, cached = _paired_engines()
        planned = _calls(monkeypatch, plain, "plan")
        for _ in range(2):
            for algorithm in ("probe", "naive"):
                cached.price("Make = 'Honda'", 3, algorithm)
                cached.lookup("Make = 'Honda'", 3, algorithm)
            plain.insert(("Honda", "Prelude", "Black", 1999, "classic coupe"))
        assert len(planned) == 4
        assert _decisions(cached) == (0, 0, 0)

    def test_an_answer_carries_no_running_total(self):
        _, cached = _paired_engines()
        answers = [cached.search("Make = 'Honda'", 3, algorithm)
                   for algorithm in ("probe", "probe", AUTO, AUTO)]
        answers.append(cached.lookup("Make = 'Honda'", 3)[0])
        answers += [cached.search_page("Make = 'Honda'", 2, page=2)
                    for _ in range(2)]
        for answer in answers:
            assert [key for key in answer.stats if key.startswith("cache_")] \
                == ["cache_hit"]
        assert [answer.stats["cache_hit"] for answer in answers] \
            == [0, 1, 0, 1, 1, 0, 1]


class TestCacheStats:
    def test_hit_ratio(self):
        stats = CacheStats()
        assert stats.hit_ratio == 0.0
        stats.hits, stats.misses = 3, 1
        assert stats.hit_ratio == 0.75
        assert stats.lookups == 4

    def test_clear_keeps_counters(self):
        _, cached = _paired_engines()
        cached.search("Make = 'Honda'", k=3)
        cached.cache.clear()
        result = cached.search("Make = 'Honda'", k=3)
        assert result.stats["cache_hit"] == 0
        assert cached.stats.misses == 2


def _deployments(relation, tmp_path):
    """The same rows served three ways, each behind a serving cache."""
    plain, sharded, durable = (
        Relation.from_rows(relation.schema, iter(relation)) for _ in range(3))
    yield "unsharded", ServingEngine(
        DiversityEngine.from_relation(plain, RANDOM_ORDERING),
        ServingCache(result_capacity=64))
    yield "2x2", ServingEngine.from_relation(
        sharded, RANDOM_ORDERING, shards=2, replicas=2, result_capacity=64)
    yield "durable", ServingEngine.from_relation(
        durable, RANDOM_ORDERING, data_dir=tmp_path / "store",
        result_capacity=64)


@pytest.mark.parametrize("algorithm", ALGORITHMS + (AUTO,))
@pytest.mark.parametrize("scored", [False, True])
def test_cached_engine_identical_under_mutations(algorithm, scored, tmp_path):
    """Property: interleaving insert/delete/search, every cached answer is
    bit-identical to a from-scratch run, past the caches, of the algorithm
    it reports (``algorithm_selected`` for ``auto``) — for every
    algorithm, scored and unscored, unsharded, 2 shards x 2 replicas and
    durable.  Some hits must come from entries stored before a write."""
    seeded = random.Random(f"20080:{algorithm}:{scored}")  # hash-seed independent
    relation = random_relation(seeded, max_rows=30)
    for name, cached in _deployments(relation, tmp_path):
        rng = random.Random(f"20080:{algorithm}:{scored}:ops")
        plain = cached.engine
        live_rids = [rid for rid, _ in plain.relation.iter_live()]
        recent_queries = []
        stored_at = {}  # result-cache key -> epoch the entry was computed at
        hits_after_writes = 0
        for _ in range(60):
            action = rng.random()
            if action < 0.12:
                row = (
                    rng.choice(MAKES),
                    rng.choice(MODELS),
                    rng.choice(COLORS),
                    " ".join(rng.sample(WORDS, rng.randint(1, 3))),
                )
                live_rids.append(cached.insert(row))
            elif action < 0.18 and live_rids:
                cached.delete(live_rids.pop(rng.randrange(len(live_rids))))
            else:
                # Re-ask recent (query, k) pairs often so the cache gets hits.
                if recent_queries and rng.random() < 0.6:
                    query, k = rng.choice(recent_queries)
                else:
                    query = random_query(rng, weighted=scored)
                    k = rng.randint(0, 8)
                    recent_queries.append((query, k))
                actual = cached.search(query, k, algorithm=algorithm, scored=scored)
                ran = actual.stats.get("algorithm_selected", algorithm)
                expected = plain.search(query, k, algorithm=ran, scored=scored)
                assert _answers(actual) == _answers(expected), (
                    f"{name}: cached answers diverged for {query!r} (k={k}, "
                    f"algorithm={algorithm}, scored={scored})"
                )
                key = (to_query_string(query if scored else normalise(query)), k)
                if not actual.stats["cache_hit"]:
                    stored_at[key] = cached.epoch
                elif stored_at[key] < cached.epoch:
                    hits_after_writes += 1
        # The interleave must have exercised the cache across writes.
        assert cached.cache.stats.hits > 0, name
        assert hits_after_writes > 0, name
        cached.close()


class TestServingEngine:
    def test_threaded_searches_count_every_lookup_once(self):
        """Searches from several threads must still account for every
        query exactly once: hits + misses == len(queries), and the result
        payloads equal a sequential run's."""
        relation = figure1_relation()
        workload = WorkloadGenerator(
            relation,
            WorkloadSpec(queries=60, predicates=1, distinct=6, zipf_s=1.0, seed=11),
        ).materialise()
        sequential = ServingEngine.from_relation(relation, figure1_ordering())
        threaded = ServingEngine.from_relation(figure1_relation(), figure1_ordering())
        seq = [sequential.search(query, k=4) for query in workload]
        with ThreadPoolExecutor(max_workers=4) as pool:
            thr = list(pool.map(lambda query: threaded.search(query, k=4), workload))
        for serving in (sequential, threaded):
            stats = serving.cache.stats_snapshot()
            assert stats.hits + stats.misses == len(workload)
        # Concurrent misses of one query may each compute (benign): the
        # threaded run can only trade hits for misses, never lose lookups.
        assert threaded.stats.misses >= sequential.stats.misses
        assert [_answers(a) for a in thr] == [_answers(b) for b in seq]

    def test_from_relation_sharded_wiring(self):
        """shards>1 builds a ShardedEngine under the serving facade; the
        caches key on the summed epoch and answers match shards=1."""
        from repro.sharding import ShardedEngine

        flat = ServingEngine.from_relation(figure1_relation(), figure1_ordering())
        sharded = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=3, workers=2
        )
        assert isinstance(sharded.engine, ShardedEngine)
        assert sharded.engine.num_shards == 3
        for algorithm in ALGORITHMS:
            a = flat.search("Make = 'Honda'", k=5, algorithm=algorithm)
            b = sharded.search("Make = 'Honda'", k=5, algorithm=algorithm)
            assert _answers(a) == _answers(b)
        # Repeat hits the sharded engine's cache...
        assert sharded.search("Make = 'Honda'", k=5).stats["cache_hit"] == 1
        # ...and a routed mutation (one shard's epoch) invalidates it.
        rid = sharded.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
        assert sharded.epoch == 1
        after = sharded.search("Make = 'Honda'", k=5)
        assert after.stats["cache_hit"] == 0
        assert sharded.delete(rid)
        assert sharded.epoch == 2

    def test_delegation_and_epoch(self):
        serving = ServingEngine.from_relation(figure1_relation(), figure1_ordering())
        assert serving.epoch == 0
        rid = serving.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
        assert serving.epoch == 1
        assert serving.delete(rid)
        assert serving.epoch == 2
        assert not hasattr(serving.engine, "cache")  # the engine holds none

    def test_clear_cache(self):
        serving = ServingEngine.from_relation(figure1_relation(), figure1_ordering())
        serving.search("Make = 'Honda'", k=3)
        serving.clear_cache()
        assert serving.search("Make = 'Honda'", k=3).stats["cache_hit"] == 0


class TestEngineFacadeHooks:
    def test_prepare_execute_round_trip(self, cars_engine):
        plan = cars_engine.prepare("Make = 'Honda' AND Color = 'Green'")
        direct = cars_engine.execute(plan, 3)
        assert _answers(direct) == _answers(
            cars_engine.search("Make = 'Honda' AND Color = 'Green'", 3)
        )

    def test_wrapping_leaves_engine_uncached(self, cars_engine):
        """The serving layer owns the cache: fronting an engine changes
        nothing for the engine's other holders."""
        cache = ServingCache()
        serving = ServingEngine(cars_engine, cache)
        serving.search("Make = 'Honda'", k=2)
        assert serving.search("Make = 'Honda'", k=2).stats["cache_hit"] == 1
        assert cache.stats.hits == 1
        for _ in range(2):
            bare = cars_engine.search("Make = 'Honda'", k=2)
            assert "cache_hit" not in bare.stats
        assert serving.engine is cars_engine
        assert cache.stats.hits == 1  # the bare calls never reached it

    def test_index_epoch_counts_mutations(self, cars_engine):
        assert cars_engine.epoch == 0
        rid = cars_engine.insert(("Honda", "Fit", "Green", 2008, "hatchback"))
        assert cars_engine.epoch == 1
        cars_engine.delete(rid)
        assert cars_engine.epoch == 2
        # A failed delete is not a mutation.
        assert not cars_engine.delete(rid)
        assert cars_engine.epoch == 2
