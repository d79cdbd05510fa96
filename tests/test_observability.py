"""Tests for the observability layer and its cross-layer bugfix satellites.

Four clusters:

* the metrics primitives (counters, gauges, histogram quantiles, labels,
  disabled registries, Prometheus rendering, collectors) and spans;
* the paper bounds as *runtime* assertions — every probe query's exported
  probe count stays within Theorem 2's ``2k`` (+1 positioning probe) and
  every one-pass query completes in a single scan, across the paper
  example, random relations, sharded execution and chaos/degraded runs;
* the serving-cache accounting fix (an epoch-invalidated entry is one
  miss and one eviction, exactly once, thread-safe);
* the resilience fixes (an open breaker ignores stale failures instead of
  resetting its cooldown; ``prepare`` never hammers a shard whose breaker
  is open; retry backoff cannot grant a post-deadline attempt).
"""

from __future__ import annotations

import json
import math
import random
import threading

import pytest

from faults.chaos import ChaosPolicy, inject
from repro import DiversityEngine, ServingCache, ServingEngine
from repro.__main__ import main
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.durability.wal import WriteAheadLog, insert_record
from repro.observability import (
    FakeClock,
    MetricsRegistry,
    current_span,
    get_registry,
    probe_bound,
    span,
    use_registry,
)
from repro.resilience import (
    CircuitBreaker,
    DeadlineExceededError,
    ResiliencePolicy,
    TransientShardError,
)
from repro.sharding import ShardedEngine

from .conftest import RANDOM_ORDERING, random_query, random_relation


# ----------------------------------------------------------------------
# Metrics primitives
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_is_cached_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", shard=0)
        b = registry.counter("reqs", shard=0)
        c = registry.counter("reqs", shard=1)
        assert a is b
        assert a is not c
        a.inc()
        a.inc(2)
        assert registry.value("reqs", shard=0) == 3
        assert registry.value("reqs", shard=1) == 0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_max_is_a_running_maximum(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5
        gauge.set_max(9)
        assert gauge.value == 9

    def test_histogram_summary_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 4.0, math.inf))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(6.5)
        assert summary["min"] == 0.5
        assert summary["max"] == 3.0
        # p50 lands in the (1, 2] bucket; interpolation stays inside it.
        assert 1.0 <= summary["p50"] <= 2.0
        assert 2.0 <= summary["p99"] <= 4.0

    def test_histogram_summary_is_one_consistent_read(self):
        """``summary`` reads every moment under one lock acquisition: with
        writers observing 1.0 throughout, each summary has sum == count."""
        import sys

        hist = MetricsRegistry().histogram("h")
        done = threading.Event()

        def spin():
            while not done.is_set():
                hist.observe(1.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writers = [threading.Thread(target=spin) for _ in range(4)]
        try:
            for writer in writers:
                writer.start()
            summaries = [hist.summary() for _ in range(10_000)]
        finally:
            done.set()
            for writer in writers:
                writer.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        torn = [s for s in summaries if s["count"] and s["sum"] != s["count"]]
        assert torn == []
        assert summaries[-1]["count"] > 0

    def test_histogram_appends_inf_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        assert hist.buckets[-1] == math.inf
        hist.observe(100.0)
        assert hist.count == 1

    def test_empty_histogram_quantile_is_nan(self):
        hist = MetricsRegistry().histogram("h")
        assert math.isnan(hist.quantile(0.5))
        assert hist.summary() == {"count": 0, "sum": 0.0}

    def test_disabled_registry_noops(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("c").inc()
        registry.gauge("g").set(4)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == []
        assert snapshot["gauges"] == []
        assert snapshot["histograms"] == []

    def test_use_registry_swaps_and_restores_default(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry is not before
            get_registry().counter("inside").inc()
            assert registry.value("inside") == 1
        assert get_registry() is before
        assert before.find("inside") is None

    def test_snapshot_schema(self):
        with use_registry() as registry:
            registry.counter("c", "a counter", kind="x").inc(2)
            registry.gauge("g").set(1.5)
            registry.histogram("h").observe(3.0)
            document = registry.snapshot()
        assert document["format"] == "repro-metrics"
        assert document["version"] == 1
        assert {"name": "c", "labels": {"kind": "x"}, "value": 2.0} in document["counters"]
        assert document["histograms"][0]["count"] == 1
        json.dumps(document)  # must be JSON-able as-is

    def test_render_prometheus(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", "requests", mode="fast").inc(3)
        registry.histogram("lat_ms", buckets=(1.0, math.inf)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP reqs_total requests" in text
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{mode="fast"} 3' in text
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 1' in text
        assert "lat_ms_count 1" in text

    def test_collectors_run_at_export_time(self):
        registry = MetricsRegistry()
        state = {"depth": 7}
        registry.register_collector(
            lambda: registry.gauge("depth").set(state["depth"])
        )
        assert registry.value("depth") == 0
        registry.snapshot()
        assert registry.value("depth") == 7
        state["depth"] = 9
        registry.render_prometheus()
        assert registry.value("depth") == 9

    def test_counter_exact_under_threads(self):
        counter = MetricsRegistry().counter("hot")

        def spin():
            for _ in range(5000):
                counter.inc()

        workers = [threading.Thread(target=spin) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == 20000

    def test_query_bundle_exact_under_threads(self):
        """``record_query_metrics`` queues one record per query and reads
        fold them: no update is lost while a reader folds concurrently
        with the appenders, and a direct ``inc`` on a counter the fold
        also updates does not race it."""
        import sys

        from repro.observability import record_query_metrics

        registry = MetricsRegistry()
        stats = {"next_calls": 3, "scored_next_calls": 0, "rows_touched": 2,
                 "probe_calls": 3, "probe_bound": 21}
        done = threading.Event()

        def spin(scored):
            for _ in range(2000):
                record_query_metrics(registry, "probe", scored, 10, stats, 0.0)
            for _ in range(500):
                registry.counter("repro_queries_total", algorithm="probe",
                                 mode="unscored").inc()

        def read():
            while not done.is_set():
                registry.snapshot()
                registry.render_prometheus()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read)
        try:
            workers = [threading.Thread(target=spin, args=(n % 2 == 0,))
                       for n in range(6)]
            reader.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not reader.is_alive()
        assert registry.value("repro_queries_total", algorithm="probe",
                              mode="unscored") == 3 * 2000 + 6 * 500
        assert registry.value("repro_index_next_calls_total",
                              algorithm="probe") == 6 * 2000 * 3
        assert registry.find("repro_query_ms", algorithm="probe").count == 12000
        assert registry.find("repro_probe_calls", mode="scored").count == 6000
        assert registry.value("repro_probe_max_calls") == 3.0


class TestSpans:
    def test_span_times_with_injected_clock(self):
        clock = FakeClock()
        with use_registry() as registry:
            with span("stage", clock=clock, k=3):
                clock.advance_ms(40)
        record = registry.spans[-1]
        assert record.name == "stage"
        assert record.duration_ms == pytest.approx(40.0)
        assert record.status == "ok"
        assert record.fields == {"k": 3}
        hist = registry.find("repro_span_duration_ms", span="stage")
        assert hist.count == 1

    def test_span_nesting_records_parent(self):
        with use_registry() as registry:
            with span("outer"):
                assert current_span().name == "outer"
                with span("inner"):
                    assert current_span().name == "inner"
            assert current_span() is None
        names = {record.name: record for record in registry.spans}
        assert names["inner"].parent == "outer"
        assert names["outer"].parent is None

    def test_span_error_status(self):
        with use_registry() as registry:
            with pytest.raises(RuntimeError):
                with span("broken"):
                    raise RuntimeError("boom")
        record = registry.spans[-1]
        assert record.status == "error"
        assert record.fields["error"] == "RuntimeError"
        assert registry.value("repro_span_errors_total", span="broken") == 1

    def test_span_on_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        with span("quiet", registry=registry):
            pass
        assert len(registry.spans) == 0

    def test_fake_clock(self):
        clock = FakeClock(start=2.0)
        assert clock() == 2.0
        clock.sleep(0.5)
        assert clock() == 2.5
        with pytest.raises(ValueError):
            clock.advance(-1)


# ----------------------------------------------------------------------
# Paper bounds as runtime metrics (satellite: probe/one-pass accounting)
# ----------------------------------------------------------------------
PAPER_QUERIES = [
    "Make = 'Honda'",
    "Make = 'Toyota'",
    "Model = 'Civic' OR Color = 'Blue'",
    "Make = 'Honda' AND Description CONTAINS 'miles'",
]


def _assert_bounds_clean(registry):
    """The two must-stay-zero violation counters, plus gauge coherence."""
    assert registry.value("repro_probe_bound_violations_total") == 0
    for mode in ("unscored", "scored"):
        assert registry.value(
            "repro_onepass_scan_violations_total", mode=mode) == 0
    max_calls = registry.value("repro_probe_max_calls")
    max_bound = registry.value("repro_probe_max_bound")
    if max_bound:
        assert max_calls <= max_bound


class TestPaperBoundsAtRuntime:
    def test_probe_bound_on_paper_example(self, cars_engine):
        with use_registry() as registry:
            runs = 0
            for query in PAPER_QUERIES:
                for k in (1, 2, 3, 6):
                    result = cars_engine.search(query, k, algorithm="probe")
                    assert result.stats["probe_calls"] <= probe_bound(k)
                    assert result.stats["probe_bound"] == probe_bound(k)
                    runs += 1
            hist = registry.find("repro_probe_calls", mode="unscored")
            assert hist.count == runs
            assert registry.value(
                "repro_queries_total", algorithm="probe", mode="unscored"
            ) == runs
            _assert_bounds_clean(registry)

    def test_onepass_single_scan_on_paper_example(self, cars_engine):
        with use_registry() as registry:
            skips = 0
            for query in PAPER_QUERIES:
                for k in (1, 2, 3):
                    result = cars_engine.search(query, k, algorithm="onepass")
                    assert result.stats["scan_passes"] == 1
                    skips += result.stats["skips"]
            # The exported total is exactly the sum of per-query stats.
            assert registry.value(
                "repro_onepass_skips_total", mode="unscored") == skips
            assert registry.value(
                "repro_onepass_queries_total", mode="unscored") == 12
            _assert_bounds_clean(registry)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_on_random_relations(self, seed):
        rng = random.Random(seed)
        relation = random_relation(rng, max_rows=45)
        engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        with use_registry() as registry:
            for _ in range(8):
                query = random_query(rng)
                k = rng.randint(1, 6)
                probe = engine.search(query, k, algorithm="probe")
                assert probe.stats["probe_calls"] <= probe_bound(k)
                onepass = engine.search(query, k, algorithm="onepass")
                assert onepass.stats["scan_passes"] == 1
                scored = engine.search(query, k, algorithm="onepass", scored=True)
                assert scored.stats["scan_passes"] == 1
            _assert_bounds_clean(registry)

    def test_bounds_on_sharded_execution(self, cars):
        with use_registry() as registry:
            with ShardedEngine.from_relation(
                cars, figure1_ordering(), shards=3
            ) as engine:
                for query in PAPER_QUERIES:
                    probe = engine.search(query, 3, algorithm="probe")
                    assert probe.stats["probe_calls"] <= probe_bound(3)
                    onepass = engine.search(query, 3, algorithm="onepass")
                    assert onepass.stats["scan_passes"] == 1
            _assert_bounds_clean(registry)

    def test_bounds_hold_under_transient_chaos(self, cars):
        # Per-read successes are not reported to the breakers mid-scan, so
        # a low min_calls could open a circuit from transient noise alone;
        # park the breakers out of the way — this test is about bounds.
        policy = ResiliencePolicy(max_retries=10, breaker_min_calls=1000, seed=7)
        with use_registry() as registry:
            with ShardedEngine.from_relation(
                cars, figure1_ordering(), shards=3, policy=policy
            ) as engine:
                inject(engine, ChaosPolicy.transient(0.25, seed=3))
                for query in PAPER_QUERIES:
                    result = engine.search(query, 4, algorithm="probe")
                    assert result.stats["probe_calls"] <= probe_bound(4)
            # The retried reads re-issue the *failed* probe only, so the
            # accounting stays within the Theorem 2 budget.
            assert registry.value("repro_retries_total", phase="scan") > 0
            _assert_bounds_clean(registry)

    def test_bounds_hold_on_degraded_scatter_gather(self, cars):
        # Default breaker thresholds: one prepare-phase hard failure must
        # not open the circuit, so the execute fan-out still reaches the
        # crashed shard and records the per-query "crashed" loss.
        policy = ResiliencePolicy(max_retries=0)
        with use_registry() as registry:
            with ShardedEngine.from_relation(
                cars, figure1_ordering(), shards=3, policy=policy
            ) as engine:
                inject(engine, ChaosPolicy.crash_shards(1))
                result = engine.search("Make = 'Honda'", 3, algorithm="naive")
                assert result.stats["degraded"] is True
            assert registry.value("repro_degraded_queries_total") == 1
            assert registry.value(
                "repro_shards_failed_total", reason="crashed") >= 1
            _assert_bounds_clean(registry)


# ----------------------------------------------------------------------
# Satellite: serving-cache accounting
# ----------------------------------------------------------------------
class TestCacheAccounting:
    def test_epoch_invalidation_is_one_miss_and_one_eviction(self, cars):
        serving = ServingEngine(
            DiversityEngine.from_relation(cars, figure1_ordering()),
            cache=ServingCache(),
        )
        query = "Make = 'Honda'"
        serving.search(query, 3)                      # miss, cached
        serving.search(query, 3)                      # hit
        serving.insert(("Honda", "Fit", "Silver", 2007, "Tiny"))  # epoch bump
        serving.search(query, 3)                      # invalidated -> miss
        stats = serving.cache.stats_snapshot()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.epoch_invalidations == 1
        assert stats.evictions == 1                   # exactly once, not twice
        serving.close()

    def test_lru_and_invalidation_drops_never_double_count(self, cars):
        serving = ServingEngine(
            DiversityEngine.from_relation(cars, figure1_ordering()),
            cache=ServingCache(result_capacity=1),
        )
        queries = ["Make = 'Honda'", "Make = 'Toyota'"]
        for round_ in range(3):
            for query in queries:                     # capacity 1: LRU churn
                serving.search(query, 2)
            serving.insert(("Kia", "Rio", "Red", 2007, f"round {round_}"))
        stats = serving.cache.stats_snapshot()
        cache = serving.cache
        assert stats.evictions == (
            cache.results.evictions + cache.results.invalidations
        )
        assert stats.lookups == stats.hits + stats.misses == 6
        serving.close()

    def test_threaded_search_counters_are_exact(self, cars):
        serving = ServingEngine(
            DiversityEngine.from_relation(cars, figure1_ordering())
        )
        queries = PAPER_QUERIES * 6
        before = serving.cache.stats_snapshot()
        threads = [
            threading.Thread(target=lambda part=queries[offset::4]: [
                serving.search(query, k=3) for query in part])
            for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
        after = serving.cache.stats_snapshot()
        # Every query is exactly one lookup: no lost or torn increments.
        assert after.lookups - before.lookups == len(queries)
        serving.close()

    def test_cache_collector_exports_gauges(self, cars):
        with use_registry() as registry:
            serving = ServingEngine(
                DiversityEngine.from_relation(cars, figure1_ordering())
            )
            serving.search("Make = 'Honda'", 3)
            serving.search("Make = 'Honda'", 3)
            snapshot = registry.snapshot()
            gauges = {
                (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
                for g in snapshot["gauges"]
            }
            assert gauges[("repro_cache_hits", ())] == 1
            assert gauges[("repro_cache_misses", ())] == 1
            assert gauges[("repro_cache_entries", (("kind", "results"),))] == 1
            helps = {
                name: text
                for _, _, name, text in (
                    line.split(" ", 3)
                    for line in registry.render_prometheus().splitlines()
                    if line.startswith("# HELP repro_cache_"))
            }
            assert helps == {
                "repro_cache_hits": "Result-cache hits",
                "repro_cache_misses": "Result-cache misses",
                "repro_cache_evictions":
                    "Entries dropped (LRU pressure + epoch invalidation)",
                "repro_cache_epoch_invalidations":
                    "Entries dropped: a write touched them or went unrecorded",
                "repro_cache_plan_hits": "Plan-cache hits",
                "repro_cache_plan_misses": "Plan-cache misses",
                "repro_cache_plan_revalidations":
                    "Plans re-ordered before running at a newer epoch",
                "repro_cache_decision_hits":
                    "auto decisions served from the plan cache",
                "repro_cache_decision_misses": "auto decisions computed fresh",
                "repro_cache_decision_replans":
                    "auto decisions recomputed after an epoch change",
                "repro_cache_entries": "Live cache entries",
            }
            assert {name for name, labels in gauges
                    if name.startswith("repro_cache_") and not labels} \
                == set(helps) - {"repro_cache_entries"}
            serving.close()
            # After close the collector is unhooked: exports keep working.
            registry.snapshot()

    def test_close_flushes_terminal_cache_stats(self, cars):
        # No export happens while the engine is open; close() must still
        # materialise the lifetime cache stats before unhooking.
        with use_registry() as registry:
            serving = ServingEngine(
                DiversityEngine.from_relation(cars, figure1_ordering())
            )
            serving.search("Make = 'Honda'", 3)
            serving.search("Make = 'Honda'", 3)
            serving.close()
            gauges = {
                g["name"]: g["value"] for g in registry.snapshot()["gauges"]
            }
            assert gauges["repro_cache_hits"] == 1
            assert gauges["repro_cache_misses"] == 1


# ----------------------------------------------------------------------
# Posting-list memory gauges (compressed-backend tentpole)
# ----------------------------------------------------------------------
class TestPostingsCollector:
    def _build(self, cars, backend):
        from repro.index.inverted import InvertedIndex

        return InvertedIndex.build(cars, figure1_ordering(), backend=backend)

    def test_gauges_in_snapshot_and_prometheus(self, cars):
        from repro.observability import register_postings_collector

        with use_registry() as registry:
            index = self._build(cars, "compressed")
            pinned = register_postings_collector(registry, index)
            assert pinned is not None
            stats = index.memory_stats()
            label = (("backend", "compressed"),)
            gauges = {
                (g["name"], tuple(sorted(g["labels"].items()))): g["value"]
                for g in registry.snapshot()["gauges"]
            }
            assert gauges[("repro_postings_bytes", label)] == stats["bytes"]
            assert gauges[("repro_postings_count", label)] == stats["postings"]
            assert gauges[("repro_postings_lists", label)] == stats["lists"]
            text = registry.render_prometheus()
            assert 'repro_postings_bytes{backend="compressed"}' in text
            assert "# TYPE repro_postings_bytes gauge" in text

    def test_gauges_track_mutations(self, cars):
        from repro.observability import register_postings_collector

        with use_registry() as registry:
            index = self._build(cars, "array")
            register_postings_collector(registry, index)
            before = registry.snapshot()
            bytes_before = registry.value("repro_postings_bytes", backend="array")
            count_before = registry.value("repro_postings_count", backend="array")
            rid = index.relation.insert(
                ("Honda", "Civic", "Black", 2009, "loaded clean")
            )
            index.insert(rid)
            registry.snapshot()
            assert before is not None
            assert registry.value(
                "repro_postings_count", backend="array"
            ) > count_before
            assert registry.value(
                "repro_postings_bytes", backend="array"
            ) > bytes_before

    def test_collector_unhooks_after_index_is_collected(self, cars):
        import gc

        from repro.observability import register_postings_collector

        with use_registry() as registry:
            index = self._build(cars, "compressed")
            register_postings_collector(registry, index)
            registry.snapshot()
            del index
            gc.collect()
            # Export after collection must not raise and must self-unhook.
            registry.snapshot()
            registry.snapshot()

    def test_disabled_registry_returns_none(self, cars):
        from repro.observability import register_postings_collector

        index = self._build(cars, "array")
        assert register_postings_collector(
            MetricsRegistry(enabled=False), index
        ) is None
        assert register_postings_collector(None, index) is None


# ----------------------------------------------------------------------
# Satellite: circuit-breaker fixes
# ----------------------------------------------------------------------
class TestBreakerFixes:
    def test_failures_while_open_do_not_reset_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=0.5, window=4, min_calls=2,
                                 cooldown_ms=100.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        # Stale outcomes keep arriving mid-cooldown (calls admitted before
        # the trip).  They must neither re-trip nor restart the countdown.
        clock.advance_ms(60)
        for _ in range(5):
            breaker.record_failure()
        assert breaker.opens == 1
        clock.advance_ms(50)          # 110ms since the (only) trip
        assert breaker.state == "half_open"

    def test_breaker_transition_metrics(self):
        clock = FakeClock()
        with use_registry() as registry:
            breaker = CircuitBreaker(min_calls=1, threshold=1.0,
                                     cooldown_ms=10.0, clock=clock)
            breaker.record_failure()
            assert registry.value(
                "repro_breaker_transitions_total", to="open") == 1
            clock.advance_ms(20)
            assert breaker.state == "half_open"
            assert registry.value(
                "repro_breaker_transitions_total", to="half_open") == 1
            assert breaker.allow()
            breaker.record_success()
            assert registry.value(
                "repro_breaker_transitions_total", to="closed") == 1

    def test_prepare_does_not_hammer_an_open_shard(self, cars):
        policy = ResiliencePolicy(max_retries=0, breaker_min_calls=1,
                                  breaker_threshold=1.0,
                                  breaker_cooldown_ms=60_000.0)
        with use_registry() as registry:
            with ShardedEngine.from_relation(
                cars, figure1_ordering(), shards=3, policy=policy
            ) as engine:
                inject(engine, ChaosPolicy.crash_shards(0))
                # No routing conjunct: the gather must read the dead shard.
                first = engine.search("Color = 'Blue'", 3, algorithm="naive")
                assert first.stats["degraded"] is True
                assert engine.health.open_shards() == [0]
                hard_after_first = engine.health[0].hard_failures
                opens_after_first = engine.health.breakers[0].opens

                for _ in range(4):
                    result = engine.search(
                        "Color = 'Blue'", 3, algorithm="naive")
                    assert result.stats["degraded"] is True
                # The open breaker short-circuits both phases: no fresh
                # hard failures are charged, the circuit is not re-tripped,
                # and the fan-out records skips instead of calls.
                assert engine.health[0].hard_failures == hard_after_first
                assert engine.health.breakers[0].opens == opens_after_first
                assert engine.health[0].skipped_open >= 4
            assert registry.value(
                "repro_plan_degraded_total", reason="circuit open") >= 4


# ----------------------------------------------------------------------
# Satellite: one clock, no deadline drift
# ----------------------------------------------------------------------
class TestClockHygiene:
    def test_backoff_cannot_grant_a_post_deadline_attempt(self, cars):
        clock = FakeClock()
        policy = ResiliencePolicy(deadline_ms=50.0, max_retries=5,
                                  backoff_base_ms=200.0, jitter=0.0)
        engine = ShardedEngine.from_relation(
            cars, figure1_ordering(), shards=2, policy=policy,
            clock=clock, sleep=clock.sleep,
        )
        calls = []

        def flaky():
            calls.append(clock())
            raise TransientShardError(0, "read")

        with pytest.raises(DeadlineExceededError):
            engine._run_with_retries(flaky, engine._deadline())
        # The 200ms backoff was clamped to the 50ms budget; sleeping it
        # consumed the whole deadline, so no second attempt may run.
        assert len(calls) == 1
        assert clock() == pytest.approx(0.05)
        engine.close()

    def test_engine_deadline_uses_injected_clock(self, cars):
        clock = FakeClock()
        policy = ResiliencePolicy(deadline_ms=100.0)
        engine = ShardedEngine.from_relation(
            cars, figure1_ordering(), shards=2, policy=policy,
            clock=clock, sleep=clock.sleep,
        )
        deadline = engine._deadline()
        assert deadline.remaining_ms() == 100.0
        clock.advance_ms(60)
        assert deadline.remaining_ms() == pytest.approx(40.0)
        clock.advance_ms(60)
        assert deadline.expired()
        engine.close()


# ----------------------------------------------------------------------
# Durability instrumentation
# ----------------------------------------------------------------------
class TestDurabilityMetrics:
    def test_wal_counters(self, tmp_path):
        with use_registry() as registry:
            wal = WriteAheadLog.create(tmp_path / "wal.log", fsync_every=0)
            for seq in range(3):
                wal.append(insert_record(seq + 1, seq, ("a",), (0, 0)))
            wal.sync()
            wal.truncate()
            wal.close()
            assert registry.value("repro_wal_appends_total") == 3
            assert registry.value("repro_wal_bytes_appended_total") == wal.bytes_appended
            assert registry.value("repro_wal_syncs_total") == 1
            assert registry.value("repro_wal_truncates_total") == 1
            assert registry.find("repro_wal_sync_ms").count == 1


# ----------------------------------------------------------------------
# CLI export
# ----------------------------------------------------------------------
class TestMetricsCLI:
    def test_metrics_subcommand_check_passes_on_demo(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["metrics", "--repeat", "1", "--limit", "4",
                     "--out", str(out), "--check"])
        assert code == 0
        assert "bounds ok" in capsys.readouterr().err
        document = json.loads(out.read_text())
        assert document["format"] == "repro-metrics"
        names = {entry["name"] for entry in document["counters"]}
        assert "repro_queries_total" in names
        gauge_names = {entry["name"] for entry in document["gauges"]}
        assert "repro_probe_max_calls" in gauge_names

    def test_metrics_subcommand_prometheus_format(self, capsys):
        code = main(["metrics", "--repeat", "1", "--limit", "2",
                     "--format", "prometheus"])
        assert code == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in text

    def test_query_metrics_out_flag(self, tmp_path, capsys):
        from repro.storage.csvio import write_csv

        csv_path = tmp_path / "cars.csv"
        write_csv(figure1_relation(), csv_path)
        out = tmp_path / "cars.idx"
        assert main(["build", str(csv_path),
                     "--ordering", "Make,Model,Color,Year,Description",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        metrics_out = tmp_path / "query-metrics.json"
        assert main(["query", str(out), "Make = 'Honda'", "-k", "3",
                     "--metrics-out", str(metrics_out)]) == 0
        document = json.loads(metrics_out.read_text())
        assert document["format"] == "repro-metrics"
        assert any(entry["name"] == "repro_queries_total"
                   for entry in document["counters"])
