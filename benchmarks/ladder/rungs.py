"""The traced run: per-layer metrics, timed from outside the program.

Three phases, all on the workload's own seeded operations:

A. **The workload itself**, on its own deployment, one span per operation.
   Gives the tracing overhead and the counters that only exist under the
   workload's real traffic (cache hit ratio, evictions, planner choices,
   failovers, non-200 replies, checkpoint stalls).
B. **The ladder**: the first ``ladder_reads`` reads and ``LADDER_WRITES``
   writes replayed rung by rung, each rung one more layer of the stack over
   the same rows, one span per call.  A rung's span minus its parent's is
   that layer's self time on this workload's queries::

       index.next -> core.run_algorithm -> core.execute -> core.search
         -> serving.miss -+-> sharding.x1 -> sharding.x4 -> replication.r2
                          +-> durability.read
                          +-> server.http
       (serving.hit hangs off serving.miss)

C. **The grid**: every algorithm variant, and every sharding/replication
   comparison, on the first ``GRID_QUERIES`` distinct queries, plus the
   posting-list micro-measurements.

Spans are kept in memory and written once at exit (``--spans-out``), each
with the calibration factor of its moment (``scale``; see ``harness``):
``(end_ns - start_ns) * scale`` is the calibrated time every metric here is
computed from.  End-to-end numbers never come from this run.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import baselines
from repro.core.dewey import LEFT, RIGHT
from repro.core.engine import DiversityEngine, run_algorithm
from repro.core.onepass import one_pass_scored, one_pass_unscored
from repro.core.probing import probe_scored, probe_unscored
from repro.data.autos import autos_ordering
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.observability import MetricsRegistry, get_registry, use_registry
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.replication import ReplicaSet
from repro.serving import ServingEngine
from repro.sharding import ShardedEngine

import checks
import harness
from workloads import (
    INSERT,
    READ,
    HttpDeployment,
    Op,
    OpSource,
    Workload,
    clone_relation,
    create_durable,
)

LADDER_WRITES = 100
GRID_QUERIES = 40
SEEK_BOUNDS = 2000
HEALTHZ_CALLS = 200

now = time.perf_counter_ns

#: rung -> parent rung (the rung one layer below it)
PARENTS = {
    "index.next": None,
    "core.run_algorithm": "index.next",
    "core.execute": "core.run_algorithm",
    "core.search": "core.execute",
    "serving.miss": "core.search",
    "serving.hit": "serving.miss",
    "sharding.x1": "serving.miss",
    "sharding.x4": "sharding.x1",
    "replication.r2": "sharding.x4",
    "durability.read": "serving.miss",
    "server.http": "serving.miss",
    "core.write": None,
    "serving.write": "core.write",
    "sharding.write": "serving.write",
    "replication.write": "sharding.write",
    "durability.write": "serving.write",
}

#: (variant, algorithm, k, scored) of ``core.run_algorithm_ms.<variant>``
VARIANTS = (
    ("probe", "probe", 10, False),
    ("onepass", "onepass", 10, False),
    ("onepass-k50", "onepass", 50, False),
    ("naive", "naive", 10, False),
    ("basic", "basic", 10, False),
    ("probe-scored", "probe", 10, True),
    ("onepass-scored", "onepass", 10, True),
)

DRIVERS = {
    ("probe", False): probe_unscored,
    ("probe", True): probe_scored,
    ("onepass", False): one_pass_unscored,
    ("onepass", True): one_pass_scored,
    ("naive", False): baselines.naive_unscored,
    ("naive", True): baselines.naive_scored,
    ("basic", False): baselines.basic_unscored,
    ("basic", True): baselines.basic_scored,
}


class Tracer:
    """In-memory span list: one tuple per timed call."""

    def __init__(self, workload: str, clock: harness.MachineClock):
        self.workload = workload
        self.clock = clock
        self.spans: List[tuple] = []

    def span(self, op, started: int, ended: int) -> None:
        """A phase A span: one workload operation, end to end."""
        self.spans.append((len(self.spans), "workload.op", started, ended))

    def time(self, op_id: int, name: str, call: Callable, *args):
        """Run ``call`` as one span of rung ``name``."""
        self.clock.tick()
        started = now()
        result = call(*args)
        self.spans.append((op_id, name, started, now()))
        return result

    def durations(self, name: str) -> List[float]:
        """Calibrated nanoseconds of every span of one rung."""
        spans = [(started, ended - started)
                 for _, rung, started, ended in self.spans if rung == name]
        factors = self.clock.factors([started for started, _ in spans])
        return [raw * factor for (_, raw), factor in zip(spans, factors)]

    def dump(self, path: str) -> None:
        factors = self.clock.factors([span[2] for span in self.spans])
        Path(path).write_text(json.dumps([
            {"workload": self.workload, "op_id": op_id, "name": name,
             "parent": PARENTS.get(name), "start_ns": started, "end_ns": ended,
             "scale": round(factor, 4)}
            for (op_id, name, started, ended), factor
            in zip(self.spans, factors)]))


class RecordingMergedList:
    """Records every call an algorithm makes into the merged list, with its
    arguments, so the same calls can be replayed alone: that replay is the
    index layer's share of the query."""

    def __init__(self, merged: MergedList):
        self._merged = merged
        self.calls: List[tuple] = []
        self.skip_jumps = 0     # drivers bump this on the object they hold

    def __getattr__(self, name):
        return getattr(self._merged, name)

    def _record(name):
        def method(self, *args):
            self.calls.append((name, args))
            return getattr(self._merged, name)(*args)
        return method

    next = _record("next")
    first = _record("first")
    contains = _record("contains")
    score = _record("score")
    next_scored = _record("next_scored")
    next_onepass_scored = _record("next_onepass_scored")
    del _record

    def replayer(self, fresh: MergedList) -> Callable[[], None]:
        """The recorded calls, bound to ``fresh``, as one callable."""
        calls = [(getattr(fresh, name), args) for name, args in self.calls]

        def replay():
            for call, args in calls:
                call(*args)
        return replay


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: Sequence[float], denominator: Sequence[float]) -> float:
    if not numerator or not denominator:
        return 0.0
    return statistics.median(numerator) / statistics.median(denominator)


# ----------------------------------------------------------------------
# Phase A: the workload, traced
# ----------------------------------------------------------------------
def phase_workload(run: harness.WorkloadRun, seconds: float, tracer: Tracer,
                   metrics: Dict[str, tuple]) -> checks.Verdict:
    run.setup()
    deployment = run.deployment
    serving = deployment.serving
    cache_before = serving.cache.stats_snapshot() if serving else None
    hedges = get_registry().counter("repro_replica_hedges_total",
                                    outcome="fired")
    hedges_before = hedges.value
    run.warm_up(seconds)
    recorder = run.recorder
    budget = int(seconds / 2 * 1e9)
    busy = 0
    while busy < budget:
        busy += harness.run_ops(deployment, run.source.segment(run.scale),
                                recorder, run.clock, tracer)[0]
    # Recording a span costs ~0.1 us against operations of 5-25 000 us: far
    # below what two arms of noisy segments can resolve, so the overhead is
    # measured as what it is, the recording time over the time in the program.
    spans = len(tracer.spans)
    scratch = Tracer(tracer.workload, run.clock)
    started = now()
    for _ in range(spans):
        scratch.span(None, started, started)
    recording = now() - started
    metrics["bench.trace_overhead_ratio"] = (1.0 + recording / busy, "ratio")

    reads = sorted(recorder.latencies[READ])
    writes = sorted(recorder.latencies["write"])
    done = len(reads) + len(writes)
    metrics["bench.raw_qps"] = (done / (recorder.raw_busy_ns / 1e9), "1/s")
    metrics["bench.read_p50_ms"] = (harness.percentile(reads, 0.5) / 1e6, "ms")
    metrics["bench.write_p50_ms"] = (harness.percentile(writes, 0.5) / 1e6, "ms")
    metrics["bench.write_p99_ms"] = (
        harness.percentile(writes, harness.top_percentile(len(writes))) / 1e6,
        "ms")
    answered = max(1, sum(recorder.by_algorithm.values()))
    for algorithm in ("probe", "onepass", "naive"):
        metrics[f"planner.choice_share.{algorithm}"] = (
            recorder.by_algorithm.get(algorithm, 0) / answered, "ratio")
    metrics["core.probe_bound_violations"] = (recorder.probe_violations, "count")
    metrics["core.scan_violations"] = (recorder.scan_violations, "count")
    metrics["resilience.degraded_queries"] = (recorder.degraded, "count")
    metrics["server.non200"] = (recorder.non200, "count")

    if serving is not None:
        after = serving.cache.stats_snapshot()
        invalidated = after.epoch_invalidations - cache_before.epoch_invalidations
        lookups = (after.hits - cache_before.hits
                   + after.misses - cache_before.misses)
        plans = (after.plan_hits - cache_before.plan_hits
                 + after.plan_misses - cache_before.plan_misses
                 + after.plan_revalidations - cache_before.plan_revalidations)
        metrics["serving.hit_ratio"] = (
            (after.hits - cache_before.hits) / max(1, lookups), "ratio")
        metrics["serving.plan_hit_ratio"] = (
            (after.plan_hits - cache_before.plan_hits) / max(1, plans), "ratio")
        # CacheStats.evictions counts invalidated entries too; what is left
        # is capacity pressure alone.
        metrics["serving.evictions"] = (
            after.evictions - cache_before.evictions - invalidated, "count")
        metrics["serving.epoch_invalidations"] = (invalidated, "count")
    else:
        for name in ("hit_ratio", "plan_hit_ratio"):
            metrics[f"serving.{name}"] = (0.0, "ratio")
        for name in ("evictions", "epoch_invalidations"):
            metrics[f"serving.{name}"] = (0, "count")

    index = deployment.index
    metrics["replication.failovers"] = (
        sum(shard.failovers for shard in getattr(index, "shards", ())
            if isinstance(shard, ReplicaSet)), "count")
    metrics["replication.hedges_fired"] = (hedges.value - hedges_before, "count")
    health = getattr(serving.engine if serving else None, "health", None)
    metrics["resilience.retries"] = (
        sum(row["retries"] for row in health.snapshot()
            if row["replica_id"] is None) if health is not None else 0, "count")

    wal = getattr(index, "wal", None)
    if wal is not None and index.snapshots:
        # The write that trips a checkpoint carries its whole stall.
        stalls = writes[-index.snapshots:]
        metrics["durability.checkpoint_s"] = (
            statistics.median(stalls) / 1e9, "s")
    else:
        metrics["durability.checkpoint_s"] = (0.0, "s")
    metrics["durability.write_max_ms"] = (recorder.write_max_ns / 1e6, "ms")

    verdict = checks.verify(run)
    metrics["durability.lost_acked_writes"] = (verdict.lost_acked_writes, "count")
    metrics["bench.failed_share"] = (
        (recorder.failed + verdict.failed)
        / max(1, recorder.attempted + verdict.attempted), "ratio")
    metrics["bench.machine_slowdown"] = (run.clock.slowdown(), "ratio")
    return verdict


# ----------------------------------------------------------------------
# Phase B: the ladder
# ----------------------------------------------------------------------
class Ladder:
    """Every rung's deployment over its own copy of the same rows."""

    def __init__(self, run: harness.WorkloadRun, metrics: Dict[str, tuple]):
        self.run = run
        self.clock = clock = run.clock
        self.backend = backend = run.workload.backend
        ordering = autos_ordering()
        self.tmp = Path(tempfile.mkdtemp(prefix=".ladder-", dir=harness.ROOT))
        self.closers: List[Callable[[], None]] = [
            lambda: shutil.rmtree(self.tmp, ignore_errors=True)]

        def rows():
            return clone_relation(run.pristine)

        def timed_build(name: str, build: Callable):
            built, seconds = clock.timed(build)
            metrics[name] = (seconds, "s")
            return built

        self.index = timed_build(
            "index.build_s",
            lambda: InvertedIndex.build(rows(), ordering, backend=backend))
        self.build_s = metrics["index.build_s"][0]
        metrics["index.bytes_per_posting"] = (
            self.index.memory_stats()["bytes_per_posting"], "B")
        self.engine = DiversityEngine(self.index)
        # Each serving rung owns its index: attaching a cache to
        # ``self.engine`` would reroute the bare engine's searches.
        self.serving = self._own(ServingEngine.from_relation(
            rows(), ordering, backend=backend))
        self.x1 = self._own(ServingEngine(ShardedEngine.from_relation(
            rows(), ordering, shards=1, backend=backend)))
        x4 = timed_build(
            "sharding.build_s",
            lambda: ShardedEngine.from_relation(rows(), ordering, shards=4,
                                                backend=backend))
        self.x4 = self._own(ServingEngine(x4))
        r2 = ShardedEngine.from_relation(rows(), ordering, shards=4,
                                         backend=backend)
        timed_build("replication.bootstrap_s", lambda: r2.index.replicate(2))
        self.r2 = self._own(ServingEngine(r2))
        self.data_dir = str(self.tmp / "store")
        # first start = index build + store creation; keep the store's part
        self.durable = self._own(timed_build(
            "durability.create_store_s",
            lambda: create_durable(rows(), self.data_dir, backend=backend)))
        metrics["durability.create_store_s"] = (
            max(0.0, metrics["durability.create_store_s"][0] - self.build_s), "s")
        self.http_engine = self._own(ServingEngine.from_relation(
            rows(), ordering, backend=backend))

    def _own(self, engine):
        self.closers.append(engine.close)
        return engine

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()

    # -- reads ------------------------------------------------------------
    def replay_reads(self, ops: List[Op], tracer: Tracer,
                     metrics: Dict[str, tuple]) -> None:
        index, engine, clock = self.index, self.engine, self.clock
        parsed = [parse_query(op.text) for op in ops]
        prepared = [engine.prepare(query, op.scored)
                    for query, op in zip(parsed, ops)]
        decisions = [engine.plan(query, op.k, op.scored)
                     for query, op in zip(prepared, ops)]
        metrics["query.parse_us"] = (median(clock.series(
            functools.partial(parse_query, op.text) for op in ops)) / 1e3, "us")
        metrics["query.prepare_us"] = (median(clock.series(
            functools.partial(engine.prepare, query, op.scored)
            for query, op in zip(parsed, ops))) / 1e3, "us")
        metrics["planner.choose_us"] = (median(clock.series(
            functools.partial(engine.plan, query, op.k, op.scored)
            for query, op in zip(prepared, ops))) / 1e3, "us")
        plans = [
            (op, query,
             decision.algorithm if op.algorithm == "auto" else op.algorithm)
            for op, query, decision in zip(ops, prepared, decisions)]

        next_calls = scored_next_calls = 0
        for op_id, (op, query, algorithm) in enumerate(plans):
            recording = RecordingMergedList(MergedList(query, index))
            DRIVERS[algorithm, op.scored](recording, op.k)
            tracer.time(op_id, "index.next",
                        recording.replayer(MergedList(query, index)))
        for op_id, (op, query, algorithm) in enumerate(plans):
            stats = tracer.time(op_id, "core.run_algorithm", run_algorithm,
                                index, query, op.k, algorithm, op.scored)[2]
            next_calls += stats["next_calls"]
            scored_next_calls += stats["scored_next_calls"]
        for op_id, (op, query, algorithm) in enumerate(plans):
            tracer.time(op_id, "core.execute", engine.execute, query, op.k,
                        algorithm, op.scored)
        for op_id, op in enumerate(ops):
            tracer.time(op_id, "core.search", engine.search, op.text, op.k,
                        op.algorithm, op.scored)
        metrics["index.next_calls_per_query"] = (next_calls / len(ops), "count")
        metrics["index.scored_next_calls_per_query"] = (
            scored_next_calls / len(ops), "count")

        for name, serving in (("serving.miss", self.serving),
                              ("sharding.x1", self.x1),
                              ("sharding.x4", self.x4),
                              ("replication.r2", self.r2),
                              ("durability.read", self.durable)):
            for op_id, op in enumerate(ops):
                # A cold cache per call: every rung above core.search is
                # compared on the full miss path.
                serving.clear_cache()
                tracer.time(op_id, name, serving.search, op.text, op.k,
                            op.algorithm, op.scored)
                if name == "serving.miss":
                    tracer.time(op_id, "serving.hit", serving.search, op.text,
                                op.k, op.algorithm, op.scored)
        # The server lives only for its own rung: no server thread is
        # around when the grid forks worker processes.
        http, seconds = clock.timed(HttpDeployment, self.http_engine)
        metrics["server.start_s"] = (seconds, "s")
        try:
            non200 = 0
            for op_id, op in enumerate(ops):
                self.http_engine.clear_cache()
                status, _ = tracer.time(op_id, "server.http", http.search, op)
                non200 += status != 200
            healthz = clock.series(
                [functools.partial(http.get, "/healthz")] * HEALTHZ_CALLS)
        finally:
            http.connection.close()
            metrics["server.drain_s"] = (clock.timed(http.server.stop)[1], "s")
        metrics["server.non200"] = (metrics["server.non200"][0] + non200, "count")
        metrics["server.healthz_us"] = (median(healthz) / 1e3, "us")

        clock.sample()
        spans = {name: tracer.durations(name) for name in PARENTS}
        metrics["core.package_us"] = (
            (median(spans["core.execute"])
             - median(spans["core.run_algorithm"])) / 1e3, "us")
        metrics["core.engine_search_ms"] = (median(spans["core.search"]) / 1e6, "ms")
        metrics["serving.hit_us"] = (median(spans["serving.hit"]) / 1e3, "us")
        metrics["serving.miss_overhead_us"] = (
            (median(spans["serving.miss"]) - median(spans["core.search"])) / 1e3,
            "us")
        metrics["sharding.s1_overhead_ratio"] = (
            ratio(spans["sharding.x1"], spans["serving.miss"]), "ratio")
        metrics["server.request_overhead_us"] = (
            (median(spans["server.http"]) - median(spans["serving.miss"])) / 1e3,
            "us")

    # -- writes -----------------------------------------------------------
    def replay_writes(self, rows: List[tuple], tracer: Tracer,
                      metrics: Dict[str, tuple]) -> None:
        """Insert then delete each row on every rung (state is unchanged)."""
        index, clock = self.index, self.clock
        relation = index.relation
        # The bare index gets rows of its own: a second insert of the same
        # listing finds its Dewey siblings already numbered and is cheaper.
        rows, own = rows[:len(rows) // 2], rows[len(rows) // 2:]
        rids = [relation.insert(row) for row in own]
        metrics["index.insert_us"] = (median(clock.series(
            functools.partial(index.insert, rid) for rid in rids)) / 1e3, "us")
        metrics["index.remove_us"] = (median(clock.series(
            functools.partial(index.remove, rid) for rid in rids)) / 1e3, "us")
        for rid in rids:
            relation.delete(rid)

        def write(target, row):
            target.delete(target.insert(row))

        bare = DiversityEngine(index)
        for name, target in (("core.write", bare),
                             ("serving.write", self.serving),
                             ("sharding.write", self.x4),
                             ("replication.write", self.r2),
                             ("durability.write", self.durable)):
            for op_id, row in enumerate(rows):
                tracer.time(op_id, name, write, target, row)
        clock.sample()
        # each write span is one insert plus one delete
        metrics["durability.wal_append_us"] = (
            (median(tracer.durations("durability.write"))
             - median(tracer.durations("serving.write"))) / 2 / 1e3, "us")

    # -- durability -------------------------------------------------------
    def restart(self, metrics: Dict[str, tuple]) -> None:
        store = self.durable.engine.index
        wal = store.wal
        metrics["durability.wal_bytes_per_write"] = (
            wal.bytes_appended / max(1, wal.appended), "B")
        checkpoint_s = self.clock.timed(store.snapshot)[1]
        if not metrics["durability.checkpoint_s"][0]:
            metrics["durability.checkpoint_s"] = (checkpoint_s, "s")
        metrics["durability.snapshot_bytes_per_row"] = (
            store.snapshot_path.stat().st_size / max(1, len(store)), "B")
        self.durable.close()
        files = [path for path in Path(self.data_dir).rglob("*") if path.is_file()]
        metrics["durability.disk_mb"] = (
            sum(path.stat().st_size for path in files) / 2 ** 20, "MB")
        recovered, recover_s = self.clock.timed(ServingEngine.recover,
                                                self.data_dir)
        recovered.close()
        metrics["durability.recover_s"] = (recover_s, "s")
        metrics["durability.recover_vs_rebuild_ratio"] = (
            recover_s / self.build_s, "ratio")


# ----------------------------------------------------------------------
# Phase C: the grid and the posting-list micro-measurements
# ----------------------------------------------------------------------
def phase_grid(ladder: Ladder, queries: List[Query], rng: random.Random,
               metrics: Dict[str, tuple], all_cpus: set) -> None:
    index, engine, clock = ladder.index, ladder.engine, ladder.clock
    prepared = {scored: [engine.prepare(query, scored) for query in queries]
                for scored in (False, True)}
    for variant, algorithm, k, scored in VARIANTS:
        metrics[f"core.run_algorithm_ms.{variant}"] = (median(clock.series(
            functools.partial(run_algorithm, index, query, k, algorithm, scored)
            for query in prepared[scored])) / 1e6, "ms")

    def execute_all(target, algorithm, plans=prepared[False]):
        return clock.series(functools.partial(target.execute, query, 10, algorithm)
                            for query in plans)

    x4, r2 = ladder.x4.engine, ladder.r2.engine
    flat_probe = execute_all(engine, "probe")
    x4_probe = execute_all(x4, "probe")
    x4_naive = execute_all(x4, "naive")
    metrics["sharding.scan_overhead_ratio"] = (ratio(x4_probe, flat_probe), "ratio")
    metrics["sharding.gather_overhead_ratio"] = (
        ratio(x4_naive, execute_all(engine, "naive")), "ratio")
    metrics["replication.healthy_overhead_ratio"] = (
        ratio(execute_all(r2, "probe"), x4_probe), "ratio")
    makes = index.vocabulary("Make")
    pruned = [x4.prepare(Query.conjunction(
        Query.scalar("Make", rng.choice(makes)), query)) for query in queries]
    metrics["sharding.pruned_query_ratio"] = (
        ratio(execute_all(x4, "probe", pruned), x4_probe), "ratio")

    # Worker processes get every CPU the benchmark was given; the pinned
    # coordinator keeps the calibration kernel on its own core.
    os.sched_setaffinity(0, all_cpus)
    try:
        forked = ShardedEngine.from_relation(
            clone_relation(ladder.run.pristine), autos_ordering(), shards=4,
            workers=2, worker_mode="process", backend=ladder.backend)
        with forked:
            execute_all(forked, "naive", prepared[False][:2])  # starts workers
            harness.pin_to_one_cpu()
            metrics["parallel.fork_gather_ratio"] = (
                ratio(execute_all(forked, "naive"), x4_naive), "ratio")
    finally:
        harness.pin_to_one_cpu()

    # A B B A: metrics registry on / off / off / on over the same probes.
    arms = {True: [], False: []}
    for enabled in (True, False, False, True):
        with use_registry(MetricsRegistry(enabled=enabled)):
            arms[enabled].extend(execute_all(engine, "probe"))
    metrics["observability.overhead_ratio"] = (
        ratio(arms[True], arms[False]), "ratio")

    everything = index.all_postings()
    bounds = rng.sample(list(everything), min(SEEK_BOUNDS, len(everything)))
    longest = sorted(
        (index.scalar_postings(name, value)
         for name in index.relation.schema.names
         for value in index.vocabulary(name)),
        key=len, reverse=True)[:5]

    def seek_all(postings):
        for bound in bounds:
            postings.seek(bound)
            postings.seek_floor(bound)

    metrics["index.seek_us"] = (median(clock.series(
        functools.partial(seek_all, postings)
        for postings in [everything] + longest)) / (2 * len(bounds)) / 1e3, "us")

    sample = bounds[:50]

    def next_all(merged):
        for bound in sample:
            merged.next(bound, LEFT)
            merged.next(bound, RIGHT)

    metrics["index.merged_next_us"] = (median(clock.series(
        functools.partial(next_all, MergedList(query, index))
        for query in prepared[False])) / (2 * len(sample)) / 1e3, "us")

    def iterate_all():
        for postings in index.posting_lists():
            for _ in postings:
                pass

    postings_total = index.memory_stats()["postings"]
    metrics["index.iter_mpostings_s"] = (
        postings_total / clock.timed(iterate_all)[1] / 1e6, "M/s")


# ----------------------------------------------------------------------
def distinct_queries(ops: List[Op], count: int) -> List[Query]:
    chosen, seen = [], set()
    for op in ops:
        if op.text not in seen:
            seen.add(op.text)
            chosen.append(op.query)
            if len(chosen) == count:
                break
    return chosen


def run_traced(workload: Workload, seed: int, seconds: float, rows: int,
               scale: float = 1.0, spans_out: Optional[str] = None) -> dict:
    all_cpus = harness.pin_to_one_cpu()
    metrics: Dict[str, tuple] = {}
    wall = {"start": time.perf_counter()}
    with harness.WorkloadRun(workload, seed, rows, scale, setup_repeats=1) as run:
        tracer = Tracer(workload.name, run.clock)
        verdict = phase_workload(run, seconds, tracer, metrics)
        recorder = run.recorder
        attempted = recorder.attempted + verdict.attempted
        failed = recorder.failed + verdict.failed
        for name, value in run.timings.items():
            metrics[name] = (value, "s")
        run.close()
        gc.collect()
        wall["workload"] = time.perf_counter()

        # The ladder replays the head of the same seeded stream.
        head = OpSource(run.pristine, workload, seed)
        reads: List[Op] = []
        wanted = max(8, round(workload.ladder_reads * min(1.0, scale * 10)))
        while len(reads) < wanted:
            reads.extend(op for op in head.segment(scale) if op.kind == READ)
        reads = reads[:wanted]
        writes = [op.row for op in head.writes(4 * LADDER_WRITES)
                  if op.kind == INSERT]
        ladder = Ladder(run, metrics)
        try:
            wall["ladder_build"] = time.perf_counter()
            ladder.replay_reads(reads, tracer, metrics)
            ladder.replay_writes(writes, tracer, metrics)
            wall["ladder"] = time.perf_counter()
            phase_grid(ladder, distinct_queries(reads, GRID_QUERIES),
                       random.Random(f"grid:{seed}"), metrics, all_cpus)
            wall["grid"] = time.perf_counter()
            ladder.restart(metrics)
        finally:
            ladder.close()
        wall["restart"] = time.perf_counter()
    if spans_out:
        tracer.dump(spans_out)
    phases = list(wall)
    return {
        "correct": verdict.correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "spans": len(tracer.spans),
            "problems": verdict.problems,
            "wall_s": {phase: round(wall[phase] - wall[before], 2)
                       for before, phase in zip(phases, phases[1:])},
        },
    }
