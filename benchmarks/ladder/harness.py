"""The closed loop: set-up, warm-up, timed segments, end-to-end metrics.

One driver thread issues the next operation only after the previous one
returned (a web tier waiting for each reply).  Every operation is timed on
its own with ``perf_counter_ns`` around the call into the program; the
generator and the answer checks run between operations and are not timed.

**Calibrated time.**  On the sandbox this benchmark was built on, each
vCPU flips every few seconds between two speeds about 1.23x apart (an SMT
neighbour), which alone puts 15-20 % between two runs of the same commit.
:class:`MachineClock` therefore runs a fixed reference kernel every 25 ms
beside the workload and every reported time is wall time multiplied by
``nominal kernel time / kernel time measured next to it``.  The kernel
slows down by the same factor as the program, which takes the spread
between 7-second windows of one 7-minute run from 17 % to 1.3 %.  The
process is pinned to one CPU so that the kernel and every thread of the
program see the same speed.  The raw figures are kept:
``bench.machine_slowdown`` and ``bench.raw_qps`` in the traced run.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import re
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import checks
import lock
from workloads import (
    DURABLE_HISTORY,
    INSERT,
    READ,
    EngineDeployment,
    OpSource,
    Workload,
    build_dataset,
    clone_relation,
    create_durable,
)

SETUP_REPEATS = 3
WARMUP_SHARE = 0.1      # of --seconds, at least one segment
MIN_SEGMENTS = 3
ROOT = Path(__file__).resolve().parents[2]

now = time.perf_counter_ns


def pin_to_one_cpu() -> set:
    """Pin this process (and its future threads) to one CPU; returns the
    previous affinity so a caller can widen it again."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


class _Node:
    __slots__ = ("key", "children")

    def __init__(self, key):
        self.key = key
        self.children = {}


_KERNEL_DOCUMENT = {"items": [
    {"rid": i, "dewey": [i % 7, i % 5, i % 3, i % 11, i], "score": i * 0.5,
     "values": {"Make": "Honda", "Model": "Civic", "Color": "Blue",
                "Year": 2000 + i % 9, "Description": "low miles, one owner"}}
    for i in range(12)]}
_KERNEL_PATTERN = re.compile(r"(\w+)\s*=\s*'([^']*)'")
_KERNEL_TEXT = ("Make = 'Honda' AND Model = 'Civic' AND Color = 'Blue' AND "
                "Description CONTAINS 'low miles'")


def _kernel() -> int:
    """The reference kernel: ~1 ms of ordinary interpreter work (JSON, a
    regex, tuple sorting and bisection, a small object tree, string
    formatting) with no I/O and a few hundred kB of working set.

    A one-line arithmetic loop follows the SMT speed flips just as well,
    but during the rarer episodes in which something squeezes the shared
    caches it does not slow down at all while the program loses 18 %; this
    broader kernel loses 10 % in those episodes, so it is the better ruler.
    """
    total = 0
    for _ in range(6):
        encoded = json.dumps(_KERNEL_DOCUMENT)
        total += len(json.loads(encoded)["items"]) + len(encoded)
        total += len(_KERNEL_PATTERN.findall(_KERNEL_TEXT))
        tuples = [(i * 7 % 13, i * 5 % 11, i % 3, i) for i in range(120)]
        tuples.sort()
        total += bisect.bisect_left(tuples, (5, 5, 1, 0))
        root = _Node(0)
        for entry in tuples[:60]:
            node = root
            for component in entry:
                child = node.children.get(component)
                if child is None:
                    child = node.children[component] = _Node(component)
                node = child
        total += len(root.children)
        total += len(", ".join(f"{a}-{b}" for a, b, _, _ in tuples[:40]).split(","))
    return total


class MachineClock:
    """A timeline of reference-kernel timings (see the module docstring)."""

    NOMINAL_NS = 900_000        # what one kernel run is *defined* to take
    INTERVAL_NS = 25_000_000

    def __init__(self):
        self.stamps: List[int] = []
        self.kernel: List[int] = []
        self.due = 0

    def sample(self) -> None:
        started = now()
        _kernel()
        ended = now()
        self.stamps.append((started + ended) // 2)
        self.kernel.append(ended - started)
        self.due = ended + self.INTERVAL_NS

    def tick(self) -> None:
        """Sample if the last sample is older than the interval."""
        if now() >= self.due:
            self.sample()

    def factors(self, stamps: Sequence[int]) -> List[float]:
        """Calibration factor at each of ``stamps`` (ascending): nominal over
        the kernel time interpolated between the two samples around it."""
        times, kernel = self.stamps, self.kernel
        last = len(times) - 1
        factors = []
        right = 0
        for stamp in stamps:
            while right <= last and times[right] < stamp:
                right += 1
            if right == 0:
                measured = kernel[0]
            elif right > last:
                measured = kernel[last]
            else:
                left = right - 1
                share = (stamp - times[left]) / (times[right] - times[left])
                measured = kernel[left] + (kernel[right] - kernel[left]) * share
            factors.append(self.NOMINAL_NS / measured)
        return factors

    def timed(self, call, *args) -> tuple:
        """``(result, calibrated seconds)`` of one long call.  No sample
        can be taken inside it, so it is bracketed by three on each side and
        scaled by the mean of the two medians (one sample can be unlucky:
        the first after a build runs cold, the first after a server start
        shares the core with its thread)."""
        def bracket() -> float:
            for _ in range(3):
                self.sample()
            return statistics.median(self.kernel[-3:])

        before = bracket()
        started = now()
        result = call(*args)
        ended = now()
        measured = (before + bracket()) / 2
        return result, (ended - started) * self.NOMINAL_NS / measured / 1e9

    def series(self, calls) -> List[float]:
        """Calibrated nanoseconds of each of ``calls`` (zero-argument)."""
        stamps, raws = [], []
        for call in calls:
            self.tick()
            started = now()
            call()
            ended = now()
            stamps.append(started)
            raws.append(ended - started)
        self.sample()
        return [raw * factor for raw, factor in zip(raws, self.factors(stamps))]

    def slowdown(self) -> float:
        return statistics.median(self.kernel) / self.NOMINAL_NS


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.5) - 1))
    return float(ordered[rank])


def top_percentile(count: int) -> float:
    """The highest of p99/p95/p90 that leaves ten samples beyond it."""
    for share in (0.99, 0.95, 0.90):
        if count * (1.0 - share) >= 10:
            return share
    return 0.90


class Recorder:
    """Latencies, failures and layer counters of the operations run so far."""

    def __init__(self):
        self.latencies: Dict[str, List[float]] = {READ: [], "write": []}
        self.pending: List[tuple] = []  # (kind, started, raw ns) not yet calibrated
        self.attempted = 0
        self.failed = 0
        self.writes: List = []          # every applied write, in order
        self.recent_reads: List = []    # ring of the latest read ops
        self.by_algorithm: Dict[str, int] = {}
        self.probe_violations = 0
        self.scan_violations = 0
        self.degraded = 0
        self.non200 = 0
        self.write_max_ns = 0.0
        self.raw_busy_ns = 0

    def settle(self, clock: MachineClock) -> float:
        """Calibrate what is pending; returns its calibrated busy time."""
        pending, self.pending = self.pending, []
        factors = clock.factors([started for _, started, _ in pending])
        busy = 0.0
        for (kind, _, raw), factor in zip(pending, factors):
            latency = raw * factor
            busy += latency
            self.latencies[kind].append(latency)
            if kind != READ and latency > self.write_max_ns:
                self.write_max_ns = latency
        return busy

    def clear_latencies(self) -> None:
        for values in self.latencies.values():
            values.clear()


def run_ops(deployment, ops, recorder: Recorder, clock: MachineClock,
            tracer=None) -> tuple:
    """Run ``ops`` in order; returns ``(raw, calibrated)`` nanoseconds spent
    inside the program."""
    raw_busy = 0
    pending = recorder.pending
    for op in ops:
        recorder.attempted += 1
        kind = op.kind
        clock.tick()
        try:
            if kind == READ:
                started = now()
                raw = deployment.search(op)
                ended = now()
                pending.append((READ, started, ended - started))
                if not checks.cheap_read_check(deployment, op, raw, recorder):
                    recorder.failed += 1
                recorder.recent_reads.append(op)
            else:
                if kind == INSERT:
                    started = now()
                    acknowledged = deployment.insert(op)
                    ended = now()
                    good = acknowledged == op.rid
                else:
                    started = now()
                    acknowledged = deployment.delete(op)
                    ended = now()
                    good = acknowledged is True
                pending.append(("write", started, ended - started))
                recorder.writes.append(op)
                if not good:
                    recorder.failed += 1
        except Exception:
            ended = now()
            recorder.failed += 1
        raw_busy += ended - started
        if tracer is not None:
            tracer.span(op, started, ended)
    clock.sample()
    del recorder.recent_reads[:-checks.SAMPLE * 4]
    recorder.raw_busy_ns += raw_busy
    return raw_busy, recorder.settle(clock)


class WorkloadRun:
    """One workload brought up ``setup_repeats`` times, then driven."""

    def __init__(self, workload: Workload, seed: int, rows: int,
                 scale: float = 1.0, setup_repeats: int = SETUP_REPEATS):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.setup_repeats = setup_repeats
        self.clock = MachineClock()
        self.timings: Dict[str, float] = {}
        self.pristine, self.timings["data.generate_s"] = self.clock.timed(
            build_dataset, rows)
        lock.check(workload, seed, self.pristine, scale)
        self.relation = (clone_relation(self.pristine)
                         if workload.mutates else self.pristine)
        self.source, self.timings["data.workload_s"] = self.clock.timed(
            OpSource, self.relation, workload, seed)
        self.recorder = Recorder()
        self.tmp: Optional[Path] = None
        self.data_dir: Optional[str] = None
        self.deployment = None
        self.setup_samples: List[float] = []

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "WorkloadRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        deployment, self.deployment = self.deployment, None
        if deployment is not None:
            deployment.close()
        tmp, self.tmp = self.tmp, None
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    def _prepare_durable(self) -> None:
        """First start + a logged history, so the restart replays a tail."""
        self.tmp = Path(tempfile.mkdtemp(prefix=".ladder-", dir=ROOT))
        self.data_dir = str(self.tmp / "store")
        first = create_durable(self.relation, self.data_dir)
        run_ops(EngineDeployment(first), self.source.writes(DURABLE_HISTORY),
                self.recorder, self.clock)
        first.close()

    def setup(self) -> float:
        """Bring the deployment up; returns the median set-up seconds."""
        if self.workload.durable:
            self._prepare_durable()
        for _ in range(self.setup_repeats):
            if self.deployment is not None:
                self.deployment.close()
                self.deployment = None
                gc.collect()
            self.deployment, seconds = self.clock.timed(
                self.workload.build, self.relation, self.data_dir)
            self.setup_samples.append(seconds)
        return statistics.median(self.setup_samples)

    # -- phases ---------------------------------------------------------
    def warm_up(self, seconds: float) -> None:
        budget = int(seconds * WARMUP_SHARE * 1e9)
        busy = 0
        if self.workload.prefill:
            run_ops(self.deployment, self.source.pool(), self.recorder,
                    self.clock)
        while busy < budget:
            busy += run_ops(self.deployment, self.source.segment(self.scale),
                            self.recorder, self.clock)[0]
        self.recorder.clear_latencies()
        self.recorder.raw_busy_ns = 0

    def measure(self, seconds: float) -> List[float]:
        """Whole segments until ``seconds`` (wall) were spent inside the
        program; returns each segment's calibrated operations per second."""
        budget = int(seconds * 1e9)
        busy = 0
        rates: List[float] = []
        while busy < budget or len(rates) < MIN_SEGMENTS:
            ops = self.source.segment(self.scale)
            raw, calibrated = run_ops(self.deployment, ops, self.recorder,
                                      self.clock)
            busy += raw
            rates.append(len(ops) / (calibrated / 1e9))
        return rates


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seed: int, seconds: float, rows: int,
                 scale: float = 1.0) -> dict:
    """The end-to-end run: every ``end_to_end`` metric of ``BENCHMARK.json``."""
    pin_to_one_cpu()
    wall = {"start": time.perf_counter()}
    with WorkloadRun(workload, seed, rows, scale) as run:
        wall["inputs"] = time.perf_counter()
        setup_s = run.setup()
        memory = run.deployment.index.memory_stats()
        wall["setup"] = time.perf_counter()
        run.warm_up(seconds)
        rates = run.measure(seconds)
        wall["measure"] = time.perf_counter()
        rss = peak_rss_mb()
        recorder = run.recorder
        pooled = sorted(recorder.latencies[READ] + recorder.latencies["write"])
        share = top_percentile(len(pooled))
        verdict = checks.verify(run)
        wall["checks"] = time.perf_counter()
        phases = list(wall)
        metrics = {
            "setup_s": (setup_s, "s"),
            "qps": (statistics.median(rates), "1/s"),
            "p50_ms": (percentile(pooled, 0.50) / 1e6, "ms"),
            "p99_ms": (percentile(pooled, share) / 1e6, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "bytes_per_posting": (memory["bytes_per_posting"], "B"),
        }
        return {
            "correct": verdict.correct and recorder.failed == 0,
            "attempted": recorder.attempted + verdict.attempted,
            "failed": recorder.failed + verdict.failed,
            "metrics": metrics,
            "detail": {
                "segments": len(rates),
                "samples": len(pooled),
                "tail_percentile": share,
                "setup_samples": run.setup_samples,
                "machine_slowdown": run.clock.slowdown(),
                "raw_qps": len(pooled) / (recorder.raw_busy_ns / 1e9),
                "wall_s": {phase: round(wall[phase] - wall[before], 2)
                           for before, phase in zip(phases, phases[1:])},
                "problems": verdict.problems,
            },
        }
