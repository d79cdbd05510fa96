"""Process-wide metrics: counters, gauges, fixed-bucket latency histograms.

The paper's efficiency claims are *access-count* claims — Probe makes at
most ``2k`` bidirectional ``next()`` calls (Theorem 2), OnePass scans each
posting list exactly once with provable skips.  The serving stack built on
top (caches, shards, retries, WAL) adds its own per-call stats dicts, but
none of that is visible as a whole under real traffic.  This module is the
one place every layer reports into:

* :class:`Counter` — monotone, exact under threads (per-instrument lock;
  a bare ``+=`` on an attribute can lose increments between bytecodes).
* :class:`Gauge` — a set-to-current-value instrument (queue depths,
  breaker states, cache sizes).
* :class:`Histogram` — fixed upper-bound buckets with a running sum and
  count; p50/p95/p99 are estimated by linear interpolation inside the
  landing bucket, so no samples are retained and no numpy is needed.
* :class:`MetricsRegistry` — named, labelled instruments plus registered
  *collectors* (callbacks that refresh gauges from live objects — health
  boards, cache stats — right before export).

Exports: :meth:`MetricsRegistry.snapshot` (a JSON-able dict, schema
``repro-metrics`` v1) and :meth:`MetricsRegistry.render_prometheus`
(the Prometheus text exposition format).

A process-wide default registry (:func:`get_registry`) keeps the
instrumentation seams zero-config; tests swap it with
:func:`set_registry` or :func:`use_registry`.  Disabling a registry
(``enabled=False``) turns every instrument call into a cheap no-op — the
observability benchmark measures the enabled-vs-disabled delta.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

SNAPSHOT_FORMAT = "repro-metrics"
SNAPSHOT_VERSION = 1

#: Default histogram bucket upper bounds, in milliseconds: tuned for
#: sub-millisecond index probes up to multi-second batch workloads.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, math.inf,
)

#: How many finished spans a registry keeps (the oldest drop first).
SPAN_CAPACITY = 256

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelSet:
    """Canonical, hashable form of a label dict (values stringified)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


class Counter:
    """A monotone counter; ``inc`` is exact under concurrent callers."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (or be set outright)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is below (running maximum)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    Buckets are cumulative-style upper bounds (the last must be ``inf``).
    ``quantile(p)`` walks the buckets to the one containing the p-th
    sample and interpolates linearly inside it — an estimate whose error
    is bounded by the bucket width, which is the standard trade for not
    keeping samples.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, labels: LabelSet,
                 buckets: Sequence[float] = DEFAULT_BUCKETS_MS):
        buckets = tuple(float(b) for b in buckets)
        if not buckets or sorted(buckets) != list(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        if buckets[-1] != math.inf:
            buckets = buckets + (math.inf,)
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self._counts = [0] * len(buckets)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._record(value)

    def _record(self, value: float) -> None:
        """``observe`` with ``_lock`` already held."""
        # Linear scan beats bisect for the short (≤17) bucket lists here.
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                break
        self._sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, p: float) -> float:
        """Interpolated p-quantile (``p`` in [0, 1]); NaN when empty."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile p must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return math.nan
            target = p * self._count
            seen = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if seen + bucket_count >= target:
                    upper = self.buckets[index]
                    lower = self.buckets[index - 1] if index > 0 else 0.0
                    if math.isinf(upper):
                        # Everything in the overflow bucket: best estimate
                        # is the largest value actually observed.
                        return self._max
                    fraction = (target - seen) / bucket_count
                    return lower + (upper - lower) * min(1.0, max(0.0, fraction))
                seen += bucket_count
            return self._max

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self._min,
            "max": self._max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Absorbs every instrument call when a registry is disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None: ...
    def set(self, value: float) -> None: ...
    def set_max(self, value: float) -> None: ...
    def observe(self, value: float) -> None: ...

    @property
    def value(self) -> float:
        return 0.0


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named, labelled instruments plus snapshot/Prometheus export.

    Instruments are created on first use and cached by ``(name, labels)``
    — repeated ``registry.counter("x", shard=0)`` calls return the same
    :class:`Counter`, so hot paths can (and should) hold the instrument
    once instead of re-resolving it per event.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}
        self._help: Dict[str, str] = {}
        self._collectors: List[Callable[[], None]] = []
        self.spans = deque(maxlen=SPAN_CAPACITY)
        #: Free-form memo for hot callers that want to skip even the
        #: label-key build of the factory methods (the per-query metric
        #: seams keep resolved instrument bundles here, keyed however they
        #: like).  Cleared by :meth:`reset` alongside the instruments, so
        #: a memo can never outlive what it points at.  Plain-dict races
        #: are benign: the worst case is a duplicate resolution.
        self.hot_cache: Dict = {}

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels):
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        # Lock-free fast path: dict reads are atomic, and an instrument,
        # once created, is never replaced.
        instrument = self._counters.get(key)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, key[1])
                self._counters[key] = instrument
                if help:
                    self._help.setdefault(name, help)
        return instrument

    def gauge(self, name: str, help: str = "", **labels):
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, key[1])
                self._gauges[key] = instrument
                if help:
                    self._help.setdefault(name, help)
        return instrument

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS_MS, **labels):
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(name, key[1], buckets)
                self._histograms[key] = instrument
                if help:
                    self._help.setdefault(name, help)
        return instrument

    # ------------------------------------------------------------------
    # Collectors (refresh gauges from live objects at export time)
    # ------------------------------------------------------------------
    def register_collector(self, collect: Callable[[], None]) -> Callable[[], None]:
        with self._lock:
            self._collectors.append(collect)
        return collect

    def unregister_collector(self, collect: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._collectors.remove(collect)
            except ValueError:
                pass

    def run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect()

    def record_span(self, record) -> None:
        if self.enabled:
            self.spans.append(record)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True) -> Dict:
        """Everything the registry knows, as one JSON-able document."""
        self.run_collectors()
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        document: Dict = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "enabled": self.enabled,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for c in counters
            ],
            "gauges": [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for g in gauges
            ],
            "histograms": [
                {"name": h.name, "labels": dict(h.labels), **h.summary()}
                for h in histograms
            ],
        }
        if spans:
            document["spans"] = [record.as_dict() for record in list(self.spans)]
        return document

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4)."""
        self.run_collectors()
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            helps = dict(self._help)
        lines: List[str] = []
        seen_header = set()

        def header(name: str, kind: str) -> None:
            if name in seen_header:
                return
            seen_header.add(name)
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {kind}")

        for (name, _), counter in counters:
            header(name, "counter")
            lines.append(
                f"{name}{_render_labels(counter.labels)} {counter.value:g}"
            )
        for (name, _), gauge in gauges:
            header(name, "gauge")
            lines.append(f"{name}{_render_labels(gauge.labels)} {gauge.value:g}")
        for (name, _), histogram in histograms:
            header(name, "histogram")
            base = dict(histogram.labels)
            cumulative = 0
            with histogram._lock:
                counts = list(histogram._counts)
                total = histogram._count
                total_sum = histogram._sum
            for bound, count in zip(histogram.buckets, counts):
                cumulative += count
                le = "+Inf" if math.isinf(bound) else f"{bound:g}"
                labels = _render_labels(_label_key({**base, "le": le}))
                lines.append(f"{name}_bucket{labels} {cumulative}")
            suffix = _render_labels(histogram.labels)
            lines.append(f"{name}_sum{suffix} {total_sum:g}")
            lines.append(f"{name}_count{suffix} {total}")
        return "\n".join(lines) + "\n"

    def find(self, name: str, **labels):
        """Look an instrument up without creating it (None when absent)."""
        key = (name, _label_key(labels))
        with self._lock:
            return (
                self._counters.get(key)
                or self._gauges.get(key)
                or self._histograms.get(key)
            )

    def value(self, name: str, **labels) -> float:
        """Convenience: the current value of a counter/gauge (0.0 if absent)."""
        instrument = self.find(name, **labels)
        return instrument.value if instrument is not None else 0.0

    def reset(self) -> None:
        """Drop every instrument, collector and span (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()
            self._help.clear()
            self.hot_cache.clear()
        self.spans.clear()


#: The process-wide default registry every instrumentation seam reports to
#: unless given an explicit one.
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _default_registry
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None):
    """Temporarily install ``registry`` (a fresh one by default) as the
    process default; yields it.  The previous registry is restored on
    exit — the idiom tests and benchmarks use for isolation."""
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
