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
  boards, cache stats — right before export) and a queue of per-query
  records folded into the instruments on read
  (:mod:`repro.observability.probes`).

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

#: How many query records may wait before the appending query folds them
#: (every read folds whatever is waiting).
FOLD_AT = 512

LabelSet = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelSet:
    """Canonical, hashable form of a label dict (values stringified)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + body + "}"


class _Scalar:
    """One named, labelled number behind a per-instrument lock."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Scalar):
    """A monotone counter; ``inc`` is exact under concurrent callers."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down (or be set outright)."""

    __slots__ = ()

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
            return self._quantile(p)

    def _quantile(self, p: float) -> float:
        """``quantile`` with ``_lock`` already held."""
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
        """Count, sum, extremes and quantiles, all read under one lock
        acquisition, so they describe the same set of observations."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile(0.50),
                "p95": self._quantile(0.95),
                "p99": self._quantile(0.99),
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

    A query resolves no instrument: it appends one plain tuple
    (:meth:`record`), and :meth:`fold` turns the queued tuples into
    instrument updates before every read and once :data:`FOLD_AT` wait.
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
        #: Query records not yet folded.  ``append`` and ``popleft`` are
        #: atomic: appenders take no lock, and only :meth:`fold` pops.
        self.records: deque = deque()
        self._fold_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument factories
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels):
        return self._instrument(self._counters, Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels):
        return self._instrument(self._gauges, Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS_MS, **labels):
        return self._instrument(self._histograms, Histogram, name, help,
                                labels, buckets)

    def _instrument(self, table: Dict, kind, name: str, help: str,
                    labels: Dict[str, object], *args):
        """The ``(name, labels)`` instrument of ``table``, created (as
        ``kind(name, labels, *args)``) on first use."""
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        # Lock-free fast path: dict reads are atomic, and an instrument,
        # once created, is never replaced.
        instrument = table.get(key)
        if instrument is not None:
            return instrument
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = kind(name, key[1], *args)
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
    # Per-query records
    # ------------------------------------------------------------------
    def record(self, record: tuple) -> None:
        """Append one query record; fold when :data:`FOLD_AT` are waiting."""
        records = self.records
        records.append(record)
        if len(records) >= FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Fold every waiting query record into the instruments.

        Serialised by ``_fold_lock``: a read that folds waits for a fold
        in progress, so it sees every record appended before it began.
        """
        from .probes import fold_query_records  # probes builds on this module

        with self._fold_lock:
            records = self.records
            drained = [records.popleft() for _ in range(len(records))]
            if drained:
                fold_query_records(self, drained)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self, spans: bool = True) -> Dict:
        """Everything the registry knows, as one JSON-able document."""
        self.fold()
        self.run_collectors()
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())

        def entries(scalars):
            return [{"name": s.name, "labels": dict(s.labels), "value": s.value}
                    for s in scalars]

        document: Dict = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "enabled": self.enabled,
            "counters": entries(counters),
            "gauges": entries(gauges),
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
        self.fold()
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

        for kind, scalars in (("counter", counters), ("gauge", gauges)):
            for (name, _), scalar in scalars:
                header(name, kind)
                lines.append(
                    f"{name}{_render_labels(scalar.labels)} {scalar.value:g}")
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
        self.fold()
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
        """Drop every instrument, collector, span and waiting record (test
        isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._collectors.clear()
            self._help.clear()
        self.spans.clear()
        self.records.clear()


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
