"""Observability: metrics, spans, and probe accounting for the whole stack.

The paper's efficiency results are access-count theorems; this package
makes them (and everything the serving stack added around them — caches,
shards, retries, WAL) continuously visible:

* :mod:`~repro.observability.metrics` — a process-wide
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket latency
  histograms (p50/p95/p99 without numpy), exported as a JSON snapshot or
  Prometheus text.
* :mod:`~repro.observability.spans` — ``with span("shard.scan", ...)``
  structured timing of pipeline stages: snapshot writes and recovery
  (``durability.*``), the sharded scan and scatter (``shard.*``).
* :mod:`~repro.observability.probes` — always-on per-query probe
  accounting asserting Theorem 2's ``2k`` probe bound and the one-pass
  single-scan property at runtime: one plain record per query, folded
  into the instruments when the registry is read.
* :mod:`~repro.observability.clock` — the one injectable monotonic clock
  (and :class:`FakeClock`) the whole stack times against.
"""

from .clock import MONOTONIC, Clock, FakeClock
from .metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .postings import register_postings_collector
from .probes import annotate_query_stats, probe_bound, record_query_metrics
from .spans import SpanRecord, current_span, span

__all__ = [
    "MONOTONIC",
    "Clock",
    "FakeClock",
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "annotate_query_stats",
    "register_postings_collector",
    "probe_bound",
    "record_query_metrics",
    "SpanRecord",
    "current_span",
    "span",
]
