"""Per-query probe accounting: the paper's access bounds as live metrics.

:mod:`repro.core.trace` can record every probe of one run for inspection;
this module is its always-on generalisation: cheap counters the engine
updates once per query, exported through the metrics registry so the
paper's efficiency claims are *continuously checked* under real traffic:

* **Probe bound (Theorem 2)** — the unscored probing driver makes at most
  ``2k`` ``next()`` calls beyond the initial positioning probe (the repo's
  own property tests pin ``next_calls <= 2k + 1``).  Every probe query
  exports its driver probe count; a query exceeding the bound increments
  ``repro_probe_bound_violations_total`` — a metric that must stay 0.
* **One-pass single-scan property (Section III)** — OnePass's ``next``
  bounds are monotonically non-decreasing, i.e. every posting list is
  scanned at most once.  :class:`~repro.index.merged.MergedList` counts
  backward restarts; ``scan_passes = 1 + restarts`` is exported and must
  stay 1.  Skip jumps (the Section III skip argument) are counted too,
  so a regression that silently stops skipping shows up as a collapsing
  ``repro_onepass_skips_total``.

:func:`annotate_query_stats` runs inside ``run_algorithm`` (pure dict
work, no registry); :func:`record_query_metrics` publishes one query's
stats to a registry — the split keeps the core engine loop free of any
metrics dependency beyond a single call.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from .clock import MONOTONIC
from .metrics import MetricsRegistry, get_registry

#: Histogram buckets for per-query probe counts (calls, not latency).
PROBE_COUNT_BUCKETS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, float("inf"),
)


def probe_bound(k: int) -> int:
    """Theorem 2's ceiling on the unscored probing driver's ``next`` calls,
    plus the one initial positioning probe the implementation spends."""
    return 2 * k + 1


def annotate_query_stats(
    stats: Dict[str, int],
    merged,
    algorithm: str,
    scored_driver: bool,
    k: int,
) -> Dict[str, int]:
    """Fold one run's merged-list counters into its stats dict.

    Called by ``run_algorithm`` after the algorithm finished with
    ``merged`` (a :class:`~repro.index.merged.MergedList` or compatible).
    ``scored_driver`` is false when the unscored driver ran, also for a
    scored uniform-score plan.  Adds the generic access counters plus the
    per-algorithm bound checks; everything here is plain integer work.
    """
    stats["rows_touched"] = merged.rows_touched
    if algorithm == "probe":
        probes = merged.next_calls + merged.scored_next_calls
        stats["probe_calls"] = probes
        if not scored_driver:
            # Theorem 2 covers the unscored driver; the scored one pays an
            # extra WAND top-k pass whose cost Section IV-B bounds separately.
            stats["probe_bound"] = probe_bound(k)
            stats["probe_bound_exceeded"] = int(probes > probe_bound(k))
    elif algorithm == "onepass":
        stats["skips"] = merged.skip_jumps
        stats["scan_passes"] = 1 + merged.scan_restarts
    return stats


def _query_instruments(registry: MetricsRegistry, algorithm: str, mode: str):
    """The per-(algorithm, mode) instrument bundle, memoised per registry.

    ``record_query_metrics`` runs once per query; resolving nine labelled
    instruments through the factory methods each time (label-key build +
    dict lookup apiece) is the dominant cost of the whole seam.  The
    bundle is resolved once and parked in the registry's ``hot_cache``,
    which ``reset()`` clears together with the instruments themselves.
    Every bundled instrument is switched, once, to the registry's query
    lock (bundles share instruments): a query takes one lock, not eight.
    """
    key = ("query", algorithm, mode)
    bundle = registry.hot_cache.get(key)
    if bundle is not None:
        return bundle
    bundle = {
        "query_ms": registry.histogram(
            "repro_query_ms",
            help="End-to-end execute latency per query, by algorithm",
            algorithm=algorithm),
        "queries": registry.counter(
            "repro_queries_total",
            help="Queries executed, by algorithm and scoring mode",
            algorithm=algorithm, mode=mode),
        "next_calls": registry.counter(
            "repro_index_next_calls_total",
            help="merged-list next() probes spent, by algorithm",
            algorithm=algorithm),
        "scored_next_calls": registry.counter(
            "repro_index_scored_next_calls_total",
            help="merged-list scored next() probes spent, by algorithm",
            algorithm=algorithm),
        "rows_touched": registry.counter(
            "repro_rows_touched_total",
            help="matches materialised from next() probes, by algorithm",
            algorithm=algorithm),
    }
    if algorithm == "probe":
        bundle["probe_calls"] = registry.histogram(
            "repro_probe_calls",
            help="per-query probe count of the probing algorithm",
            buckets=PROBE_COUNT_BUCKETS, mode=mode)
        bundle["probe_max"] = registry.gauge(
            "repro_probe_max_calls",
            help="largest unscored-driver probe count seen (bound: 2k+1)")
        bundle["probe_max_bound"] = registry.gauge(
            "repro_probe_max_bound",
            help="2k+1 bound matching repro_probe_max_calls traffic")
    elif algorithm == "onepass":
        bundle["skips"] = registry.counter(
            "repro_onepass_skips_total",
            help="one-pass skip jumps taken (Section III skip argument)",
            mode=mode)
        bundle["onepass_queries"] = registry.counter(
            "repro_onepass_queries_total",
            help="one-pass queries executed", mode=mode)
    lock = registry.hot_cache.setdefault(("query", "lock"), threading.Lock())
    for instrument in bundle.values():
        instrument._lock = lock
    bundle["lock"] = lock
    registry.hot_cache[key] = bundle
    return bundle


def record_query_metrics(
    registry: Optional[MetricsRegistry],
    algorithm: str,
    scored: bool,
    k: int,
    stats: Dict[str, int],
    started: Optional[float] = None,
) -> None:
    """Publish one executed query's stats dict to ``registry``, and its
    latency since ``started`` (a :data:`MONOTONIC` reading) when given.

    The single per-query seam between the engine and the metrics layer:
    one counter bump per stat of interest, nothing per probe.
    """
    if registry is None:
        registry = get_registry()
    if not registry.enabled:
        return
    mode = "scored" if scored else "unscored"
    bundle = _query_instruments(registry, algorithm, mode)
    probe_calls = stats.get("probe_calls") if algorithm == "probe" else None
    elapsed_ms = None if started is None else (MONOTONIC() - started) * 1000.0
    with bundle["lock"]:
        if elapsed_ms is not None:
            bundle["query_ms"]._record(elapsed_ms)
        bundle["queries"]._value += 1
        bundle["next_calls"]._value += stats.get("next_calls", 0)
        bundle["scored_next_calls"]._value += stats.get("scored_next_calls", 0)
        bundle["rows_touched"]._value += stats.get("rows_touched", 0)
        if probe_calls is not None:
            bundle["probe_calls"]._record(probe_calls)
            if "probe_bound" in stats:  # the unscored driver ran
                for name, value in (("probe_max", probe_calls),
                                    ("probe_max_bound", stats["probe_bound"])):
                    gauge = bundle[name]
                    gauge._value = max(gauge._value, float(value))
        elif algorithm == "onepass":
            bundle["skips"]._value += stats.get("skips", 0)
            bundle["onepass_queries"]._value += 1
    if stats.get("probe_bound_exceeded"):
        # Violations are the exception path: resolved on demand so a
        # clean run exports no misleading zero-valued series.
        registry.counter(
            "repro_probe_bound_violations_total",
            help="unscored-driver probe queries exceeding the "
                 "Theorem 2 bound of 2k (+1 positioning probe); "
                 "must stay 0",
        ).inc()
    if algorithm == "onepass" and stats.get("scan_passes", 1) > 1:
        registry.counter(
            "repro_onepass_scan_violations_total",
            help="one-pass queries whose scan restarted (single-scan "
                 "property broken); must stay 0",
            mode=mode,
        ).inc()
