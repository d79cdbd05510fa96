"""Per-query probe accounting: the paper's access bounds as live metrics.

Cheap counters the engine feeds once per query, exported through the
metrics registry so the paper's efficiency claims are *continuously
checked* under real traffic:

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
work, no registry); the engine appends one plain tuple per query
(:func:`query_record`) to the registry, which folds the queued tuples into
its instruments (:func:`fold_query_records`) when it is read.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

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


def query_record(algorithm: str, scored: bool, stats: Dict[str, int],
                 started: Optional[float] = None, auto: bool = False) -> tuple:
    """One executed query as a plain tuple: ``(algorithm, mode, elapsed_ms,
    next_calls, scored_next_calls, rows_touched, probe_calls, probe_bound,
    skips, scan_passes, auto)``, copied out of ``stats`` (which
    ``annotate_plan_stats`` still adds to).  ``elapsed_ms`` runs from
    ``started``, a :data:`MONOTONIC` reading; ``None`` marks an absent
    value; ``auto`` marks a run an auto decision selected."""
    return (
        algorithm,
        "scored" if scored else "unscored",
        None if started is None else (MONOTONIC() - started) * 1000.0,
        stats.get("next_calls", 0),
        stats.get("scored_next_calls", 0),
        stats.get("rows_touched", 0),
        stats.get("probe_calls") if algorithm == "probe" else None,
        stats.get("probe_bound"),
        stats.get("skips", 0),
        stats.get("scan_passes", 1),
        auto,
    )


def record_query_metrics(
    registry: Optional[MetricsRegistry],
    algorithm: str,
    scored: bool,
    k: int,
    stats: Dict[str, int],
    started: Optional[float] = None,
) -> None:
    """Queue one executed query's record on ``registry`` (the process
    registry when ``None``), with its latency since ``started`` when given.
    ``k`` is unused: the run's Theorem 2 bound is already in ``stats``."""
    if registry is None:
        registry = get_registry()
    if registry.enabled:
        registry.record(query_record(algorithm, scored, stats, started))


def _bundle(registry: MetricsRegistry, algorithm: str, mode: str) -> Dict:
    """The instruments one ``(algorithm, mode)``'s records fold into."""
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
    return bundle


def fold_query_records(registry: MetricsRegistry,
                       records: Sequence[tuple]) -> None:
    """Fold queued :func:`query_record` tuples into ``registry``'s
    instruments: summed per ``(algorithm, mode)``, then one public
    ``inc``/``set_max`` per instrument (an ``observe`` per sample).

    Instruments are resolved walking the records in order, each at the
    first record that needs it, so the registry lists them in the order a
    per-query update would have created them.  The violation counters
    (must stay 0) appear at the first violation, so a clean run exports
    no misleading zero-valued series.
    """
    groups: Dict[tuple, tuple] = {}  # (algorithm, mode) -> (bundle, records)
    events: Dict[object, int] = {}   # per-query event counter -> increment

    def count(name: str, help_text: str, **labels) -> None:
        counter = registry.counter(name, help=help_text, **labels)
        events[counter] = events.get(counter, 0) + 1

    for record in records:
        algorithm, mode, _, _, _, _, probe_calls, bound, _, scan_passes, auto = record
        group = groups.get((algorithm, mode))
        if group is None:
            group = groups[algorithm, mode] = (_bundle(registry, algorithm, mode), [])
        group[1].append(record)
        # Theorem 2 bounds the unscored driver: the records with a bound.
        exceeded = bound is not None and probe_calls > bound
        if exceeded:
            count("repro_probe_bound_violations_total",
                  "unscored-driver probe queries exceeding the Theorem 2 "
                  "bound of 2k (+1 positioning probe); must stay 0")
        if algorithm == "onepass" and scan_passes > 1:
            count("repro_onepass_scan_violations_total",
                  "one-pass queries whose scan restarted (single-scan "
                  "property broken); must stay 0", mode=mode)
        if auto:
            count("repro_plan_choice_total",
                  "auto-planned queries, by selected algorithm",
                  algorithm=algorithm, mode=mode)
            if exceeded or scan_passes > 1:
                count("repro_plan_bound_violations_total",
                      "auto-selected runs that broke their own access bound "
                      "(Theorem 2 probe bound / one-pass single scan); "
                      "must stay 0", algorithm=algorithm)

    for (algorithm, _), (bundle, group) in groups.items():
        (_, _, latencies, next_calls, scored_next_calls, rows_touched,
         probe_calls, bounds, skips, _, _) = zip(*group)
        for elapsed_ms in latencies:
            if elapsed_ms is not None:
                bundle["query_ms"].observe(elapsed_ms)
        bundle["queries"].inc(len(group))
        bundle["next_calls"].inc(sum(next_calls))
        bundle["scored_next_calls"].inc(sum(scored_next_calls))
        bundle["rows_touched"].inc(sum(rows_touched))
        if algorithm == "probe":
            bounded = [(calls, bound) for calls, bound in zip(probe_calls, bounds)
                       if bound is not None]
            for calls in probe_calls:
                if calls is not None:
                    bundle["probe_calls"].observe(calls)
            bundle["probe_max"].set_max(max((c for c, _ in bounded), default=0))
            bundle["probe_max_bound"].set_max(
                max((b for _, b in bounded), default=0))
        elif algorithm == "onepass":
            bundle["skips"].inc(sum(skips))
            bundle["onepass_queries"].inc(len(group))
    for counter, amount in events.items():
        counter.inc(amount)
