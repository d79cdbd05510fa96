"""The per-query metrics seam as it was before the record fold.

Each executed query resolved its ``(algorithm, mode)`` instrument bundle
and updated it on the spot; an auto query then bumped its plan counters.
Kept test-side as the reference the fold in
:mod:`repro.observability.probes` is checked against
(``tests/test_metrics_fold.py``): the same stream of per-query stats
through both must export the same snapshot, apart from latencies.

The served seam memoised each bundle and swapped one shared lock into
its instruments; this copy resolves the bundle per call and updates it
through the public ``inc``/``observe``/``set_max``, which export the
same values.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.clock import MONOTONIC
from repro.observability.probes import PROBE_COUNT_BUCKETS


def query_instruments(registry, algorithm: str, mode: str) -> Dict:
    """The per-(algorithm, mode) instrument bundle."""
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


def record_query_metrics(registry, algorithm: str, scored: bool, k: int,
                         stats: Dict[str, int],
                         started: Optional[float] = None) -> None:
    """Publish one executed query's stats dict to ``registry``."""
    if not registry.enabled:
        return
    mode = "scored" if scored else "unscored"
    bundle = query_instruments(registry, algorithm, mode)
    probe_calls = stats.get("probe_calls") if algorithm == "probe" else None
    if started is not None:
        bundle["query_ms"].observe((MONOTONIC() - started) * 1000.0)
    bundle["queries"].inc()
    bundle["next_calls"].inc(stats.get("next_calls", 0))
    bundle["scored_next_calls"].inc(stats.get("scored_next_calls", 0))
    bundle["rows_touched"].inc(stats.get("rows_touched", 0))
    if probe_calls is not None:
        bundle["probe_calls"].observe(probe_calls)
        if "probe_bound" in stats:  # the unscored driver ran
            bundle["probe_max"].set_max(float(probe_calls))
            bundle["probe_max_bound"].set_max(float(stats["probe_bound"]))
    elif algorithm == "onepass":
        bundle["skips"].inc(stats.get("skips", 0))
        bundle["onepass_queries"].inc()
    if stats.get("probe_bound_exceeded"):
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


def record_plan_metrics(registry, algorithm: str, scored: bool,
                        stats: Dict[str, int]) -> None:
    """Export one auto decision that selected ``algorithm``: the choice
    counter plus the paper-bound cross-check."""
    if not registry.enabled:
        return
    registry.counter(
        "repro_plan_choice_total",
        help="auto-planned queries, by selected algorithm",
        algorithm=algorithm,
        mode="scored" if scored else "unscored",
    ).inc()
    if stats.get("probe_bound_exceeded") or stats.get("scan_passes", 1) > 1:
        registry.counter(
            "repro_plan_bound_violations_total",
            help="auto-selected runs that broke their own access bound "
                 "(Theorem 2 probe bound / one-pass single scan); "
                 "must stay 0",
            algorithm=algorithm,
        ).inc()
