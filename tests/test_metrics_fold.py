"""The per-query metrics record and the registry's fold over it.

A query appends one plain tuple to its registry and resolves no
instrument; every read folds the queued tuples into the instruments.
The fold is checked against the per-query seam it replaced
(``tests/reference_metrics_seam.py``) on one seeded stream of stats.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.engine import AUTO
from repro.observability import (
    MONOTONIC,
    MetricsRegistry,
    annotate_query_stats,
    use_registry,
)
from repro.observability.metrics import FOLD_AT
from repro.observability.probes import query_record

from . import reference_metrics_seam as reference

#: The one histogram whose values are the clock's, not the stream's.
LATENCY = "repro_query_ms"


def stats_stream(seed: int, count: int):
    """``count`` synthetic queries: ``(algorithm, scored, k, stats, auto,
    started)``, with stats built by the engine's own annotation from
    random merged-list counters (some over the probe bound, some with a
    restarted scan)."""
    rng = random.Random(seed)
    for _ in range(count):
        auto = rng.random() < 0.3
        algorithm = rng.choice(("probe", "onepass", "naive")
                               + (() if auto else ("basic",)))
        scored = rng.random() < 0.4
        k = rng.randint(1, 10)
        merged = SimpleNamespace(
            next_calls=rng.randint(1, 2 * k + 3),
            scored_next_calls=rng.randint(0, 5) if scored else 0,
            rows_touched=rng.randint(0, 40),
            skip_jumps=rng.randint(0, 6),
            scan_restarts=int(rng.random() < 0.05),
        )
        stats = {"next_calls": merged.next_calls,
                 "scored_next_calls": merged.scored_next_calls}
        annotate_query_stats(stats, merged, algorithm, scored, k)
        started = MONOTONIC() if rng.random() < 0.8 else None
        yield algorithm, scored, k, stats, auto, started


def masked_snapshot(registry):
    document = registry.snapshot()
    for histogram in document["histograms"]:
        if histogram["name"] == LATENCY:
            for key in ("sum", "min", "max", "p50", "p95", "p99"):
                histogram.pop(key, None)
    return document


def masked_prometheus(registry):
    return [line for line in registry.render_prometheus().splitlines()
            if not line.startswith((LATENCY + "_bucket", LATENCY + "_sum"))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_matches_the_per_query_seam(seed):
    folded, direct = MetricsRegistry(), MetricsRegistry()
    for algorithm, scored, k, stats, auto, started in stats_stream(
            seed, 3 * FOLD_AT + 17):
        folded.record(query_record(algorithm, scored, stats, started, auto))
        reference.record_query_metrics(direct, algorithm, scored, k, stats,
                                        started)
        if auto:
            reference.record_plan_metrics(direct, algorithm, scored, stats)
    # The stream exercises every violation counter.
    assert direct.value("repro_probe_bound_violations_total") > 0
    for mode in ("unscored", "scored"):
        assert direct.value("repro_onepass_scan_violations_total",
                            mode=mode) > 0
    assert direct.value("repro_plan_bound_violations_total",
                        algorithm="probe") > 0
    assert masked_snapshot(folded) == masked_snapshot(direct)
    assert masked_prometheus(folded) == masked_prometheus(direct)
    assert not folded.records


def test_a_query_resolves_no_instrument(cars_engine, monkeypatch):
    """200 queries touch no instrument factory; one read folds them all,
    exactly."""
    calls = []
    for factory in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, factory)

        def counting(self, *args, _original=original, **kwargs):
            calls.append(args[0] if args else kwargs["name"])
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, factory, counting)
    queries = ["Make = 'Honda'", "Make = 'Toyota'",
               "Model = 'Civic' OR Color = 'Blue'"]
    algorithms = ("probe", "onepass", AUTO, "naive")
    assert 200 < FOLD_AT
    probes = 0
    with use_registry() as registry:
        for n in range(200):
            algorithm = algorithms[n % len(algorithms)]
            result = cars_engine.search(queries[n % len(queries)], 1 + n % 5,
                                        algorithm=algorithm)
            probes += result.algorithm == "probe"
        assert calls == []
        assert registry.value("repro_queries_total", algorithm="probe",
                              mode="unscored") == probes
    assert calls
