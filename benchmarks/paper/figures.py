"""Experiment drivers: one function per paper figure, plus our ablations.

Each driver returns a :class:`FigureResult` — the x axis, one timing series
per algorithm, and enough metadata to print the same curves the paper plots.
Scales default to laptop-friendly values; set ``REPRO_BENCH_ROWS`` /
``REPRO_BENCH_QUERIES`` (or pass arguments) to approach the paper's 5000
queries over 10K-100K listings.

See DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md for
recorded outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.baselines import collect_all
from repro.core.probing import probe_unscored
from repro.core.similarity import balance_violations
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.index.inverted import InvertedIndex
from repro.index.merged import MergedList
from repro.index.postings import BACKENDS
from repro.query.evaluate import selectivity as exact_selectivity

from .harness import env_int, run_matrix, run_workload
from .mmr import retrieve_ck_diverse

UNSCORED_ALGOS = ("UNaive", "UBasic", "UOnePass", "UProbe")
SCORED_ALGOS = ("SNaive", "SBasic", "SOnePass", "SProbe")


@dataclass
class FigureResult:
    """One reproduced figure: series of total workload times (seconds)."""

    figure: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]]
    meta: Dict[str, object] = field(default_factory=dict)

    def row_pairs(self) -> List[tuple]:
        """(x, {algorithm: seconds}) rows for reporting."""
        return [
            (x, {name: values[i] for name, values in self.series.items()})
            for i, x in enumerate(self.x_values)
        ]


def _build_index(rows: int, seed: int = 42) -> InvertedIndex:
    relation = generate_autos(AutosSpec(rows=rows, seed=seed))
    return InvertedIndex.build(relation, autos_ordering())


def figure5(
    rows_grid: Optional[Sequence[int]] = None,
    queries: Optional[int] = None,
    k: int = 10,
    seed: int = 42,
) -> FigureResult:
    """Figure 5: response time vs data size, unscored, default workload.

    Paper shape: UNaive grows with the number of listings; UOnePass and
    UProbe are flat and indistinguishable from UBasic.
    """
    queries = queries or env_int("REPRO_BENCH_QUERIES", 100)
    if rows_grid is None:
        base = env_int("REPRO_BENCH_ROWS", 50_000)
        rows_grid = [base // 5, (2 * base) // 5, (3 * base) // 5, (4 * base) // 5, base]
    series: Dict[str, List[float]] = {tag: [] for tag in UNSCORED_ALGOS}
    for rows in rows_grid:
        index = _build_index(rows, seed=seed)
        # One random predicate per query at the default 0.5 selectivity:
        # UNaive still scans ~half the listings (Fig. 4's "None" default
        # would make every query identical), so the growth trend is intact.
        workload = WorkloadGenerator(
            index.relation,
            WorkloadSpec(queries=queries, predicates=1, selectivity=0.5, seed=seed),
        ).materialise()
        for timing in run_matrix(index, workload, k, UNSCORED_ALGOS):
            series[timing.algorithm].append(timing.total_seconds)
    return FigureResult(
        figure="fig5",
        title="Varying Data Size (Unscored)",
        x_label="number of listings",
        x_values=list(rows_grid),
        series=series,
        meta={"queries": queries, "k": k},
    )


def figure6(
    k_grid: Sequence[int] = (1, 5, 10, 25, 50, 100),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    include_multq: bool = False,
    seed: int = 42,
) -> FigureResult:
    """Figure 6: response time vs k, unscored.

    Paper shape: everything beats UNaive (and MultQ); UOnePass/UProbe track
    UBasic closely even at k = 100.  MultQ is optional because it is orders
    of magnitude slower (the paper's point), which dominates runtime.
    """
    rows = rows or env_int("REPRO_BENCH_ROWS", 50_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 100)
    tags = list(UNSCORED_ALGOS) + (["MultQ"] if include_multq else [])
    index = _build_index(rows, seed=seed)
    workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(queries=queries, predicates=2, selectivity=0.5, seed=seed),
    ).materialise()
    series: Dict[str, List[float]] = {tag: [] for tag in tags}
    for k in k_grid:
        for timing in run_matrix(index, workload, k, tags):
            series[timing.algorithm].append(timing.total_seconds)
    return FigureResult(
        figure="fig6",
        title="Varying k (Unscored)",
        x_label="number of results k",
        x_values=list(k_grid),
        series=series,
        meta={"rows": rows, "queries": queries},
    )


def figure7(
    buckets: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    k: int = 10,
    seed: int = 42,
) -> FigureResult:
    """Figure 7: response time vs query selectivity, unscored.

    The paper groups random queries by their *measured* selectivity and
    averages response times per group; we do the same, generating workloads
    aimed at each bucket and assigning queries to the nearest bucket.
    """
    rows = rows or env_int("REPRO_BENCH_ROWS", 50_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 100)
    index = _build_index(rows, seed=seed)
    relation = index.relation
    # Pool queries from several target selectivities, then bucket by the
    # exact measured selectivity (the paper's grouping step).
    pool = []
    per_target = max(1, queries // len(buckets))
    for target in buckets:
        generator = WorkloadGenerator(
            relation,
            WorkloadSpec(
                queries=per_target, predicates=1, selectivity=target, seed=seed
            ),
        )
        pool.extend(generator.materialise())
    grouped: Dict[float, List] = {bucket: [] for bucket in buckets}
    for query in pool:
        measured = exact_selectivity(relation, query)
        nearest = min(buckets, key=lambda b: abs(b - measured))
        grouped[nearest].append(query)
    # Empty buckets (no query landed nearby) are dropped, as in the paper's
    # grouping of measured selectivities.
    filled = [bucket for bucket in buckets if grouped[bucket]]
    series: Dict[str, List[float]] = {tag: [] for tag in UNSCORED_ALGOS}
    counts = []
    for bucket in filled:
        group = grouped[bucket]
        counts.append(len(group))
        for tag in UNSCORED_ALGOS:
            timing = run_workload(index, group, k, tag)
            # Average per query so unevenly filled buckets compare.
            series[tag].append(timing.total_seconds / len(group))
    return FigureResult(
        figure="fig7",
        title="Varying Q's Selectivity (Unscored)",
        x_label="query selectivity",
        x_values=filled,
        series=series,
        meta={"rows": rows, "queries_per_bucket": counts, "k": k,
              "unit": "seconds per query"},
    )


def figure8(
    k_grid: Sequence[int] = (1, 5, 10, 25, 50, 100),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    seed: int = 42,
) -> FigureResult:
    """Figure 8: response time vs k, scored (disjunctive weighted queries).

    Paper shape: SOnePass and SProbe grow roughly linearly with k but beat
    SNaive; SProbe stays close to SBasic.
    """
    rows = rows or env_int("REPRO_BENCH_ROWS", 50_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 100)
    index = _build_index(rows, seed=seed)
    workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(
            queries=queries,
            predicates=3,
            selectivity=0.3,
            disjunctive=True,
            weighted=True,
            seed=seed,
        ),
    ).materialise()
    series: Dict[str, List[float]] = {tag: [] for tag in SCORED_ALGOS}
    for k in k_grid:
        for timing in run_matrix(index, workload, k, SCORED_ALGOS):
            series[timing.algorithm].append(timing.total_seconds)
    return FigureResult(
        figure="fig8",
        title="Varying k (Scored)",
        x_label="number of results k",
        x_values=list(k_grid),
        series=series,
        meta={"rows": rows, "queries": queries},
    )


def summary_table(
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    k: int = 10,
    seed: int = 42,
) -> FigureResult:
    """The Experiments Summary: every algorithm on the default workload.

    Paper: MultQ / UNaive / SNaive are orders of magnitude slower; UProbe
    matches UBasic; SProbe comes close to SBasic.
    """
    rows = rows or env_int("REPRO_BENCH_ROWS", 20_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 30)
    index = _build_index(rows, seed=seed)
    unscored_workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(queries=queries, predicates=2, selectivity=0.5, seed=seed),
    ).materialise()
    scored_workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(
            queries=queries, predicates=3, selectivity=0.3,
            disjunctive=True, weighted=True, seed=seed,
        ),
    ).materialise()
    tags_unscored = ["MultQ", "UNaive", "UBasic", "UOnePass", "UProbe"]
    tags_scored = ["SNaive", "SBasic", "SOnePass", "SProbe"]
    series: Dict[str, List[float]] = {}
    for timing in run_matrix(index, unscored_workload, k, tags_unscored):
        series[timing.algorithm] = [timing.total_seconds]
    for timing in run_matrix(index, scored_workload, k, tags_scored):
        series[timing.algorithm] = [timing.total_seconds]
    return FigureResult(
        figure="summary",
        title="Experiments Summary (total workload seconds)",
        x_label="workload",
        x_values=["default"],
        series=series,
        meta={"rows": rows, "queries": queries, "k": k},
    )


def ablation_probe_counts(
    k_grid: Sequence[int] = (1, 5, 10, 25, 50, 100),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    seed: int = 42,
) -> FigureResult:
    """Ablation: measured ``next`` probes per query vs the 2k bound
    (Theorem 2)."""
    rows = rows or env_int("REPRO_BENCH_ROWS", 20_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 50)
    index = _build_index(rows, seed=seed)
    workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(queries=queries, predicates=2, selectivity=0.5, seed=seed),
    ).materialise()
    probes: List[float] = []
    bound: List[float] = []
    for k in k_grid:
        calls = 0
        for query in workload:
            merged = MergedList(query, index)
            probe_unscored(merged, k)
            calls += merged.next_calls
        probes.append(calls / len(workload))
        bound.append(float(2 * k))
    return FigureResult(
        figure="abl-probes",
        title="Probe count vs Theorem 2 bound (UProbe)",
        x_label="number of results k",
        x_values=list(k_grid),
        series={"measured next() calls": probes, "2k bound": bound},
        meta={"rows": rows, "queries": queries},
    )


def ablation_backend(
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    k: int = 10,
    seed: int = 42,
) -> FigureResult:
    """Ablation: the posting backends — workload seconds
    (UOnePass/UProbe), build seconds and resident bytes per posting."""
    rows = rows or env_int("REPRO_BENCH_ROWS", 20_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 50)
    relation = generate_autos(AutosSpec(rows=rows, seed=seed))
    workload = WorkloadGenerator(
        relation,
        WorkloadSpec(queries=queries, predicates=2, selectivity=0.5, seed=seed),
    ).materialise()
    series: Dict[str, List[float]] = {}
    for backend in BACKENDS:
        started = time.perf_counter()
        index = InvertedIndex.build(relation, autos_ordering(), backend=backend)
        series[f"build/{backend}"] = [time.perf_counter() - started]
        series[f"bytes_per_posting/{backend}"] = [
            index.memory_stats()["bytes_per_posting"]
        ]
        for timing in run_matrix(index, workload, k, ("UOnePass", "UProbe")):
            series[f"{timing.algorithm}/{backend}"] = [timing.total_seconds]
    return FigureResult(
        figure="abl-backend",
        title="Posting-list backend ablation",
        x_label="workload",
        x_values=["default"],
        series=series,
        meta={"rows": rows, "queries": queries, "k": k},
    )


def ablation_skipping(
    k_grid: Sequence[int] = (1, 10, 50),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    seed: int = 42,
) -> FigureResult:
    """Ablation: one-pass with and without the skip-ahead rule."""
    rows = rows or env_int("REPRO_BENCH_ROWS", 20_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 50)
    index = _build_index(rows, seed=seed)
    workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(queries=queries, predicates=1, selectivity=0.5, seed=seed),
    ).materialise()
    series: Dict[str, List[float]] = {"UOnePass": [], "UOnePassNoSkip": []}
    for k in k_grid:
        for timing in run_matrix(index, workload, k, ("UOnePass", "UOnePassNoSkip")):
            series[timing.algorithm].append(timing.total_seconds)
    return FigureResult(
        figure="abl-skip",
        title="One-pass skip-ahead ablation",
        x_label="number of results k",
        x_values=list(k_grid),
        series=series,
        meta={"rows": rows, "queries": queries},
    )


def ablation_cxk(
    c_values: Sequence[int] = (1, 2, 5, 10, 50),
    rows: Optional[int] = None,
    queries: Optional[int] = None,
    k: int = 10,
    seed: int = 42,
) -> FigureResult:
    """Ablation: the introduction's web-search baseline (retrieve c*k, then
    MMR-rerank) vs exact diversity.

    Reports the mean number of water-fill violations per query for each
    window factor c — the paper argues c must reach "1000s or 10000s" on
    duplicate-heavy structured data before the window even *contains* a
    diverse subset; UProbe has zero violations at ~2k probes.
    """
    rows = rows or env_int("REPRO_BENCH_ROWS", 20_000)
    queries = queries or env_int("REPRO_BENCH_QUERIES", 30)
    index = _build_index(rows, seed=seed)
    workload = WorkloadGenerator(
        index.relation,
        WorkloadSpec(queries=queries, predicates=1, selectivity=0.5, seed=seed),
    ).materialise()
    violations: Dict[int, float] = {c: 0.0 for c in c_values}
    probe_violations = 0.0
    counted = 0
    for query in workload:
        merged = MergedList(query, index)
        full = collect_all(merged)
        if not full:
            continue
        counted += 1
        for c in c_values:
            selected = retrieve_ck_diverse(MergedList(query, index), k, c)
            violations[c] += balance_violations(selected, full)
        exact = probe_unscored(MergedList(query, index), k)
        probe_violations += balance_violations(exact, full)
    counted = max(1, counted)
    series = {
        "retrieve-c*k + MMR": [violations[c] / counted for c in c_values],
        "UProbe (exact)": [probe_violations / counted] * len(c_values),
    }
    return FigureResult(
        figure="abl-cxk",
        title="Retrieve-c*k-and-rerank vs exact diversity (violations/query)",
        x_label="window factor c",
        x_values=list(c_values),
        series=series,
        meta={"rows": rows, "queries": queries, "k": k,
              "unit": "mean water-fill violations per query"},
    )


ALL_FIGURES = {
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "summary": summary_table,
    "abl-probes": ablation_probe_counts,
    "abl-backend": ablation_backend,
    "abl-skip": ablation_skipping,
    "abl-cxk": ablation_cxk,
}
