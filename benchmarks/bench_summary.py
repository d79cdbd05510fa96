"""The Experiments Summary table: every algorithm on the default workload.

Paper: "MultQ, UNaive, SNaive are orders of magnitude slower than the other
approaches. ... UProbe matches the performance of UBasic and SProbe comes
very close to the performance of SBasic."

Every row carries a ``bytes_per_posting`` column so the summary reads as a
time/space table, and a third group re-runs the index-driven algorithms on
each posting backend (sorted-array, compressed) — the summary-level
view of ``bench_ablation_backend.py``.
"""

import pytest

from repro.bench.harness import run_workload
from repro.index.postings import BACKENDS

UNSCORED = ["MultQ", "UNaive", "UBasic", "UOnePass", "UProbe"]
SCORED = ["SNaive", "SBasic", "SOnePass", "SProbe"]
BACKEND_ALGORITHMS = ["UOnePass", "UProbe"]


def _memory_columns(benchmark, index):
    stats = index.memory_stats()
    benchmark.extra_info["backend"] = stats["backend"]
    benchmark.extra_info["bytes_per_posting"] = round(
        stats["bytes_per_posting"], 2
    )


@pytest.mark.parametrize("algorithm", UNSCORED)
def test_summary_unscored(benchmark, autos_index, unscored_workload, algorithm):
    benchmark.group = "summary (unscored)"
    _memory_columns(benchmark, autos_index)
    workload = unscored_workload
    if algorithm == "MultQ":
        workload = workload[: max(1, len(workload) // 2)]
    benchmark.pedantic(
        run_workload, args=(autos_index, workload, 10, algorithm),
        rounds=1, iterations=1,
    )


@pytest.mark.parametrize("algorithm", SCORED)
def test_summary_scored(benchmark, autos_index, scored_workload, algorithm):
    benchmark.group = "summary (scored)"
    _memory_columns(benchmark, autos_index)
    benchmark.pedantic(
        run_workload, args=(autos_index, scored_workload, 10, algorithm),
        rounds=1, iterations=1,
    )


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("algorithm", BACKEND_ALGORITHMS)
def test_summary_backends(
    benchmark, backend_index, unscored_workload, algorithm, backend
):
    index = backend_index(backend)
    benchmark.group = f"summary (backends, {algorithm})"
    _memory_columns(benchmark, index)
    benchmark.pedantic(
        run_workload, args=(index, unscored_workload, 10, algorithm),
        rounds=1, iterations=1,
    )
