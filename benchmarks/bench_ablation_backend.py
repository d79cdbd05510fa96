"""Ablation: sorted-array vs compressed posting lists.

Both backends implement the same seek interface; the array is a binary
search over a sorted list of tuples, and the compressed backend
bit-packs every Dewey ID into one word of an ``array("Q")`` with
galloping seek — 8 bytes a posting, an order of magnitude less resident
memory for query times in the same ballpark.  Each benchmark row carries
both wall-clock and resident-bytes columns (``extra_info``), so one table
answers the time/space trade-off; the space half is a count, so
:func:`test_compressed_storage_claim` gates it (CI runs it at smoke
scale) where the time half never could be.
"""

import pytest

from paper.harness import run_workload
from repro.index.postings import BACKENDS

ALGORITHMS = ["UOnePass", "UProbe"]


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_backend(benchmark, backend_index, unscored_workload, algorithm, backend):
    index = backend_index(backend)
    stats = index.memory_stats()
    benchmark.group = f"abl-backend {algorithm}"
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["postings_bytes"] = stats["bytes"]
    benchmark.extra_info["postings_count"] = stats["postings"]
    benchmark.extra_info["bytes_per_posting"] = round(
        stats["bytes_per_posting"], 2
    )
    benchmark.pedantic(
        run_workload, args=(index, unscored_workload, 10, algorithm),
        rounds=2, iterations=1,
    )


def test_compressed_storage_claim(backend_index):
    """One word per posting, and under a fifth of the tuple backends'."""
    compressed, arrayed = (
        backend_index(backend).memory_stats()["bytes_per_posting"]
        for backend in ("compressed", "array")
    )
    assert compressed <= 8.0
    assert compressed < arrayed / 5
