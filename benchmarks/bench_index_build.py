"""Index construction benchmarks.

The paper reports that "index generation is done offline and is very fast
(less than 5 minutes for 100K listings)" (Section V-A).  These benchmarks
measure our bulk build, incremental inserts, and snapshot round trip.
"""

import pytest

from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.index.inverted import InvertedIndex
from repro.index.postings import BACKENDS
from repro.index.snapshot import load_index, save_index

from conftest import BENCH_ROWS


@pytest.fixture(scope="module")
def relation():
    return generate_autos(AutosSpec(rows=BENCH_ROWS, seed=42))


@pytest.mark.parametrize("backend", BACKENDS)
def test_bulk_build(benchmark, relation, backend):
    benchmark.group = "index build"
    index = benchmark.pedantic(
        InvertedIndex.build,
        args=(relation, autos_ordering()),
        kwargs={"backend": backend},
        rounds=1,
        iterations=1,
    )
    assert len(index) == len(relation)


@pytest.mark.parametrize("backend", BACKENDS)
def test_incremental_inserts(benchmark, relation, backend):
    benchmark.group = "index build"
    rows = min(2000, len(relation))

    def run():
        index = InvertedIndex(relation, autos_ordering(), backend=backend)
        for rid in range(rows):
            index.insert(rid)
        return index

    index = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(index) == rows


def test_snapshot_roundtrip(benchmark, relation, tmp_path):
    benchmark.group = "index build"
    index = InvertedIndex.build(relation, autos_ordering())
    path = tmp_path / "autos.idx"

    def run():
        save_index(index, path)
        return load_index(path)

    restored = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(restored) == len(index)
