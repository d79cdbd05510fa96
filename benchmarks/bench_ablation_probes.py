"""Ablation: measured probe counts vs the Theorem 2 bound, and measured node
constructions vs the lazy structure's allocation bound.

Benchmarks UProbe across k and asserts, on every workload query, that the
number of ``next()`` calls stays within 2k — the paper's headline efficiency
guarantee for the probing algorithm — and that the probing structure builds
at most ``2 * next_calls + depth + 1`` nodes wherever the result set has
answers to spare (at least 4k matches).  A query with barely k matches has
to dig through every branch, and the structure then grows towards the
paper's eager one; every query is held to the measured ceiling of that case,
``DUG_NODES_PER_NEXT_CALL`` nodes per ``next`` call (the reasons are in
``tests/test_probe_lazy.py``).  Constructions are counted by wrapping
``ProbeNode.__init__`` here; the library carries no counter.
"""

from unittest import mock

import pytest

from repro.core.baselines import collect_all
from repro.core.probe_node import ProbeNode
from repro.core.probing import probe_unscored
from repro.index.merged import MergedList

K_GRID = [1, 10, 50, 100]
#: Measured worst 2.67 (autos, 300-30 000 rows, k in 1..100).
DUG_NODES_PER_NEXT_CALL = 3


@pytest.fixture(scope="module")
def match_counts(autos_index, unscored_workload):
    return [
        len(collect_all(MergedList(query, autos_index)))
        for query in unscored_workload
    ]


@pytest.mark.parametrize("k", K_GRID)
def test_probe_counts(benchmark, autos_index, unscored_workload, match_counts, k):
    benchmark.group = f"abl-probes k={k}"
    built = []
    init = ProbeNode.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def run():
        total = 0
        for query, matches in zip(unscored_workload, match_counts):
            del built[:]
            merged = MergedList(query, autos_index)
            probe_unscored(merged, k)
            assert merged.next_calls <= 2 * k, (
                f"Theorem 2 violated: {merged.next_calls} > {2 * k} for "
                f"{query.describe()}"
            )
            per_call = 2 if matches >= 4 * k else DUG_NODES_PER_NEXT_CALL
            allowed = per_call * merged.next_calls + autos_index.depth + 1
            assert len(built) <= allowed, (
                f"allocation bound violated: {len(built)} nodes > "
                f"{allowed} for {query.describe()}"
            )
            total += merged.next_calls
        return total

    with mock.patch.object(ProbeNode, "__init__", counting_init):
        total = benchmark.pedantic(run, rounds=2, iterations=1)
    assert total <= 2 * k * len(unscored_workload)
