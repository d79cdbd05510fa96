"""Ablation: the one-pass skip-ahead rule on vs off.

With skipping disabled the scan still terminates early when nothing can
improve the kept set, but steps item by item instead of jumping branches —
quantifying DESIGN.md's "key savings" claim for Algorithm 1.

After the timed run, every workload query is run once more and held to
Section III's single scan (``merged.scan_restarts == 0``) and to the lazy
tree's allocation gate: at most ``2 * adds + depth`` nodes built.  The gate
is measured, not derived (worst seen ``2 * adds + 4`` unscored and
``2 * adds + 5`` scored, root included, over autos at 300-30 000 rows, four
query shapes, k in 1..100; mean 1.22 nodes per add); the derivable ceiling
is ``depth`` nodes per add, reached by two items that share a
``depth - 1`` prefix.  Constructions are counted by wrapping
``OnePassNode.__init__`` here; the library carries no counter.
"""

from unittest import mock

import pytest

from paper.harness import run_workload
from repro.core.onepass import OnePassNode, OnePassTree, one_pass_unscored
from repro.index.merged import MergedList

K_GRID = [1, 10, 50]


def check_scan_and_allocation(index, workload, k, use_skips):
    built = []
    adds = []
    init = OnePassNode.__init__
    add = OnePassTree.add

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting_add(self, *args):
        adds.append(1)
        add(self, *args)

    with mock.patch.object(OnePassNode, "__init__", counting_init), \
            mock.patch.object(OnePassTree, "add", counting_add):
        for query in workload:
            del built[:], adds[:]
            merged = MergedList(query, index)
            one_pass_unscored(merged, k, use_skips=use_skips)
            assert merged.scan_restarts == 0, (
                f"single scan violated: {merged.scan_restarts} restarts for "
                f"{query.describe()}"
            )
            allowed = 2 * len(adds) + index.depth
            assert len(built) <= allowed, (
                f"allocation gate violated: {len(built)} nodes > {allowed} "
                f"for {len(adds)} adds: {query.describe()}"
            )


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("variant", ["UOnePass", "UOnePassNoSkip"])
def test_skip_ablation(benchmark, autos_index, unscored_workload, variant, k):
    benchmark.group = f"abl-skip k={k}"
    benchmark.pedantic(
        run_workload, args=(autos_index, unscored_workload, k, variant),
        rounds=2, iterations=1,
    )
    check_scan_and_allocation(
        autos_index, unscored_workload, k, use_skips=variant == "UOnePass"
    )
