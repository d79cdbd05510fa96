"""Smoke test of the ladder at toy scale (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/ladder -q

Runs the whole ladder, traced and untraced, on 2 000 rows with every
segment cut to 2 % of its operations, and checks the contract rather than
any number: every metric ``BENCHMARK.json`` names is emitted by every
workload, names are well formed, nothing failed, every span has its parent
rung, and nothing is left behind in the repository.
"""

import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: root-to-leaf paths of the read ladder (see rungs.PARENTS)
PATHS = (
    ("index.next", "core.run_algorithm", "core.execute", "core.search",
     "serving.miss", "sharding.x1", "sharding.x4", "replication.r2"),
    ("index.next", "core.run_algorithm", "core.execute", "core.search",
     "serving.miss", "durability.read"),
    ("index.next", "core.run_algorithm", "core.execute", "core.search",
     "serving.miss", "server.http"),
)


def tree_listing():
    return sorted(
        str(path.relative_to(ROOT)) for path in ROOT.rglob("*")
        if path.is_file() and ".git/" not in str(path)
        and "__pycache__" not in str(path) and ".pytest_cache" not in str(path))


def test_whole_ladder_at_toy_scale(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = tree_listing()
    out = tmp_path / "ladder.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rows", "2000", "--scale", "0.02",
         "--seconds", "0.3", "--seed", "7", "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr[-2000:]
    assert elapsed < 60, f"toy ladder took {elapsed:.1f}s"
    assert tree_listing() == before, "the run left files in the repository"

    expected = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(NAME.match(name) for name in expected)
    results = json.loads(out.read_text())["results"]
    assert set(results) == {w["name"] for w in spec["workloads"]}
    for workload, runs in results.items():
        (run,) = runs
        assert set(run["metrics"]) == expected, workload
        assert run["correct"] and run["failed"] == 0, workload
        metrics = {name: cell["value"] for name, cell in run["metrics"].items()}
        assert metrics["bench.failed_share"] == 0
        assert metrics["core.probe_bound_violations"] == 0
        assert metrics["core.scan_violations"] == 0
        assert metrics["durability.lost_acked_writes"] == 0
        assert all(metrics[m["name"]] > 0 for m in spec["end_to_end"]), workload

    # "workload metric value unit", one line per metric
    lines = [line.split() for line in done.stdout.splitlines()]
    assert all(len(line) == 4 and NAME.match(line[1]) for line in lines)

    spans = json.loads(Path(f"{out}.trace.json").read_text())
    assert {"workload", "op_id", "name", "parent", "start_ns", "end_ns",
            "scale"} <= set(spans[0])
    for workload in results:
        calls = {(span["op_id"], span["name"]): span for span in spans
                 if span["workload"] == workload}
        rungs = {}
        for (op_id, name), span in calls.items():
            rungs.setdefault(name, []).append(
                (span["end_ns"] - span["start_ns"]) * span["scale"])
            # every call has the call one rung below it, for the same operation
            assert span["parent"] is None or (op_id, span["parent"]) in calls
        typical = {name: statistics.median(times) for name, times in rungs.items()}
        for path in PATHS:
            # A layer's self time is its rung minus the rung below (negative
            # when the layer saves work, as shard pruning can): along any
            # path the self times add up to the top rung.
            selfs = [typical[path[0]]] + [
                typical[rung] - typical[parent]
                for parent, rung in zip(path, path[1:])]
            assert abs(sum(selfs) - typical[path[-1]]) <= 0.10 * typical[path[-1]]
