#!/usr/bin/env python3
"""The benchmark ladder's one command.

Four ways in::

    # what BENCHMARK.json's driver runs: one workload, one JSON line
    python3 benchmarks/ladder/run.py --workload probe-direct --seed 1 \\
        --seconds 10 --trace 0

    # the whole ladder: every workload in a fresh subprocess, every metric
    # printed as "workload metric value unit"; --trace adds the traced runs
    python3 benchmarks/ladder/run.py --seed 1 --runs 10 --out A.json [--trace]

    # two such files against the bounds in BENCHMARK.json
    python3 benchmarks/ladder/run.py compare A.json B.json

    # after a deliberate change of the inputs: rewrite inputs.lock.json
    python3 benchmarks/ladder/run.py lock

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--rows", type=int, default=None,
                        help="dataset rows (default: workloads.DEFAULT_ROWS, "
                             "the benchmark's one scale)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every segment's operation counts "
                             "(smoke tests)")
    parser.add_argument("--runs", type=int, default=1,
                        help="whole-ladder mode: runs per workload, seeds "
                             "seed..seed+runs-1")
    parser.add_argument("--out", help="whole-ladder mode: write results here; "
                                      "spans go to <out>.trace.json")
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args, spec) -> int:
    """Driver mode: one workload, result as the last line of stdout."""
    try:
        import harness
        import workloads
    except ImportError as error:
        print(f"cannot import the program under test: {error}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rows = args.rows if args.rows is not None else workloads.DEFAULT_ROWS
    if args.trace:
        import rungs

        result = rungs.run_traced(workload, args.seed, seconds, rows,
                                  args.scale, spans_out=args.spans_out)
        expected = [metric["name"] for metric in spec["per_layer"]]
    else:
        result = harness.run_untraced(workload, args.seed, seconds, rows,
                                      args.scale)
        expected = [metric["name"] for metric in spec["end_to_end"]]
    missing = sorted(set(expected) ^ set(result["metrics"]))
    if missing:
        print(f"metrics out of step with BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 2
    for problem in result["detail"].get("problems", ()):
        print(f"check failed: {problem}", file=sys.stderr)
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps({"detail": result["detail"]}), file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_ladder(args, spec) -> int:
    """Every workload in its own subprocess (so peak RSS is per workload)."""
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    results: dict = {}
    spans: list = []
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = results.setdefault(workload, [])
        for seed in range(args.seed, args.seed + args.runs):
            merged = {"seed": seed, "metrics": {}}
            for trace in ((0, 1) if args.trace else (0,)):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--scale", str(args.scale)]
                if args.rows is not None:
                    command += ["--rows", str(args.rows)]
                spans_path = None
                if trace and args.out:
                    spans_path = Path(f"{args.out}.{workload}.{seed}.spans")
                    command += ["--spans-out", str(spans_path)]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode not in (0, 1) or not lines:
                    sys.stderr.write(done.stderr)
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{done.returncode}", file=sys.stderr)
                    return 2
                line = json.loads(lines[-1])
                if not line["correct"]:
                    sys.stderr.write(done.stderr)
                    status = 1
                merged["metrics"].update(line["metrics"])
                if not trace:
                    merged.update(correct=line["correct"],
                                  attempted=line["attempted"],
                                  failed=line["failed"])
                    failed_share = line["failed"] / line["attempted"]
                    print(f"{workload} failed_share {failed_share:g} ratio")
                for name, cell in line["metrics"].items():
                    print(f"{workload} {name} {cell['value']:.6g} {cell['unit']}")
                if spans_path is not None and spans_path.exists():
                    spans.extend(json.loads(spans_path.read_text()))
                    spans_path.unlink()
            runs.append(merged)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "rows": args.rows, "results": results},
            indent=1, sort_keys=True) + "\n")
        if args.trace:
            Path(f"{args.out}.trace.json").write_text(json.dumps(spans) + "\n")
    return status


def pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` unless it is already set.

    ``repro.data.workload`` breaks ties between equally frequent tokens in
    set-iteration order, which follows the per-process string hash seed:
    without this the same ``--seed`` would give different queries on every
    run.  Pinning it also removes hash-layout noise from the timings.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})


def main(argv) -> int:
    pin_hash_seed()
    if argv == ["lock"]:
        import lock

        lock.write()
        return 0
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:], load_spec())
    args = parse_args(argv)
    spec = load_spec()
    if args.workload:
        return run_one(args, spec)
    return run_ladder(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
