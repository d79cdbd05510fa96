"""Frozen inputs: a digest of what seed 1 feeds each workload.

``inputs.lock.json`` holds, per workload, a sha256 over the dataset rows
and the head of the seed-1 operation stream.  A later change to
``repro.data`` that silently alters either makes every number incomparable
with the runs before it, so the run aborts instead.  Other seeds, row
counts and scales are not locked (the unseen-seed rule needs them free).

Regenerate deliberately with ``python3 benchmarks/ladder/run.py lock``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import DEFAULT_ROWS, WORKLOADS, OpSource, build_dataset

LOCK_PATH = Path(__file__).resolve().parent / "inputs.lock.json"
LOCKED_SEED = 1
LOCKED_WRITES = 50


def digest(workload, relation) -> str:
    sha = hashlib.sha256()
    for row in relation:
        sha.update(json.dumps(row).encode())
    source = OpSource(relation, workload, LOCKED_SEED)
    for op in source.segment() + source.writes(LOCKED_WRITES):
        sha.update(op.fingerprint().encode())
    return sha.hexdigest()


def check(workload, seed: int, relation, scale: float) -> None:
    if seed != LOCKED_SEED or len(relation) != DEFAULT_ROWS or scale != 1.0:
        return
    expected = json.loads(LOCK_PATH.read_text()).get(workload.name)
    actual = digest(workload, relation)
    if actual != expected:
        raise SystemExit(
            f"inputs of {workload.name!r} (seed {LOCKED_SEED}) no longer match "
            f"inputs.lock.json: got {actual}, locked {expected}; a change to "
            f"repro.data altered the benchmark's inputs")


def write() -> None:
    relation = build_dataset(DEFAULT_ROWS)
    LOCK_PATH.write_text(json.dumps(
        {name: digest(workload, relation)
         for name, workload in WORKLOADS.items()}, indent=1, sort_keys=True)
        + "\n")
