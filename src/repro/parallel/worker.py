"""The worker-process side of the shard pool: a pipe-driven task loop.

Each worker owns a fixed subset of shards (round-robin over the pool
width) and answers ``(query, k, algorithm, scored, epoch)`` requests with
that shard's gather candidates — exactly the value the coordinator's
in-thread closure computes, so the downstream Definitions 1-2 merge is
oblivious to which side produced it.

Replicas come from one of two places:

* **fork** — the parent publishes its built shard indexes through
  :func:`set_fork_shards` immediately before forking; the child inherits
  them copy-on-write and clears nothing (the loop only reads).
* **spawn** — the child gets a data directory instead and lazily rebuilds
  each owned shard from its snapshot + WAL
  (:func:`~repro.parallel.bootstrap.load_shard_replica`) on first use.

**Epoch fence.**  Every request names the per-shard mutation epoch the
coordinator currently observes.  A replica at any other epoch — the
parent mutated after the fork, or the on-disk state ran ahead/behind —
answers ``("stale", (seen, expected))`` without computing, and the
coordinator rebuilds the pool.  A stale candidate list is never merged.

The loop is total: per-task exceptions are reported as ``("error", ...)``
replies, never allowed to kill the worker; only a closed pipe or the
``None`` shutdown sentinel ends the process.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..core import baselines
from ..core.diversify import diverse_subset, scored_diverse_subset
from ..index.merged import MergedList

#: Fork-inherited shard views, published by the parent just before the
#: pool forks and cleared right after — never used by spawn workers.
_FORK_SHARDS: Optional[Dict[int, object]] = None


def set_fork_shards(shards: Dict[int, object]) -> None:
    global _FORK_SHARDS
    _FORK_SHARDS = shards


def clear_fork_shards() -> None:
    global _FORK_SHARDS
    _FORK_SHARDS = None


def compute_candidates(shard, query, k: int, algorithm: str, scored: bool):
    """One shard's gather contribution: ``(candidates, next_calls,
    scored_next_calls)`` — the exact tuple the thread path produces.

    Only the scatter-gather algorithms run here (``naive``, and unscored
    ``basic``); the scan algorithms are coordinator-driven by design
    (their probe order must see the union cursors) and never reach a
    worker.
    """
    merged = MergedList(query, shard)
    if algorithm == "naive":
        if scored:
            matches = baselines.collect_all_scored(merged)
            chosen = scored_diverse_subset(matches, k)
            local = {dewey: matches[dewey] for dewey in chosen}
        else:
            local = diverse_subset(baselines.collect_all(merged), k)
    elif algorithm == "basic" and not scored:
        local = baselines.basic_unscored(merged, k)
    else:
        raise ValueError(
            f"algorithm {algorithm!r} (scored={scored}) is coordinator-"
            f"driven; it has no per-shard gather step"
        )
    return local, merged.next_calls, merged.scored_next_calls


def worker_main(
    conn, mode: str, shard_ids: List[int], data_dir: Optional[str]
) -> None:
    """Blocking task loop over ``conn`` until EOF or the ``None`` sentinel.

    Requests: ``(request_id, shard_id, query, k, algorithm, scored,
    expected_epoch)``.  Replies: ``(request_id, shard_id, status, value,
    elapsed_ms)`` with status ``"ok"`` / ``"stale"`` / ``"error"``.
    """
    shards: Dict[int, object] = {}
    if mode == "fork":
        inherited = _FORK_SHARDS or {}
        shards = {shard_id: inherited[shard_id] for shard_id in shard_ids}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            request_id, shard_id, query, k, algorithm, scored, expected = message
            try:
                shard = shards.get(shard_id)
                if shard is None:
                    if mode != "spawn" or data_dir is None:
                        raise RuntimeError(
                            f"worker owns no replica of shard {shard_id}"
                        )
                    from .bootstrap import load_shard_replica

                    shard = load_shard_replica(data_dir, shard_id)
                    shards[shard_id] = shard
                seen = shard.epoch
                if expected is not None and seen != expected:
                    # Fenced: this replica predates (or postdates) the
                    # epoch the coordinator is answering at.  Refuse — a
                    # stale candidate list must never reach the merge.
                    reply = (request_id, shard_id, "stale", (seen, expected), 0.0)
                else:
                    started = time.perf_counter()
                    value = compute_candidates(shard, query, k, algorithm, scored)
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    reply = (request_id, shard_id, "ok", value, elapsed_ms)
            except Exception as error:  # total loop: report, never die
                reply = (
                    request_id,
                    shard_id,
                    "error",
                    f"{type(error).__name__}: {error}",
                    0.0,
                )
            try:
                conn.send(reply)
            except (OSError, ValueError):
                break  # coordinator went away mid-reply
    finally:
        try:
            conn.close()
        except OSError:
            pass
