"""Satellite: engine ``close()`` is idempotent and concurrency-safe.

The server's drain path closes engines from a signal-handler context
while worker threads may still be inside ``search_many`` — so ``close``
must tolerate double calls, concurrent calls from many threads, and a
close racing a live batch (whose futures may then complete or be
cancelled, but must never wedge or corrupt the engine).
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError

import pytest

from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.serving import ServingEngine
from repro.sharding import ShardedEngine

QUERIES = ["Make = 'Honda'", "Color = 'Red'", "Year = 2007"] * 40


def _make_serving() -> ServingEngine:
    return ServingEngine.from_relation(figure1_relation(), figure1_ordering())


class TestServingEngineClose:
    def test_double_close_is_idempotent(self):
        serving = _make_serving()
        serving.search("Make = 'Honda'", k=2)
        serving.close()
        serving.close()  # second call is a no-op, not an error

    def test_context_manager_plus_explicit_close(self):
        with _make_serving() as serving:
            serving.search("Make = 'Honda'", k=2)
            serving.close()
        # __exit__ closed an already-closed engine: still fine.

    def test_concurrent_close_from_many_threads(self):
        serving = _make_serving()
        serving.search_many(QUERIES[:10], k=2)
        barrier = threading.Barrier(8)
        errors = []

        def race():
            barrier.wait()
            try:
                serving.close()
            except BaseException as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # "close returned" means "fully closed": the pool is gone.
        assert serving._pool is None

    def test_close_during_search_many(self):
        serving = _make_serving()
        finished = threading.Event()
        outcome = {}

        def batch():
            try:
                outcome["report"] = serving.search_many(
                    QUERIES, k=3, threads=2)
            except CancelledError:
                outcome["cancelled"] = True
            except RuntimeError as exc:
                # "cannot schedule new futures after shutdown" — the close
                # won the race before the batch submitted everything.
                outcome["shutdown"] = str(exc)
            finally:
                finished.set()

        worker = threading.Thread(target=batch)
        worker.start()
        serving.close()  # races the in-flight batch
        assert finished.wait(timeout=30.0)
        worker.join(timeout=30.0)
        # Whichever way the race went, it resolved: a finished report,
        # cancelled futures, or a refused submission — never a hang.
        assert outcome
        if "report" in outcome:
            assert len(outcome["report"].results) == len(QUERIES)
        serving.close()  # and close stays idempotent afterwards


class TestShardedEngineClose:
    def _make(self) -> ShardedEngine:
        return ShardedEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2, workers=2)

    def test_double_close_is_idempotent(self):
        engine = self._make()
        engine.search("Make = 'Honda'", k=2, algorithm="naive")
        engine.close()
        engine.close()

    def test_concurrent_close(self):
        engine = self._make()
        engine.search("Make = 'Honda'", k=2, algorithm="naive")
        errors = []
        barrier = threading.Barrier(6)

        def race():
            barrier.wait()
            try:
                engine.close()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=race) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert engine._executor._pool is None

    def test_close_inside_serving_close_is_single_teardown(self):
        serving = ServingEngine.from_relation(
            figure1_relation(), figure1_ordering(), shards=2)
        assert isinstance(serving.engine, ShardedEngine)
        serving.close()   # closes the sharded engine underneath
        serving.engine.close()  # direct second close: still a no-op
