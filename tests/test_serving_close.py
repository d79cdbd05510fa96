"""Satellite: engine ``close()`` is idempotent and concurrency-safe.

The server's drain path closes engines from a signal-handler context
while worker threads may still be inside ``ServingEngine.search`` — so
``close`` must tolerate double calls, concurrent calls from many threads,
and a close racing live searches (which must finish, never wedge or
corrupt the engine).
"""

from __future__ import annotations

import threading

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
        for query in QUERIES[:10]:
            serving.search(query, k=2)
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
        # "close returned" means "fully closed": the collector is gone.
        assert serving._collector is None

    def test_close_during_searches(self):
        serving = _make_serving()
        started = threading.Barrier(3)
        answers, errors = [[], []], []

        def searches(slot):
            started.wait()
            try:
                for query in QUERIES:
                    answers[slot].append(serving.search(query, k=3))
            except BaseException as exc:  # noqa: BLE001 — recorded for assert
                errors.append(exc)

        workers = [threading.Thread(target=searches, args=(slot,))
                   for slot in range(2)]
        for worker in workers:
            worker.start()
        started.wait()
        serving.close()  # races the in-flight searches
        for worker in workers:
            worker.join(timeout=30.0)
        # The searches the drain raced all finished, with full answers.
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        assert [len(slot) for slot in answers] == [len(QUERIES)] * 2
        assert all(len(result) == 3 for slot in answers for result in slot)
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
