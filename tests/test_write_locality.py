"""A write changes only the answers whose query its row matches.

Definitions 1-2 make a diverse answer a function of ``RES(R, Q)`` and those
rows' Dewey IDs.  ``DeweyIndex.add`` appends siblings and never renumbers,
and a served leaf's weight comes from the query, so inserting or deleting a
row ``Q`` does not match leaves ``Q``'s answer bit-identical.  The serving
cache builds on exactly that: a stale entry is re-stamped and served when
no row written since its stamp matches its plan.  This file pins

* the premise itself, for every algorithm, scored and unscored;
* the cache's row test against ``Query.matches``;
* every case the write ring must refuse to vouch for;
* the mechanism's costs, as counts.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import ALGORITHMS, AUTO, DiversityEngine, Query, Relation
from repro.query.rewrite import normalise
from repro.serving import ServingCache, ServingEngine
from repro.serving.cache import WRITE_RING, _ResultEntry, _Write

from .conftest import (
    COLORS,
    MAKES,
    MODELS,
    RANDOM_ORDERING,
    WORDS,
    CountingLock,
    random_relation,
)

QUERY = "make = 'A'"
MISSING = ("Z", "m1", "red", "low miles")   # matches no query on make 'A'
MATCHING = ("A", "m2", "blue", "fun")


def _answers(result):
    return [(item.rid, item.dewey, item.score) for item in result.items]


def _clone(relation: Relation) -> Relation:
    return Relation.from_rows(relation.schema, iter(relation), name=relation.name)


def _text(rng: random.Random) -> str:
    """Description text, sometimes repeating a token or varying its case."""
    words = rng.sample(WORDS, rng.randint(1, 3))
    if rng.random() < 0.3:
        words.append(rng.choice(words))
    if rng.random() < 0.2:
        words = [word.upper() for word in words]
    return rng.choice((" ", ", ")).join(words)


def _row(rng: random.Random) -> tuple:
    return (rng.choice(MAKES + ["Z"]), rng.choice(MODELS), rng.choice(COLORS),
            _text(rng))


def _query(rng: random.Random, weighted: bool = False, depth: int = 0) -> Query:
    """Scalar and (multi-token) keyword leaves under nested AND/OR, or TRUE."""
    weight = float(rng.randint(1, 3)) if weighted else 1.0
    kind = rng.randrange(6 if depth == 0 else 3)
    if kind == 0:
        attribute, values = rng.choice((("make", MAKES), ("model", MODELS),
                                        ("color", COLORS)))
        return Query.scalar(attribute, rng.choice(values), weight=weight)
    if kind in (1, 2):
        return Query.keyword("desc", " ".join(
            rng.sample(WORDS, rng.randint(1, 2))), weight=weight)
    if kind == 5:
        return Query.match_all()
    children = [_query(rng, weighted, depth + 1) for _ in range(rng.randint(2, 3))]
    combine = Query.conjunction if kind == 3 else Query.disjunction
    return combine(*children)


def _row_dict(relation: Relation, row: tuple) -> dict:
    return dict(zip(relation.schema.names, row))


def _under(lock, method):
    def locked(*args, **kwargs):
        with lock:
            return method(*args, **kwargs)
    return locked


def _everything(engine, query: Query, k: int):
    return {
        (algorithm, scored): _answers(
            engine.search(query, k, algorithm=algorithm, scored=scored))
        for algorithm in ALGORITHMS for scored in (False, True)
    }


# ----------------------------------------------------------------------
# The premise
# ----------------------------------------------------------------------
def test_a_write_the_query_does_not_match_leaves_every_answer_identical():
    rng = random.Random("write-locality:premise")
    cases = 0
    while cases < 120:
        relation = random_relation(rng, max_rows=30)
        engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
        query = _query(rng, weighted=rng.random() < 0.5)
        k = rng.randint(1, 8)
        if rng.random() < 0.5:
            row = relation.schema.coerce_row(_row(rng))
            if query.matches(_row_dict(relation, row)):
                continue
            before = _everything(engine, query, k)
            engine.insert(row)
        else:
            unmatched = [rid for rid, row in relation.iter_live()
                         if not query.matches(_row_dict(relation, row))]
            if not unmatched:
                continue
            before = _everything(engine, query, k)
            assert engine.delete(rng.choice(unmatched))
        assert _everything(engine, query, k) == before, (query, k)
        cases += 1


def test_row_test_agrees_with_query_matches():
    rng = random.Random("write-locality:row-test")
    schema = random_relation(rng).schema
    names = schema.names
    for _ in range(300):
        row = schema.coerce_row(_row(rng))
        write = _Write(1, row)  # one slot, many plans: its token memo is reused
        for _ in range(4):
            query = _query(rng)
            expected = query.matches(dict(zip(names, row)))
            assert write.touches(query, schema.position) == expected, (row, query)
            assert write.touches(normalise(query), schema.position) == expected


def test_repeated_and_multi_token_keywords():
    schema = random_relation(random.Random(0)).schema
    write = _Write(1, ("A", "m1", "red", "Low, low MILES"))
    for keywords, expected in (("low", True), ("low miles", True),
                               ("miles low", True), ("low low", True),
                               ("low fun", False)):
        query = Query.keyword("desc", keywords)
        assert write.touches(query, schema.position) is expected
        assert query.matches(dict(zip(schema.names, write.row))) is expected


# ----------------------------------------------------------------------
# The ring
# ----------------------------------------------------------------------
@pytest.fixture
def serving():
    engine = ServingEngine.from_relation(
        random_relation(random.Random(7), max_rows=30), RANDOM_ORDERING)
    yield engine
    engine.close()


def _hit(serving, query: str = QUERY, k: int = 3) -> bool:
    result = serving.search(query, k)
    assert _answers(result) == _answers(serving.engine.search(query, k))
    return bool(result.stats["cache_hit"])


def _missing_writes(serving, count: int) -> None:
    """``count`` epoch steps, none of whose rows matches ``QUERY``."""
    for step in range(count):
        if step % 2 == 0:
            rid = serving.insert(MISSING)
        else:
            assert serving.delete(rid)


class TestRing:
    def test_a_write_the_plan_misses_keeps_the_entry(self, serving):
        assert not _hit(serving)
        invalidations = serving.stats.epoch_invalidations
        _missing_writes(serving, 3)
        assert _hit(serving)
        assert serving.stats.epoch_invalidations == invalidations

    def test_a_write_past_the_cache_drops_the_entry(self, serving):
        _hit(serving)
        serving.engine.insert(MISSING)
        _missing_writes(serving, 1)  # a recorded step cannot cover the gap
        assert not _hit(serving)
        assert serving.stats.epoch_invalidations == 1

    def test_the_ring_holds_64_steps_and_no_more(self, serving):
        _hit(serving)
        _missing_writes(serving, WRITE_RING)
        assert _hit(serving)
        _missing_writes(serving, WRITE_RING + 1)
        assert not _hit(serving)

    def test_a_matching_insert_drops_the_entry(self, serving):
        _hit(serving)
        serving.insert(MATCHING)
        assert not _hit(serving)

    def test_a_matching_delete_drops_the_entry(self, serving):
        matches = serving.engine.search(QUERY, 30).rids
        _hit(serving)
        assert serving.delete(matches[-1])
        assert not _hit(serving)

    def test_a_write_that_raises_leaves_no_record(self, serving, monkeypatch):
        _hit(serving)
        with pytest.raises(ValueError):
            serving.insert(MISSING[:2])  # refused before anything changed
        assert serving.cache.results._writes == [None] * WRITE_RING
        # Applied, then failed: the epoch moved but nothing vouches for it.
        insert = serving.engine.insert

        def applied_then_failed(row):
            insert(row)
            raise RuntimeError("acknowledgement lost")

        monkeypatch.setattr(serving.engine, "insert", applied_then_failed)
        with pytest.raises(RuntimeError):
            serving.insert(MISSING)
        assert serving.cache.results._writes == [None] * WRITE_RING
        assert not _hit(serving)

    def test_pages_follow_the_same_rule(self, serving):
        first = serving.search_page(QUERY, page=2, page_size=2)
        _missing_writes(serving, 2)
        again = serving.search_page(QUERY, page=2, page_size=2)
        assert again.stats["cache_hit"] == 1 and again.deweys == first.deweys
        serving.insert(MATCHING)
        assert serving.search_page(QUERY, page=2, page_size=2).stats[
            "cache_hit"] == 0

    def test_a_recovered_engine_inherits_no_vouching(self, tmp_path):
        relation = random_relation(random.Random(7), max_rows=30)
        first = ServingEngine.from_relation(relation, RANDOM_ORDERING,
                                            data_dir=tmp_path)
        other = "color = 'blue'"  # MISSING does not match it either
        _hit(first)
        _hit(first, other)
        _missing_writes(first, 1)
        assert _hit(first)  # re-stamped at the current epoch
        first.close()
        cache = first.cache
        second = ServingEngine.recover(tmp_path, cache=cache)
        assert second.epoch == 1
        assert _hit(second)  # stamped at exactly this epoch
        # Stamped before a step only the old engine's ring recorded.
        assert not _hit(second, other)
        _missing_writes(second, 1)
        assert _hit(second)  # the recovered engine's own write is recorded
        second.engine.insert(MISSING)
        assert not _hit(second)
        second.close()

    def test_concurrent_writer_and_zipf_readers(self):
        """Every hit a reader gets while a writer runs equals a from-scratch
        run at the epoch it was served at (of its algorithm, for ``auto``):
        one writer and three readers, switching every 10 µs.  The engine
        does not isolate a running miss from a write (a delete can remove
        a row a miss is materialising), so its own calls are serialised
        here; everything the cache does — epoch reads, lookups,
        validation, ring records — runs unguarded."""
        rng = random.Random("write-locality:threads")
        relation = random_relation(rng, max_rows=40)
        pristine = _clone(relation)
        serving = ServingEngine.from_relation(relation, RANDOM_ORDERING)
        engine, engine_lock = serving.engine, threading.RLock()
        for name in ("prepare", "plan", "execute", "insert", "delete"):
            setattr(engine, name, _under(engine_lock, getattr(engine, name)))
        pool = [(_query(rng), rng.randint(1, 5), rng.choice((AUTO, "probe")))
                for _ in range(12)]
        weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
        writes, hits, failures, done = [], [], [], threading.Event()

        def writer():
            live = [rid for rid, _ in relation.iter_live()]
            try:
                for _ in range(120):
                    if live and rng.random() < 0.5:
                        rid = live.pop(rng.randrange(len(live)))
                        serving.delete(rid)
                        writes.append(("delete", rid))
                    else:
                        row = _row(rng)
                        live.append(serving.insert(row))
                        writes.append(("insert", row))
                    time.sleep(0.0005)  # let the readers in between writes
            finally:
                done.set()

        def reader(seed):
            picker = random.Random(f"write-locality:reader:{seed}")
            while not done.is_set():
                query, k, algorithm = picker.choices(pool, weights)[0]
                epoch = serving.epoch
                try:
                    result = serving.search(query, k, algorithm=algorithm)
                except Exception as error:  # surfaced by the assertion below
                    failures.append(error)
                    return
                if result.stats["cache_hit"] and serving.epoch == epoch:
                    ran = result.stats.get("algorithm_selected", algorithm)
                    hits.append((epoch, query, k, ran, _answers(result)))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        serving.close()
        assert failures == [] and len(writes) == 120
        assert hits and max(epoch for epoch, *_ in hits) > 0
        reference = DiversityEngine.from_relation(pristine, RANDOM_ORDERING)
        by_epoch = {}
        for hit in hits:
            by_epoch.setdefault(hit[0], []).append(hit[1:])
        for epoch in range(len(writes) + 1):
            for query, k, ran, answers in by_epoch.get(epoch, ()):
                assert answers == _answers(
                    reference.search(query, k, algorithm=ran)), (epoch, query)
            if epoch < len(writes):
                kind, payload = writes[epoch]
                if kind == "insert":
                    reference.insert(payload)
                else:
                    reference.delete(payload)


# ----------------------------------------------------------------------
# Costs, as counts
# ----------------------------------------------------------------------
@pytest.fixture
def row_tests(monkeypatch):
    """Counts row tests: top-level ``_Write.touches`` calls (its recursion
    over the plan's children is the same test)."""
    counted, depth = [0], [0]
    touches = _Write.touches

    def counting(self, node, position):
        counted[0] += depth[0] == 0
        depth[0] += 1
        try:
            return touches(self, node, position)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_Write, "touches", counting)
    return lambda: counted[0]


class TestCosts:
    def test_entries_gain_no_field(self):
        assert _ResultEntry.__slots__ == ("result", "epoch")

    def test_a_write_takes_the_lock_once_and_walks_no_plan(
            self, serving, row_tests):
        for query in (QUERY, "desc CONTAINS 'low'", "color = 'red'"):
            _hit(serving, query)
        lock = serving.cache._lock = CountingLock(serving.cache._lock)
        rid = serving.insert(MATCHING)
        assert lock.acquired == 1
        assert serving.delete(rid)
        assert lock.acquired == 2
        assert row_tests() == 0

    def test_hits_test_only_the_rows_written_since(self, serving, row_tests):
        _hit(serving)
        assert _hit(serving) and row_tests() == 0  # current stamp: no test
        _missing_writes(serving, 1)
        assert _hit(serving) and row_tests() == 1
        assert _hit(serving) and row_tests() == 1  # re-stamped
        _missing_writes(serving, WRITE_RING)
        assert _hit(serving) and row_tests() == 1 + WRITE_RING
        _missing_writes(serving, WRITE_RING + 1)
        assert not _hit(serving) and row_tests() == 1 + WRITE_RING

    def test_a_cache_that_saw_no_write_vouches_for_none(self, cars_engine):
        serving = ServingEngine(cars_engine, ServingCache())
        serving.search("Make = 'Honda'", 3)
        cars_engine.insert(("Kia", "Rio", "Red", 2005, "commuter"))
        serving.insert(("Kia", "Rio", "Blue", 2006, "commuter"))
        result = serving.search("Make = 'Honda'", 3)
        assert result.stats["cache_hit"] == 0
        # Seeded at the first recorded write: the next one is vouched for.
        serving.insert(("Kia", "Rio", "Green", 2007, "commuter"))
        assert serving.search("Make = 'Honda'", 3).stats["cache_hit"] == 1
