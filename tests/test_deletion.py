"""Tests for listing deletion (tombstones + index removal) end to end."""

import pytest

from repro import DiversityEngine, is_diverse
from paper.extensions.incremental import DiverseView
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.inverted import InvertedIndex
from repro.index.compressed import CompressedPostingList
from repro.index.postings import ArrayPostingList
from repro.index.snapshot import load_index, save_index
from repro.query.evaluate import res, selectivity
from repro.query.parser import parse_query
from repro.storage.csvio import to_csv_string


class TestRelationTombstones:
    def test_delete_and_flags(self, cars):
        assert cars.delete(3)
        assert cars.is_deleted(3)
        assert not cars.delete(3)  # idempotent False
        assert cars.live_count == 14
        assert len(cars) == 15  # slots stay

    def test_out_of_range(self, cars):
        with pytest.raises(IndexError):
            cars.delete(99)

    def test_scan_skips_deleted(self, cars):
        cars.delete(0)
        assert 0 not in list(cars.scan())

    def test_iter_live(self, cars):
        cars.delete(1)
        rids = [rid for rid, _ in cars.iter_live()]
        assert 1 not in rids and len(rids) == 14

    def test_distinct_values_ignore_deleted(self, cars):
        for rid in range(11, 15):
            cars.delete(rid)
        assert cars.distinct_values("Make") == ["Honda"]

    def test_evaluate_skips_deleted(self, cars):
        cars.delete(11)
        assert 11 not in res(cars, parse_query("Make = 'Toyota'"))
        assert selectivity(cars, parse_query("Make = 'Toyota'")) == pytest.approx(
            3 / 14
        )

    def test_csv_exports_live_only(self, cars):
        cars.delete(0)
        text = to_csv_string(cars)
        assert len(text.strip().splitlines()) == 1 + 14


@pytest.mark.parametrize("backend_cls", [ArrayPostingList, CompressedPostingList])
class TestPostingRemoval:
    def test_remove(self, backend_cls):
        postings = backend_cls([(0, 1), (2, 3)])
        assert postings.remove((0, 1))
        assert len(postings) == 1
        assert (0, 1) not in postings
        assert not postings.remove((0, 1))

    def test_remove_absent(self, backend_cls):
        postings = backend_cls([(0, 1)])
        assert not postings.remove((9, 9))


class TestIndexRemoval:
    def test_remove_unindexes_everywhere(self, cars):
        index = InvertedIndex.build(cars, figure1_ordering())
        dewey = index.dewey.dewey_of(0)
        assert index.remove(0) == dewey
        assert len(index) == 14
        assert dewey not in index.scalar_postings("Make", "Honda")
        assert dewey not in index.token_postings("Description", "miles")
        assert 0 not in index.dewey
        assert index.remove(0) is None  # idempotent

    def test_queries_stop_returning_removed(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        before = engine.search("Description CONTAINS 'rare'", k=5)
        assert len(before) == 1
        rid = before[0].rid
        assert engine.delete(rid)
        after = engine.search("Description CONTAINS 'rare'", k=5)
        assert len(after) == 0

    def test_engine_delete_is_idempotent(self, cars_engine):
        assert cars_engine.delete(5)
        assert not cars_engine.delete(5)

    def test_results_stay_diverse_after_deletions(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        # Sell three of the four Toyotas.
        for rid in (11, 12, 13):
            engine.delete(rid)
        result = engine.search("Year = 2007", k=5)
        full = [
            engine.index.dewey.dewey_of(r)
            for r in res(cars, parse_query("Year = 2007"))
        ]
        assert is_diverse(result.deweys, full, 5)
        toyotas = sum(1 for item in result if item["Make"] == "Toyota")
        assert toyotas == 1  # only the remaining one

    def test_insert_convenience(self, cars_engine):
        rid = cars_engine.insert(("Tesla", "ModelS", "Red", 2008, "fast"))
        result = cars_engine.search("Make = 'Tesla'", k=2)
        assert result.rids == [rid]

    def test_reinsert_same_values_after_delete(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        engine.delete(7)  # the 'Rare' Odyssey
        rid = engine.insert(("Honda", "Odyssey", "Green", 2007, "Rare"))
        result = engine.search("Description CONTAINS 'rare'", k=3)
        assert result.rids == [rid]


class TestDeletionProperties:
    """Randomized: algorithms stay exact under arbitrary delete patterns."""

    def test_random_deletions_keep_all_algorithms_diverse(self):
        import random

        from repro.core.similarity import is_scored_diverse
        from repro.query.evaluate import scored_res

        from .conftest import RANDOM_ORDERING, random_query, random_relation

        for seed in range(25):
            rng = random.Random(1000 + seed)
            relation = random_relation(rng, max_rows=40)
            engine = DiversityEngine.from_relation(relation, RANDOM_ORDERING)
            total = len(relation)
            for rid in rng.sample(range(total), k=total // 3):
                engine.delete(rid)
            query = random_query(rng, weighted=True)
            k = rng.randint(1, 8)
            full = [
                engine.index.dewey.dewey_of(r) for r in res(relation, query)
            ]
            for algorithm in ("probe", "onepass", "naive"):
                result = engine.search(query, k=k, algorithm=algorithm)
                assert is_diverse(result.deweys, full, k), (seed, algorithm)
            sres = {
                engine.index.dewey.dewey_of(r): s
                for r, s in scored_res(relation, query)
            }
            scored = engine.search(query, k=k, algorithm="probe", scored=True)
            assert is_scored_diverse(scored.deweys, sres, k), seed

    def test_delete_everything_then_queries_empty(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        for rid in range(len(cars)):
            engine.delete(rid)
        assert len(engine.search("", k=10)) == 0
        assert engine.relation.live_count == 0


class TestDeletionWithSnapshotAndView:
    def test_snapshot_roundtrips_deletions(self, cars, tmp_path):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        engine.delete(11)
        path = tmp_path / "cars.idx"
        save_index(engine.index, path)
        restored = DiversityEngine(load_index(path))
        assert restored.relation.is_deleted(11)
        assert restored.relation.live_count == 14
        assert len(restored.search("Make = 'Toyota'", k=10)) == 3

    def test_view_retract(self, cars):
        engine = DiversityEngine.from_relation(cars, figure1_ordering())
        view = DiverseView(engine, "Make = 'Toyota'", k=4)
        assert len(view) == 4
        victim = view.items()[0].rid
        assert view.retract_rid(victim)
        assert len(view) == 3
        assert not view.retract_rid(victim)
        engine.delete(victim)
        view.refresh()
        assert len(view) == 3  # only three Toyotas remain
