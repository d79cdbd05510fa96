"""Tests for diverse pagination."""

import pytest

from repro import DiversityEngine, is_diverse
from repro.core.pagination import DiversePaginator, ExcludingMergedList
from repro.core.dewey import LEFT, RIGHT, maxes, zeros
from repro.core.onepass import one_pass_unscored
from repro.data.paper_example import figure1_ordering, figure1_relation
from repro.index.merged import MergedList
from repro.query.evaluate import res
from repro.query.parser import parse_query


class TestExcludingMergedList:
    def test_skips_excluded(self, cars_index):
        merged = MergedList(parse_query("Make = 'Toyota'"), cars_index)
        toyotas = list(cars_index.scalar_postings("Make", "Toyota"))
        view = ExcludingMergedList(merged, {toyotas[0], toyotas[2]})
        collected = []
        current = view.first()
        from repro.core.dewey import successor

        while current is not None:
            collected.append(current)
            current = view.next(successor(current))
        assert collected == [toyotas[1], toyotas[3]]

    def test_right_direction(self, cars_index):
        merged = MergedList(parse_query("Make = 'Toyota'"), cars_index)
        toyotas = list(cars_index.scalar_postings("Make", "Toyota"))
        view = ExcludingMergedList(merged, {toyotas[-1]})
        assert view.next(maxes(cars_index.depth), RIGHT) == toyotas[-2]

    def test_contains_respects_exclusion(self, cars_index):
        merged = MergedList(parse_query("Make = 'Toyota'"), cars_index)
        toyotas = list(cars_index.scalar_postings("Make", "Toyota"))
        view = ExcludingMergedList(merged, {toyotas[0]})
        assert not view.contains(toyotas[0])
        assert view.contains(toyotas[1])

    def test_one_pass_skips_count_on_the_wrapped_list(self, cars_index):
        plain = MergedList(parse_query(""), cars_index)
        merged = MergedList(parse_query(""), cars_index)
        view = ExcludingMergedList(merged, set())
        assert one_pass_unscored(view, 3) == one_pass_unscored(plain, 3)
        assert merged.skip_jumps == view.skip_jumps == plain.skip_jumps > 0
        assert "skip_jumps" not in vars(view)


class TestPaginator:
    @pytest.mark.parametrize("algorithm", ["probe", "onepass"])
    def test_pages_do_not_overlap(self, cars_engine, algorithm):
        paginator = DiversePaginator(
            cars_engine, "Make = 'Honda'", page_size=4, algorithm=algorithm
        )
        seen = set()
        for page in paginator.pages():
            deweys = set(page.deweys)
            assert not deweys & seen
            seen |= deweys
        assert len(seen) == 11  # all Hondas eventually shown

    def test_each_page_is_diverse_over_remaining(self, cars, cars_engine):
        query = parse_query("Make = 'Honda'")
        full = {cars_engine.index.dewey.dewey_of(r) for r in res(cars, query)}
        paginator = DiversePaginator(cars_engine, query, page_size=4)
        remaining = set(full)
        for page in paginator.pages():
            assert is_diverse(page.deweys, remaining, 4)
            remaining -= set(page.deweys)

    def test_first_page_matches_plain_search_quality(self, cars, cars_engine):
        paginator = DiversePaginator(cars_engine, "Year = 2007", page_size=5)
        page = paginator.next_page()
        full = [
            cars_engine.index.dewey.dewey_of(r)
            for r in res(cars, parse_query("Year = 2007"))
        ]
        assert is_diverse(page.deweys, full, 5)

    def test_exhaustion_returns_empty_pages(self, cars_engine):
        paginator = DiversePaginator(cars_engine, "Make = 'Toyota'", page_size=3)
        first = paginator.next_page()
        second = paginator.next_page()
        third = paginator.next_page()
        assert len(first) == 3 and len(second) == 1
        assert len(third) == 0

    def test_pages_iterator_limit(self, cars_engine):
        paginator = DiversePaginator(cars_engine, "", page_size=2)
        pages = list(paginator.pages(limit=3))
        assert len(pages) == 3

    def test_reset(self, cars_engine):
        paginator = DiversePaginator(cars_engine, "Make = 'Toyota'", page_size=2)
        first = paginator.next_page()
        paginator.reset()
        again = paginator.next_page()
        assert first.deweys == again.deweys

    def test_invalid_arguments(self, cars_engine):
        with pytest.raises(ValueError):
            DiversePaginator(cars_engine, "", page_size=0)
        with pytest.raises(ValueError):
            DiversePaginator(cars_engine, "", page_size=2, algorithm="naive")

    def test_items_materialised(self, cars_engine):
        paginator = DiversePaginator(cars_engine, "Make = 'Honda'", page_size=3)
        page = paginator.next_page()
        assert all(item["Make"] == "Honda" for item in page)
