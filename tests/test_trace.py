"""Tests for execution tracing."""

from repro.core.dewey import LEFT, RIGHT
from repro.core.onepass import one_pass_scored, one_pass_unscored
from repro.core.probing import probe_unscored
from repro.index.merged import MergedList
from repro.query.parser import parse_query

from .tracing import ProbeEvent, TracingMergedList


def traced(index, text):
    return TracingMergedList(MergedList(parse_query(text), index))


class TestTracingMergedList:
    def test_records_next(self, cars_index):
        trace = traced(cars_index, "Make = 'Honda'")
        first = trace.first()
        assert first is not None
        assert trace.probe_count() == 1
        event = trace.events[0]
        assert event.kind == "next"
        assert event.result == first

    def test_transparent_results(self, cars_index):
        plain = MergedList(parse_query("Year = 2007"), cars_index)
        trace = traced(cars_index, "Year = 2007")
        assert trace.first() == plain.first()
        assert trace.depth == plain.depth
        assert trace.max_score() == plain.max_score()

    def test_records_scored(self, cars_index):
        trace = traced(cars_index, "Make = 'Toyota' [2] OR Year = 2007")
        from repro.core.dewey import zeros

        trace.next_scored(zeros(trace.depth), LEFT, 2.0)
        assert trace.events[-1].kind == "next_scored"
        assert trace.events[-1].theta == 2.0

    def test_render(self, cars_index):
        trace = traced(cars_index, "Make = 'Honda'")
        trace.first()
        text = trace.render()
        assert "next(" in text and "LEFT" in text

    def test_event_describe_null(self):
        event = ProbeEvent("next", (0, 0), LEFT, None)
        assert event.describe().endswith("NULL")


class TestAlgorithmTraces:
    def test_onepass_bounds_increase(self, cars_index):
        """The defining one-pass property, read off the trace."""
        trace = traced(cars_index, "Make = 'Honda'")
        one_pass_unscored(trace, 4)
        bounds = [e.bound for e in trace.events]
        assert bounds == sorted(bounds)

    def test_probe_trace_is_bidirectional(self, cars_index):
        trace = traced(cars_index, "Description CONTAINS 'Low'")
        probe_unscored(trace, 3)
        directions = {e.direction for e in trace.events}
        assert directions == {LEFT, RIGHT}
        assert trace.probe_count() <= 2 * 3

    def test_scored_onepass_uses_scored_steps(self, cars_index):
        trace = traced(cars_index, "Make = 'Toyota' [2] OR Year = 2007")
        one_pass_scored(trace, 3)
        kinds = {e.kind for e in trace.events}
        assert "next_onepass" in kinds

    def test_skip_levels(self, cars_index):
        trace = traced(cars_index, "Make = 'Honda'")
        one_pass_unscored(trace, 3)
        levels = trace.skip_levels()
        assert all(0 <= level <= trace.depth for level in levels)
