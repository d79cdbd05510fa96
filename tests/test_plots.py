"""Tests for the ASCII chart renderer."""

import pytest

from paper.figures import FigureResult
from paper.plots import render_ascii_chart


@pytest.fixture
def figure():
    return FigureResult(
        figure="fig6",
        title="Varying k (Unscored)",
        x_label="number of results k",
        x_values=[1, 10, 100],
        series={
            "UNaive": [2.0, 2.0, 2.0],
            "UProbe": [0.002, 0.01, 0.14],
        },
    )


class TestRenderAsciiChart:
    def test_contains_title_axis_legend(self, figure):
        chart = render_ascii_chart(figure)
        assert "fig6" in chart
        assert "number of results k" in chart
        assert "o=UNaive" in chart and "x=UProbe" in chart

    def test_log_scale_separates_series(self, figure):
        chart = render_ascii_chart(figure, log_y=True)
        plot_rows = [
            (i, line.split("|", 1)[1])
            for i, line in enumerate(chart.splitlines())
            if "|" in line
        ]
        # The flat UNaive series sits on a single row near the top; UProbe
        # rises but stays below it.
        naive_rows = [i for i, body in plot_rows if "o" in body]
        probe_rows = [i for i, body in plot_rows if "x" in body]
        assert naive_rows and probe_rows
        assert min(probe_rows) > max(naive_rows)

    def test_linear_scale(self, figure):
        chart = render_ascii_chart(figure, log_y=False)
        assert "log-scale" not in chart

    def test_overlap_marker(self):
        result = FigureResult(
            figure="f", title="t", x_label="x", x_values=[1],
            series={"A": [1.0], "B": [1.0]},
        )
        assert "!" in render_ascii_chart(result)

    def test_single_point(self):
        result = FigureResult(
            figure="f", title="t", x_label="x", x_values=[5],
            series={"A": [3.0]},
        )
        chart = render_ascii_chart(result)
        assert "5" in chart

    def test_empty_series(self):
        result = FigureResult(
            figure="f", title="t", x_label="x", x_values=[], series={},
        )
        assert "(no data)" in render_ascii_chart(result)

    def test_zero_values_fall_back_to_linear(self):
        result = FigureResult(
            figure="f", title="t", x_label="x", x_values=[1, 2],
            series={"A": [0.0, 0.0]},
        )
        chart = render_ascii_chart(result, log_y=True)
        assert "log-scale" not in chart

    def test_size_validation(self, figure):
        with pytest.raises(ValueError):
            render_ascii_chart(figure, width=5)
        with pytest.raises(ValueError):
            render_ascii_chart(figure, height=2)

    def test_cli_plot_flag(self, capsys):
        import os

        from paper.__main__ import main

        os.environ["REPRO_BENCH_ROWS"] = "300"
        os.environ["REPRO_BENCH_QUERIES"] = "2"
        try:
            assert main(["abl-probes", "--plot"]) == 0
        finally:
            del os.environ["REPRO_BENCH_ROWS"]
            del os.environ["REPRO_BENCH_QUERIES"]
        out = capsys.readouterr().out
        assert "legend:" in out
