"""Smoke tests for the benchmark harness and figure drivers (tiny scales)."""

import io

import pytest

from paper.figures import (
    ALL_FIGURES,
    FigureResult,
    ablation_backend,
    ablation_probe_counts,
    ablation_skipping,
    figure5,
    figure6,
    figure7,
    figure8,
    summary_table,
)
from paper.harness import (
    ALGORITHM_TAGS,
    ResilientTiming,
    env_int,
    run_chaos_workload,
    run_matrix,
    run_one,
    run_workload,
)
from paper.report import render_text, to_csv_string, write_csv
from repro.core.engine import DiversityEngine
from repro.sharding import ShardedEngine
from repro.data.autos import AutosSpec, autos_ordering, generate_autos
from repro.data.workload import WorkloadGenerator, WorkloadSpec
from repro.index.inverted import InvertedIndex


@pytest.fixture(scope="module")
def small_index():
    relation = generate_autos(AutosSpec(rows=400, seed=7))
    return InvertedIndex.build(relation, autos_ordering())


@pytest.fixture(scope="module")
def small_workload(small_index):
    return WorkloadGenerator(
        small_index.relation,
        WorkloadSpec(queries=4, predicates=1, selectivity=0.5, seed=2),
    ).materialise()


class TestHarness:
    def test_all_tags_run(self, small_index, small_workload):
        for tag in ALGORITHM_TAGS:
            timing = run_workload(small_index, small_workload, 5, tag)
            assert timing.algorithm == tag
            assert timing.total_seconds >= 0
            assert timing.queries == len(small_workload)

    def test_unknown_tag(self, small_index, small_workload):
        with pytest.raises(ValueError):
            run_workload(small_index, small_workload, 5, "UQuantum")

    def test_run_one_stats(self, small_index, small_workload):
        elapsed, count, stats = run_one(small_index, small_workload[0], 5, "UProbe")
        assert elapsed >= 0 and count <= 5
        assert stats["next_calls"] <= 10 + 1

    def test_run_sharded_workload(self, small_index, small_workload):
        """The engine runner reports shard/worker metadata and returns the
        same result counts as the plain runner (answers are identical)."""
        sharded = ShardedEngine.from_relation(
            small_index.relation, autos_ordering(), shards=3, workers=2
        )
        plain = run_workload(small_index, small_workload, 5, "UProbe")
        timing = run_chaos_workload(sharded, small_workload, 5, "UProbe")
        assert timing.shards == 3 and timing.workers == 2
        assert timing.queries == plain.queries
        assert timing.results_returned == plain.results_returned
        assert timing.total_seconds >= 0
        assert timing.failed_queries == timing.degraded_queries == 0

    def test_run_sharded_workload_accepts_plain_engine(self, small_index, small_workload):
        engine = DiversityEngine(small_index)
        timing = run_chaos_workload(engine, small_workload, 5, "UNaive")
        assert timing.shards == 1 and timing.workers == 0
        assert timing.queries == len(small_workload)

    def test_run_sharded_workload_rejects_bad_tags(self, small_index, small_workload):
        engine = DiversityEngine(small_index)
        with pytest.raises(ValueError):
            run_chaos_workload(engine, small_workload, 5, "NoSuchTag")
        with pytest.raises(ValueError):
            run_chaos_workload(engine, small_workload, 5, "UOnePassNoSkip")

    def test_percentile_is_nearest_rank(self):
        """Rank ``ceil(p/100 * n)``: no round-half-to-even on the midpoints."""
        timing = ResilientTiming(
            algorithm="UProbe", total_seconds=0.0, queries=5,
            results_returned=0, next_calls=0, scored_next_calls=0,
            latencies_ms=[5.0, 1.0, 4.0, 2.0, 3.0],
        )
        assert [timing.percentile_ms(p) for p in (0, 20, 50, 90, 100)] == [
            1.0, 1.0, 3.0, 5.0, 5.0,
        ]

    def test_multq_counts_queries(self, small_index, small_workload):
        timing = run_workload(small_index, small_workload[:1], 3, "MultQ")
        assert timing.queries_issued > 0

    def test_run_matrix(self, small_index, small_workload):
        timings = run_matrix(small_index, small_workload, 3, ["UBasic", "UProbe"])
        assert [t.algorithm for t in timings] == ["UBasic", "UProbe"]

    def test_mean_ms(self, small_index, small_workload):
        timing = run_workload(small_index, small_workload, 3, "UBasic")
        assert timing.mean_ms == pytest.approx(
            1000 * timing.total_seconds / timing.queries
        )

    def test_env_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_ENV", "42")
        assert env_int("REPRO_TEST_ENV", 7) == 42
        monkeypatch.delenv("REPRO_TEST_ENV")
        assert env_int("REPRO_TEST_ENV", 7) == 7
        monkeypatch.setenv("REPRO_TEST_ENV", "zero")
        with pytest.raises(ValueError):
            env_int("REPRO_TEST_ENV", 7)
        monkeypatch.setenv("REPRO_TEST_ENV", "-3")
        with pytest.raises(ValueError):
            env_int("REPRO_TEST_ENV", 7)


class TestFigureDrivers:
    def test_figure5_shape(self):
        result = figure5(rows_grid=[200, 400], queries=2, k=4)
        assert result.figure == "fig5"
        assert result.x_values == [200, 400]
        assert set(result.series) == {"UNaive", "UBasic", "UOnePass", "UProbe"}
        for series in result.series.values():
            assert len(series) == 2

    def test_figure6_shape(self):
        result = figure6(k_grid=[1, 5], rows=300, queries=2)
        assert result.x_values == [1, 5]
        assert all(len(v) == 2 for v in result.series.values())

    def test_figure6_with_multq(self):
        result = figure6(k_grid=[2], rows=200, queries=2, include_multq=True)
        assert "MultQ" in result.series

    def test_figure7_shape(self):
        result = figure7(buckets=(0.2, 0.8), rows=300, queries=4)
        # Empty buckets are dropped; whatever remains is a subset in order.
        assert set(result.x_values) <= {0.2, 0.8}
        assert result.x_values
        assert "queries_per_bucket" in result.meta
        assert all(count > 0 for count in result.meta["queries_per_bucket"])

    def test_figure8_shape(self):
        result = figure8(k_grid=[1, 3], rows=300, queries=2)
        assert set(result.series) == {"SNaive", "SBasic", "SOnePass", "SProbe"}

    def test_summary_shape(self):
        result = summary_table(rows=300, queries=2, k=3)
        assert "MultQ" in result.series and "SProbe" in result.series

    def test_ablation_probe_counts_under_bound(self):
        result = ablation_probe_counts(k_grid=[2, 5], rows=300, queries=4)
        measured = result.series["measured next() calls"]
        bound = result.series["2k bound"]
        assert all(m <= b for m, b in zip(measured, bound))

    def test_ablation_backend(self):
        result = ablation_backend(rows=300, queries=2, k=3)
        for backend in ("array", "compressed"):
            assert f"UProbe/{backend}" in result.series
            assert result.series[f"build/{backend}"][0] > 0
        assert result.series["bytes_per_posting/compressed"] == [8.0]

    def test_ablation_skipping(self):
        result = ablation_skipping(k_grid=[3], rows=300, queries=2)
        assert set(result.series) == {"UOnePass", "UOnePassNoSkip"}

    def test_registry_complete(self):
        assert set(ALL_FIGURES) == {
            "fig5", "fig6", "fig7", "fig8", "summary",
            "abl-probes", "abl-backend", "abl-skip", "abl-cxk",
        }

    def test_ablation_cxk(self):
        from paper.figures import ablation_cxk

        result = ablation_cxk(c_values=(1, 4), rows=300, queries=3, k=4)
        assert set(result.series) == {"retrieve-c*k + MMR", "UProbe (exact)"}
        assert result.series["UProbe (exact)"] == [0.0, 0.0]


class TestReport:
    @pytest.fixture
    def result(self):
        return FigureResult(
            figure="figX",
            title="Demo",
            x_label="k",
            x_values=[1, 2],
            series={"A": [0.5, 1.0], "B": [0.25, 0.75]},
            meta={"rows": 10},
        )

    def test_render_text(self, result):
        text = render_text(result)
        assert "figX" in text and "Demo" in text
        assert "0.5000" in text and "rows=10" in text

    def test_csv(self, result, tmp_path):
        text = to_csv_string(result)
        assert text.splitlines()[0] == "k,A,B"
        assert text.splitlines()[1] == "1,0.5,0.25"
        path = tmp_path / "fig.csv"
        write_csv(result, path)
        assert path.read_text().startswith("k,A,B")

    def test_row_pairs(self, result):
        rows = result.row_pairs()
        assert rows[0] == (1, {"A": 0.5, "B": 0.25})


class TestCli:
    def test_list(self, capsys):
        from paper.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "abl-skip" in out

    def test_unknown_figure(self):
        from paper.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
