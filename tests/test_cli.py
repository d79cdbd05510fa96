"""Tests for the command-line interface."""

import io

import pytest

from repro.__main__ import main
from repro.data.paper_example import figure1_relation
from repro.storage.csvio import write_csv


@pytest.fixture
def cars_csv(tmp_path):
    path = tmp_path / "cars.csv"
    write_csv(figure1_relation(), path)
    return path


@pytest.fixture
def built_snapshot(cars_csv, tmp_path):
    out = tmp_path / "cars.idx"
    code = main([
        "build", str(cars_csv),
        "--ordering", "Make,Model,Color,Year,Description",
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestBuild:
    def test_build_reports_stats(self, cars_csv, tmp_path, capsys):
        out = tmp_path / "cars.idx"
        code = main([
            "build", str(cars_csv),
            "--ordering", "Make,Model",
            "--out", str(out), "--backend", "compressed",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "indexed 15 rows" in text
        assert "backend=compressed" in text
        assert out.exists()


class TestQuery:
    def test_basic_query(self, built_snapshot, capsys):
        code = main(["query", str(built_snapshot), "Make = 'Honda'", "-k", "3"])
        assert code == 0
        text = capsys.readouterr().out
        assert "Honda" in text
        assert "[3 results, probe, " in text

    def test_scored_query(self, built_snapshot, capsys):
        code = main([
            "query", str(built_snapshot),
            "Make = 'Toyota' [2] OR Description CONTAINS 'miles'",
            "-k", "4", "--scored", "--algorithm", "onepass",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "score" in text
        assert "scored" in text

    def test_stats_flag(self, built_snapshot, capsys):
        code = main([
            "query", str(built_snapshot), "Make = 'Honda'", "--stats",
        ])
        assert code == 0
        assert "next_calls" in capsys.readouterr().out

    def test_parse_error_exit_code(self, built_snapshot, capsys):
        code = main(["query", str(built_snapshot), "Make = "])
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_no_results(self, built_snapshot, capsys):
        code = main(["query", str(built_snapshot), "Make = 'Tesla'"])
        assert code == 0
        assert "(no results)" in capsys.readouterr().out


class TestCacheFlag:
    def test_stats_show_cache_counters_by_default(self, built_snapshot, capsys):
        code = main(["query", str(built_snapshot), "Make = 'Honda'", "--stats"])
        assert code == 0
        text = capsys.readouterr().out
        assert "cache_hit" in text
        assert "cache_misses" in text

    def test_no_cache_flag_disables_counters(self, built_snapshot, capsys):
        code = main([
            "query", str(built_snapshot), "Make = 'Honda'", "--stats", "--no-cache",
        ])
        assert code == 0
        assert "cache_hit" not in capsys.readouterr().out

    def test_shell_repeated_query_hits_cache(self, built_snapshot, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("Make = 'Honda'\nMake = 'Honda'\nexit\n")
        )
        code = main(["shell", str(built_snapshot), "-k", "2", "--stats"])
        assert code == 0
        text = capsys.readouterr().out
        assert "cache_hit: 0" in text
        assert "cache_hit: 1" in text


class TestShell:
    def test_shell_session(self, built_snapshot, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("Make = 'Toyota'\nexit\n")
        )
        code = main(["shell", str(built_snapshot), "-k", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "repro shell" in text
        assert "Toyota" in text

    def test_shell_blank_line_quits(self, built_snapshot, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n"))
        assert main(["shell", str(built_snapshot)]) == 0


class TestDemo:
    def test_default_demo(self, capsys):
        assert main(["demo"]) == 0
        text = capsys.readouterr().out
        assert "Figure 1(a)" in text
        assert "Honda" in text

    def test_demo_custom_query(self, capsys):
        assert main(["demo", "Description CONTAINS 'Low'", "-k", "3"]) == 0
        assert "results" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRefusedValues:
    @pytest.mark.parametrize("argv", [
        ["demo", "--deadline-ms", "-5"],
        ["demo", "--deadline-ms", "nan"],
        ["demo", "--retries", "-1"],
        ["serve", "--port", "0", "--queue-depth", "0"],
    ], ids=["negative-deadline", "nan-deadline", "negative-retries",
            "zero-queue-depth"])
    def test_refused_value_exits_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1, err
        assert "must be" in err


class TestAutoAlgorithm:
    def test_query_with_auto_prints_selection(self, built_snapshot, capsys):
        code = main([
            "query", str(built_snapshot), "Make = 'Honda'",
            "-k", "3", "--algorithm", "auto",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "auto->" in text
        assert "Honda" in text

    def test_auto_stats_carry_plan_features(self, built_snapshot, capsys):
        code = main([
            "query", str(built_snapshot), "Make = 'Honda'",
            "--algorithm", "auto", "--stats",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "algorithm_selected" in text
        assert "plan_est_matches" in text

    def test_demo_supports_auto(self, capsys):
        assert main(["demo", "--algorithm", "auto"]) == 0
        assert "auto->" in capsys.readouterr().out


def _cost_rows(text):
    """``plan explain``'s cost table: algorithm -> its row."""
    table = text.split("costs (seek units, lower wins):\n", 1)[1]
    return {line.split()[0]: line.strip() for line in table.splitlines()}


class TestPlanExplain:
    def test_explain_demo_default_query(self, capsys):
        assert main(["plan", "explain"]) == 0
        text = capsys.readouterr().out
        assert "query: Make = 'Honda'" in text
        assert "<- selected" in text
        assert "costs (seek units, lower wins):" in text
        assert set(_cost_rows(text)) == {"probe", "naive"}

    def test_explain_query_text_positional(self, capsys):
        assert main(["plan", "explain", "Color = 'Blue'", "-k", "3"]) == 0
        text = capsys.readouterr().out
        assert "query: Color = 'Blue'" in text
        assert set(_cost_rows(text)) == {"probe", "naive"}
        for algorithm in ("onepass", "basic", "multq"):
            assert algorithm not in text

    @pytest.mark.parametrize("named, like", [
        ("onepass", "naive"), ("multq", "naive"), ("basic", "probe"),
    ])
    def test_explain_prices_a_named_algorithm(self, capsys, named, like):
        """A named non-candidate gets one more row, at the price of the
        candidate whose access pattern it shares."""
        assert main(["plan", "explain", "--algorithm", named]) == 0
        text = capsys.readouterr().out
        rows = _cost_rows(text)
        assert set(rows) == {"probe", "naive", named}
        assert "(named; not an auto candidate)" in rows[named]
        assert rows[named].split()[1] == rows[like].split()[1]

    def test_explain_against_snapshot(self, built_snapshot, capsys):
        code = main([
            "plan", "explain", str(built_snapshot), "Make = 'Honda'", "-k", "4",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "plan:" in text
        assert "est matches" in text

    def test_explain_parse_error(self, capsys):
        assert main(["plan", "explain", "Make = "]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_explain_sharded(self, capsys):
        assert main(["plan", "explain", "--shards", "2"]) == 0
        assert "<- selected" in capsys.readouterr().out


class TestMetricsAuto:
    def test_metrics_accepts_auto_and_checks_bounds(self, capsys):
        code = main([
            "metrics", "--limit", "4", "--repeat", "1",
            "--algorithms", "probe,auto", "--check",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "bounds ok" in captured.err
        assert "repro_plan_choice_total" in captured.out


class TestCommandsCloseWhatTheyOpen:
    """Every command owns one ``ServingEngine`` for the length of a
    ``with`` block: ``main`` runs in-process here, so a WAL handle or a
    fan-out pool left open would leak into the pytest process."""

    @pytest.fixture
    def opened_wals(self, monkeypatch):
        from repro.durability.wal import WriteAheadLog

        opened = []
        original = WriteAheadLog.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            opened.append(self)

        monkeypatch.setattr(WriteAheadLog, "__init__", recording)
        return opened

    @staticmethod
    def _shard_threads():
        import threading

        return sorted(thread.name for thread in threading.enumerate()
                      if thread.name.startswith("repro-"))

    def _build_store(self, cars_csv, tmp_path, *extra):
        store = tmp_path / "store"
        assert main([
            "build", str(cars_csv), "--ordering", "Make,Model,Color",
            "--data-dir", str(store), *extra,
        ]) == 0
        return store

    def test_build_closes_the_stores_it_writes(
            self, cars_csv, tmp_path, opened_wals):
        self._build_store(cars_csv, tmp_path, "--shards", "2")
        assert len(opened_wals) == 2
        assert all(wal.closed for wal in opened_wals)

    def test_recover_and_query_close_every_wal(
            self, cars_csv, tmp_path, opened_wals, capsys):
        store = self._build_store(cars_csv, tmp_path, "--shards", "2",
                                  "--replicas", "2")
        del opened_wals[:]
        threads = self._shard_threads()
        assert main(["recover", str(store)]) == 0
        assert main([
            "query", str(store), "Make = 'Honda'", "-k", "2",
            "--algorithm", "naive",
        ]) == 0
        assert main([
            "plan", "explain", str(store), "Make = 'Honda'",
        ]) == 0
        assert len(opened_wals) == 6  # three commands x two shard logs
        assert all(wal.closed for wal in opened_wals)
        assert self._shard_threads() == threads
        assert "Honda" in capsys.readouterr().out

    def test_sharded_snapshot_query_releases_its_workers(
            self, built_snapshot, capsys):
        import multiprocessing

        threads = self._shard_threads()
        children = multiprocessing.active_children()
        assert main([
            "query", str(built_snapshot), "Make = 'Honda'", "-k", "3",
            "--algorithm", "naive", "--shards", "3", "--workers", "2",
            "--worker-mode", "process",
        ]) == 0
        assert "[3 results, naive" in capsys.readouterr().out
        assert self._shard_threads() == threads
        assert multiprocessing.active_children() == children

    def test_refused_flag_combinations_exit_2(self, built_snapshot, capsys):
        for flags in (["--shards", "0"], ["--replicas", "2"],
                      ["--shards", "2", "--replicas", "2", "--workers", "2",
                       "--worker-mode", "process"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["query", str(built_snapshot), "Make = 'Honda'", *flags])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.strip()
