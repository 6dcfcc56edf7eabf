import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limpprob import EstimateSummary, LowLoadWarning, RegenParams, cli, model, trials
from limpprob.cli import CSV_HEADER, main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports limpprob from this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _python(cwd, code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports limpprob from this checkout."""
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=_child_env(), capture_output=True, text=True)


def _read_rows(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == CSV_HEADER
    return [line.split(",") for line in lines[2:]]


class TestSweep:
    def test_analytic_read_rows(self, tmp_path, capsys):
        out = tmp_path / "read.csv"
        code, _, _ = _run(
            capsys, "sweep", "--protocol", "read", "--nodes", "10..100:10",
            "--requests", "1", "--mode", "analytic", "--out", str(out),
        )
        assert code == 0
        rows = _read_rows(out)
        assert len(rows) == 10
        for row in rows:
            protocol, n, r, metric, source, value, ci_low, ci_high, trials, seed = row
            assert (protocol, r, metric, source) == ("read", "1", "read_user_degrade", "analytic")
            assert (ci_low, ci_high, trials, seed) == ("", "", "", "")
            assert float(value) == pytest.approx(1 / int(n), rel=1e-12)

    def test_round_trip_12_significant_digits(self, tmp_path, capsys):
        out = tmp_path / "blocks.csv"
        code, _, _ = _run(
            capsys, "sweep", "--protocol", "regen-block", "--nodes", "10,30,100",
            "--blocks", "90,290,3200", "--mode", "analytic", "--out", str(out),
        )
        assert code == 0
        for row in _read_rows(out):
            again = cli._ANALYTIC[row[3]](int(row[1]), int(row[2]))
            assert f"{again:.12g}" == row[5]

    def test_analytic_mode_ignores_seed_and_trials(self, tmp_path, capsys):
        args = ["sweep", "--protocol", "write", "--nodes", "10..40:10", "--requests", "7",
                "--mode", "analytic"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(capsys, *args, "--out", str(a), "--seed", "1", "--trials", "10")[0] == 0
        assert _run(capsys, *args, "--out", str(b), "--seed", "999", "--trials", "77")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulated_sweep_deterministic_across_workers(self, tmp_path, capsys, split_calls):
        args = ["sweep", "--protocol", "regen-node", "--nodes", "10", "--blocks", "90",
                "--mode", "both", "--trials", "5000", "--seed", "31"]
        a, b = tmp_path / "w1.csv", tmp_path / "w3.csv"
        assert _run(capsys, *args, "--workers", "1", "--out", str(a))[0] == 0
        assert _run(capsys, *args, "--workers", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        rows = _read_rows(a)
        assert [r[4] for r in rows] == ["analytic", "simulated"]
        sim = rows[1]
        assert sim[6] and sim[7] and sim[8] == str(5000 * 8) and sim[9] == "31"

    def test_single_point_any_block(self, tmp_path, capsys):
        out = tmp_path / "any.csv"
        code, _, _ = _run(
            capsys, "sweep", "--protocol", "regen-any-block", "--nodes", "100",
            "--blocks", "3200", "--mode", "analytic", "--out", str(out),
        )
        assert code == 0
        rows = _read_rows(out)
        assert len(rows) == 1
        assert float(rows[0][5]) >= 0.999

    @pytest.mark.parametrize("argv, table_protocols", [
        (["sweep", "--protocol", "read", "--nodes", "30,10,20", "--requests", "10,1", "--mode", "analytic",
          "--out", "{tmp}/sorted.csv"], None),
        # the (100, 3200) anchor falls between n = 10 and n = 120 in the regeneration panels
        (["figures", "--mode", "both", "--nodes", "120,10", "--requests", "100,1", "--trials", "20", "--out", "{tmp}"],
         None),
        (["compare", "--protocol", "write,regen-node,read", "--nodes", "30,10", "--trials", "200",
          "--out", "{tmp}/cmp.csv"], ["write", "regen-node", "read"]),
    ], ids=["sweep", "figures-anchor-mid-walk", "compare"])
    def test_rows_sorted(self, tmp_path, capsys, argv, table_protocols):
        # nothing sorts the rows: each command must walk its grid in CSV order
        code, text, _ = _run(capsys, *[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert code == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            keys = [(r[0], int(r[1]), -1 if r[2] == "" else int(r[2]), r[4], r[3]) for r in _read_rows(path)]
            assert keys == sorted(set(keys)), path.name
        if table_protocols:
            # the compare table keeps the user's protocol order
            table = text.splitlines()[2:-2]
            assert list(dict.fromkeys(line.split()[0] for line in table)) == table_protocols

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "sweep", "--protocol", "read", "--mode", "analytic")
        assert code == 2
        assert "out" in err

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = _run(
            capsys, "sweep", "--protocol", "read", "--requests", "1",
            "--mode", "analytic", "--out", "/nonexistent-dir/x/read.csv",
        )
        assert code == 2
        assert "error" in err

    def test_out_is_a_directory_is_io_error(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        code, text, err = _run(capsys, "sweep", "--protocol", "read", "--nodes", "10", "--out", str(tmp_path / "d"))
        assert (code, text) == (2, "")
        assert err.startswith("io error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"] and list((tmp_path / "d").iterdir()) == []


class TestCompare:
    def test_assumption_gate_passes(self, capsys):
        code, out, _ = _run(
            capsys, "compare", "--nodes", "10", "--trials", "20000",
            "--tolerance", "0.02", "--seed", "42",
        )
        assert code == 0
        assert "FAIL" not in out

    def test_detects_true_gap(self, capsys):
        # protocol replays give a strictly positive node-degrade probability
        # at load 1 where the closed form is exactly 0
        code, out, _ = _run(
            capsys, "compare", "--sim", "protocol", "--protocol", "regen-node",
            "--nodes", "10", "--blocks", "9", "--trials", "100",
            "--tolerance", "1e-9", "--seed", "42",
        )
        assert code == 1
        assert "FAIL" in out

    def test_table_separates_wide_values(self, capsys):
        code, out, _ = _run(
            capsys, "compare", "--protocol", "read", "--nodes", "10",
            "--requests", "100,12345678,9007199254740992", "--trials", "3",
        )
        assert code == 0
        header, _, *rows = out.splitlines()[:5]
        assert header.startswith("protocol            n  r_or_b  metric")
        assert rows[0].startswith("read               10     100  read_user_degrade")
        assert rows[1].startswith("read               10 12345678  read_user_degrade")
        assert rows[2].startswith("read               10 9007199254740992  read_user_degrade")

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code, _, _ = _run(
            capsys, "compare", "--protocol", "read", "--nodes", "10", "--requests", "1",
            "--trials", "2000", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        rows = _read_rows(out)
        assert {r[4] for r in rows} == {"analytic", "simulated"}

    @pytest.mark.parametrize("protocols, nodes", [("read,read", "10"), ("read", "10,10")])
    def test_repeated_grid_entry_runs_once(self, tmp_path, capsys, protocols, nodes):
        out = tmp_path / "cmp.csv"
        code, text, _ = _run(
            capsys, "compare", "--protocol", protocols, "--nodes", nodes, "--requests", "1,1",
            "--trials", "2000", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        assert "1/1 ok" in text
        assert len(_read_rows(out)) == 2

    @pytest.mark.parametrize("protocols", [",", " , ,", ""])
    def test_empty_protocol_list_is_usage_error(self, tmp_path, capsys, protocols):
        out = tmp_path / "cmp.csv"
        code, text, err = _run(
            capsys, "compare", "--protocol", protocols, "--nodes", "10", "--trials", "10", "--out", str(out),
        )
        assert (code, text) == (2, "")
        assert "empty protocol list" in err and not out.exists()

    def test_unknown_protocol_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "compare", "--protocol", "regen-everything")
        assert code == 2
        assert "protocol" in err

    def test_bad_tolerance_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "compare", "--tolerance", "0")
        assert code == 2

    def test_oversized_placement_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "compare", "--sim", "protocol", "--nodes", "10",
            "--blocks", "1000000000", "--trials", "1",
        )
        assert code == 2
        assert "place at most" in err

    def test_default_load_runs_past_the_worst_case_cap(self, capsys):
        # the default 50 * (n-1) load plants 352,833 blocks at n = 146, of which a trial expects 7,250 lost
        code, _, err = _run(capsys, "compare", "--sim", "protocol", "--protocol", "regen-node", "--nodes", "146",
                            "--trials", "2")
        assert code in (0, 1), err

    def test_oversized_cluster_is_usage_error(self, capsys):
        # the protocol kernel's trials x nodes table would outgrow the memory budget
        code, _, err = _run(
            capsys, "compare", "--sim", "protocol", "--protocol", "regen-node", "--nodes", str(2**20 + 1),
            "--blocks", "0", "--trials", "1",
        )
        assert code == 2
        assert f"take at most {2**20} nodes" in err

    def test_point_without_observations_fails(self, capsys):
        # 33 blocks on 100 nodes: at seed 0 the one trial loses no block, so
        # block_degrade has no observations and its CI is [0, 1]
        code, out, _ = _run(
            capsys, "compare", "--sim", "protocol", "--protocol", "regen-block",
            "--nodes", "100", "--blocks", "1", "--trials", "1", "--seed", "0",
        )
        assert code == 1
        assert "no-observations" in out
        assert "0/1 ok" in out

    def test_csv_holds_the_sweep_rows(self, tmp_path, capsys):
        # compare and sweep write their rows through one builder: the compare CSV is the `sweep --mode both`
        # rows of each protocol, in protocol order
        grid = ["--nodes", "10,20", "--requests", "1,10", "--blocks", "9,90", "--trials", "200", "--seed", "3"]
        code, _, _ = _run(capsys, "compare", "--protocol", "write,regen-node", *grid, "--out", str(tmp_path / "c.csv"))
        assert code == 0
        swept = []
        for protocol in ("regen-node", "write"):
            out = tmp_path / f"{protocol}.csv"
            assert _run(capsys, "sweep", "--protocol", protocol, "--mode", "both", *grid, "--out", str(out))[0] == 0
            swept += _read_rows(out)
        assert len(swept) == 16
        assert _read_rows(tmp_path / "c.csv") == swept


class TestFigures:
    def test_write_figure_carries_the_40_request_anchor(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "figures", "--figure", "write", "--nodes", "10..100:10",
            "--mode", "analytic", "--out", str(tmp_path),
        )
        assert code == 0
        rows = _read_rows(tmp_path / "write_user_prob.csv")
        anchors = [r for r in rows if r[1] == "50" and r[2] == "40"]
        assert len(anchors) == 1
        assert float(anchors[0][5]) == pytest.approx(0.91583836885657412816, rel=1e-12)
        assert 0.9 <= float(anchors[0][5]) <= 0.92

    def test_block_figure_carries_the_full_node_anchor(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "figures", "--figure", "block", "--nodes", "100", "--blocks", "3200",
            "--mode", "analytic", "--out", str(tmp_path),
        )
        assert code == 0
        rows = _read_rows(tmp_path / "any_block_degrade_prob.csv")
        point = [r for r in rows if (r[1], r[2]) == ("100", "3200")]
        assert len(point) == 1 and float(point[0][5]) >= 0.999

    def test_read_figure_single_request_equals_one_over_n(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "figures", "--figure", "read", "--nodes", "10..100:10",
            "--mode", "analytic", "--out", str(tmp_path),
        )
        assert code == 0
        for row in _read_rows(tmp_path / "read_user_prob.csv"):
            if row[2] == "1":
                assert float(row[5]) == pytest.approx(1 / int(row[1]), rel=1e-12)

    def test_all_panels_written(self, tmp_path, capsys):
        code, _, _ = _run(
            capsys, "figures", "--nodes", "10,20", "--requests", "1,10",
            "--mode", "analytic", "--out", str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "any_block_degrade_prob.csv",
            "block_degrade_prob.csv",
            "cluster_degrade_prob.csv",
            "node_degrade_prob.csv",
            "read_request_prob.csv",
            "read_user_prob.csv",
            "write_request_prob.csv",
            "write_user_prob.csv",
        ]


    def test_one_sampler_run_per_regen_point(self, tmp_path, capsys, monkeypatch):
        # node-cluster and block share their points: (10, 9k) for k in 1, 5, 10, 50, and the (100, 3200) anchor
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return run_assumption_trials(*args, **kwargs)

        run_assumption_trials = trials.run_assumption_trials
        monkeypatch.setattr(trials, "run_assumption_trials", counting)
        code, _, _ = _run(capsys, "figures", "--mode", "both", "--nodes", "10", "--trials", "20", "--out", str(tmp_path))
        assert code == 0
        assert len(calls) == len(set(calls)) == 5

    def test_failing_panel_writes_no_file(self, tmp_path, capsys):
        # the read and write panels accept n = 4; the regeneration panels do not
        out = tmp_path / "figs"
        code, text, err = _run(capsys, "figures", "--nodes", "4", "--mode", "analytic", "--out", str(out))
        assert (code, text) == (2, "")
        assert "error" in err and not out.exists()


    def test_failure_after_complete_panels_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # all eight panels have temp files, and the four read and write panels are complete, when the
        # regeneration walk reaches n = 2**20 + 1, more nodes than the protocol sampler's node table takes
        temps = []
        mkstemp = tempfile.mkstemp

        def recording_mkstemp(*args, **kwargs):
            fd, path = mkstemp(*args, **kwargs)
            temps.append(path)
            return fd, path

        monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
        out = tmp_path / "figs"
        code, text, err = _run(capsys, "figures", "--mode", "both", "--sim", "protocol", "--nodes",
                               f"10,{2**20 + 1}", "--trials", "2", "--out", str(out))
        assert (code, text) == (2, "")
        assert "take at most" in err
        assert len(temps) == 8 and list(tmp_path.iterdir()) == []


class TestModelCommand:
    def test_read_point(self, capsys):
        code, out, _ = _run(capsys, "model", "--protocol", "read", "--nodes", "10",
                            "--requests", "1,100")
        assert code == 0
        assert "read_degrade = 0.1" in out
        assert "read_user_degrade[r=1] = 0.1" in out

    def test_regen_block_point(self, capsys):
        code, out, _ = _run(capsys, "model", "--protocol", "regen-block", "--nodes", "100",
                            "--blocks", "3200")
        assert code == 0
        assert "block_degrade[b=3200] = 0.0026770732655" in out

    def test_needs_single_n(self, capsys):
        code, _, err = _run(capsys, "model", "--protocol", "read", "--nodes", "10,20")
        assert code == 2

    @pytest.mark.parametrize("protocol", ["read", "write"])
    def test_bad_requests_leave_stdout_empty(self, tmp_path, capsys, protocol):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"requests": [1, 2.5]}))
        code, out, err = _run(capsys, "model", "--protocol", protocol, "--nodes", "10", "--config", str(config))
        assert (code, out) == (2, "")
        assert "requests must be an integer" in err

    def test_invalid_cluster_size(self, capsys):
        code, _, err = _run(capsys, "model", "--protocol", "regen-node", "--nodes", "4",
                            "--blocks", "10")
        assert code == 2
        assert "error" in err


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["model", "--protocol", "read", "--nodes", "10", "--trials", "5"],
        ["compare", "--protocol", "read", "--nodes", "10", "--trials", "10", "--mode", "both"],
        ["sweep", "--protocol", "read", "--nodes", "10", "--tolerance", "0.1", "--out", "{tmp}/x.csv"],
        ["figures", "--nodes", "10", "--tolerance", "0.1", "--out", "{tmp}"],
    ])
    def test_flag_the_command_never_reads_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "1.5", "trials must be an integer, got '1.5'"),
        ("--seed", "abc", "seed must be an integer, got 'abc'"),
        ("--mode", "fast", "bad mode 'fast'"),
        ("--sim", "exact", "bad sim flavor 'exact'"),
        ("--blocks", "abc", "blocks must be an integer, got 'abc'"),
        ("--nodes", "20..10", "bad node range '20..10'"),
        ("--nodes", "10..20:0", "bad node range '10..20:0'"),
        ("--requests", "-1", "requests values must lie in 0..2**53, got -1"),
        ("--requests", ",", "empty requests list ','"),
        ("--blocks", str(2**53 + 1), f"blocks values must lie in 0..2**53, got {2**53 + 1}"),
        ("--trials", "0", "trials and workers must be >= 1"),
        ("--workers", "0", "trials and workers must be >= 1"),
    ], ids=["trials", "seed", "mode", "sim", "blocks-unread", "range-down", "range-stride-0", "requests-negative",
            "requests-empty", "blocks-above-2**53", "trials-0", "workers-0"])
    def test_bad_flag_value_gets_the_config_check(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.csv"
        code, text, err = _run(capsys, "sweep", "--protocol", "read", "--nodes", "10", flag, value, "--out", str(out))
        assert (code, text) == (2, "")
        assert err == f"error: {message}\n" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["model", "--protocol", "regen-node", "--nodes", "10", "--requests", "abc"],
         "requests must be an integer, got 'abc'"),
        (["compare", "--protocol", "read", "--blocks", "abc", "--out", "{out}"], "blocks must be an integer, got 'abc'"),
        (["model", "--protocol", "read", "--nodes", "10..100000000000"],
         "node range '10..100000000000' holds 99999999991 values, more than 1000000"),
        (["model", "--protocol", "read", "--nodes", "9" * 400], f"nodes values must lie in 0..2**53, got {'9' * 400}"),
        (["model", "--protocol", "regen-block", "--nodes", "10", "--blocks", "9" * 400],
         f"blocks values must lie in 0..2**53, got {'9' * 400}"),
        (["figures", "--nodes", "10"], "figures needs --out DIR"),
    ], ids=["model-requests-unread", "compare-blocks-unread", "range-1e11", "nodes-400-digits",
            "blocks-400-digits", "figures-no-out"])
    def test_bad_input_exits_2_before_any_output(self, tmp_path, capsys, argv, message):
        code, text, err = _run(capsys, *[arg.replace("{out}", str(tmp_path / "out")) for arg in argv])
        assert (code, text) == (2, "")
        assert err == f"error: {message}\n" and list(tmp_path.iterdir()) == []

    @given(
        protocol=st.sampled_from(sorted(cli.PROTOCOLS)),
        flag=st.sampled_from(["nodes", "requests", "blocks"]),
        value=st.one_of(
            st.text(),
            st.integers(-(10**400), 10**400).map(str),
            st.from_regex(r"-?[0-9]{0,400}(\.\.[0-9]{0,400}(:-?[0-9]{0,3})?)?", fullmatch=True),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_grid_string_exits_0_or_2(self, protocol, flag, value):
        # an uncaught exception, i.e. a traceback, fails the test
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["model", "--protocol", protocol, "--nodes", "10", f"--{flag}={value}"])
        assert code == 0 or (code == 2 and err.getvalue().startswith("error: "))


class TestConfig:
    def test_show_config_prints_json(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--show-config", "--protocol", "read")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["mode"] == "analytic"
        assert cfg["protocol"] == "read"
        assert cfg["trials"] == 100_000

    @pytest.mark.parametrize("argv", [
        ["model", "--protocol", "regen-block", "--nodes", "100", "--blocks", "3200,90"],
        ["sweep", "--protocol", "read", "--nodes", "10..30:10", "--seed", "-1", "--out", "x.csv"],
        ["compare", "--protocol", "read,write", "--tolerance", "0.05"],
        ["figures", "--figure", "block", "--mode", "both", "--out", "figs"],
    ], ids=["model", "sweep", "compare", "figures"])
    def test_show_config_round_trips_through_config(self, tmp_path, capsys, argv):
        code, out, _ = _run(capsys, *argv, "--show-config")
        assert code == 0
        config = tmp_path / "cfg.json"
        config.write_text(out)
        assert _run(capsys, argv[0], "--config", str(config), "--show-config") == (0, out, "")

    def test_show_config_prints_expanded_grid_lists(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--show-config", "--nodes", "10..30:10", "--requests", "5,1,5")
        assert code == 0
        cfg = json.loads(out)
        assert (cfg["nodes"], cfg["requests"], cfg["blocks"]) == ([10, 20, 30], [5, 1], None)
        assert cfg["protocol"] is None and cfg["figure"] is None

    def test_config_file_supplies_values_and_cli_wins(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": "write", "nodes": "10", "requests": "3", "seed": 7}))
        code, out, _ = _run(capsys, "sweep", "--config", str(config), "--show-config")
        assert code == 0
        assert json.loads(out)["protocol"] == "write"
        code, out, _ = _run(
            capsys, "sweep", "--config", str(config), "--protocol", "read", "--show-config"
        )
        assert json.loads(out)["protocol"] == "read"
        assert json.loads(out)["seed"] == 7

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocl": "write"}))
        code, _, err = _run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert "protocl" in err

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps([{"nodes": "10"}]))
        code, text, err = _run(capsys, "sweep", "--config", str(config), "--protocol", "read")
        assert (code, text) == (2, "")
        assert err == f"error: config {str(config)!r} must hold a JSON object\n"

    def test_malformed_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{nope")
        code, _, err = _run(capsys, "sweep", "--config", str(config))
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("trials", "abc"), ("trials", 1.5), ("trials", True), ("trials", [10]),
        ("workers", "abc"), ("workers", 1.5), ("workers", True),
        ("seed", "abc"), ("seed", 1.5), ("seed", None),
        ("tolerance", "abc"), ("tolerance", [0.1]),
    ])
    def test_bad_number_in_config_exits_2(self, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        code, _, err = _run(capsys, "sweep", "--config", str(config), "--protocol", "read", "--show-config")
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("command, key, value", [
        ("sweep", "protocol", ["read"]), ("model", "protocol", ["read"]), ("sweep", "out", 5), ("sweep", "out", True),
        ("figures", "out", 5), ("figures", "figure", 3), ("sweep", "mode", ["both"]), ("compare", "sim", {}),
    ])
    def test_non_string_value_in_config_exits_2(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "cfg.json"
        out = tmp_path / "out"
        config.write_text(json.dumps({"protocol": "read", "nodes": "10", "out": str(out), key: value}))
        code, text, err = _run(capsys, command, "--config", str(config))
        assert (code, text) == (2, "")
        assert f"{key} must be a string, got {value!r}" in err and not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("figure", "bogus", "unknown figure 'bogus'"),
        ("blocks", [9, "x"], "blocks must be an integer, got 'x'"),
    ], ids=["figure", "blocks"])
    def test_config_value_the_command_ignores_is_still_checked(self, tmp_path, capsys, key, value, message):
        config = tmp_path / "cfg.json"
        out = tmp_path / "x.csv"
        config.write_text(json.dumps({"protocol": "read", "nodes": "10", "out": str(out), key: value}))
        code, text, err = _run(capsys, "sweep", "--config", str(config))
        assert (code, text) == (2, "")
        assert err == f"error: {message}\n" and not out.exists()

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xff\xfe{")
        code, _, err = _run(capsys, "sweep", "--config", str(config))
        assert code == 2
        assert err.startswith("config error: ")

    def test_integral_numbers_in_config_accepted(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"trials": "500", "workers": 1.0, "seed": -1, "tolerance": "0.05"}))
        code, out, _ = _run(capsys, "sweep", "--config", str(config), "--protocol", "read", "--show-config")
        assert code == 0
        cfg = json.loads(out)
        assert (cfg["trials"], cfg["workers"], cfg["seed"], cfg["tolerance"]) == (500, 1, (1 << 64) - 1, 0.05)

    def test_json_lists_accepted_for_every_grid_key(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": [10, 20], "requests": [1, 3], "blocks": [9]}))
        out = tmp_path / "x.csv"
        code, _, err = _run(capsys, "sweep", "--config", str(config), "--protocol", "read",
                            "--out", str(out))
        assert code == 0, err
        assert [(r[1], r[2]) for r in _read_rows(out)] == [
            ("10", "1"), ("10", "3"), ("20", "1"), ("20", "3"),
        ]

    @pytest.mark.parametrize("key, value", [
        ("blocks", [90.7]), ("blocks", [90, True]), ("nodes", [10.9]), ("requests", [1, 2.5]),
    ])
    def test_non_integral_grid_element_exits_2(self, tmp_path, capsys, key, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"nodes": [10], key: value}))
        protocol = "read" if key == "requests" else "regen-node"
        out = tmp_path / "x.csv"
        code, _, err = _run(capsys, "sweep", "--protocol", protocol, "--config", str(config), "--out", str(out))
        assert code == 2
        assert key in err and not out.exists()

    def test_no_temp_files_left_behind(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        _run(capsys, "sweep", "--protocol", "read", "--requests", "1", "--nodes", "10",
             "--mode", "analytic", "--out", str(out))
        leftovers = [p for p in os.listdir(tmp_path) if p != "x.csv"]
        assert leftovers == []


class TestLowLoadWarning:
    # m = b / (n - 1) = 1 < 2 at (10, 9), where node_degrade_prob warns; figures' blocks include 9 at n = 10
    @pytest.mark.parametrize("argv", [
        ["model", "--protocol", "regen-node", "--nodes", "10", "--blocks", "9"],
        ["sweep", "--protocol", "regen-node", "--mode", "both", "--nodes", "10", "--blocks", "9", "--trials", "20",
         "--out", "{tmp}/s.csv"],
        ["compare", "--protocol", "regen-node", "--nodes", "10", "--blocks", "9", "--trials", "20"],
        ["figures", "--figure", "node-cluster", "--mode", "both", "--nodes", "10", "--trials", "20", "--out", "{tmp}"],
    ], ids=["model", "sweep", "compare", "figures"])
    def test_no_warning_escapes_main(self, tmp_path, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
            assert warnings.filters == filters
            assert (code, caught) == (0, [])
            # the closed form itself still warns its library callers
            with pytest.warns(LowLoadWarning):
                model.node_degrade_prob(RegenParams(10, 9))
        capsys.readouterr()


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_csv_mode_follows_the_umask(self, tmp_path, umask, mode):
        code = "import os, sys; os.umask(int(sys.argv[1], 8)); from limpprob.cli import main; sys.exit(main(sys.argv[2:]))"
        proc = _python(tmp_path, code, oct(umask), "sweep", "--protocol", "read", "--nodes", "10", "--out", "x.csv")
        assert proc.returncode == 0, proc.stderr
        assert os.stat(tmp_path / "x.csv").st_mode & 0o777 == mode


# The child's thread count once main has returned, and the OpenBLAS thread limit it ran under.
_THREADS_CHILD = """
import os, sys
from limpprob.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("Threads:")), os.environ["OPENBLAS_NUM_THREADS"])
sys.exit(code)
"""


class TestThreads:
    def test_small_calls_start_no_thread(self, tmp_path, capsys, monkeypatch):
        # no sampler call of this run holds two chunks of stream positions, so none splits
        def no_threads(*args, **kwargs):
            raise AssertionError("a sampler call started worker threads")

        monkeypatch.setattr(trials, "ThreadPoolExecutor", no_threads)
        code, _, err = _run(capsys, "figures", "--mode", "both", "--workers", "2", "--trials", "100",
                            "--nodes", "10,20", "--out", str(tmp_path / "figs"))
        assert code == 0, err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Threads from /proc/self/status")
    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset-2"])
    def test_sampler_run_starts_no_blas_pool(self, tmp_path, preset):
        env = {key: value for key, value in _child_env().items() if key != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        argv = ["compare", "--protocol", "regen-node", "--nodes", "10", "--trials", "10"]
        proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        threads, limit = proc.stdout.splitlines()[-1].split()
        # a user's own limit is kept; otherwise numpy loads with one OpenBLAS thread, the main one
        assert limit == (preset or "1")
        if preset is None:
            assert threads == "1"


# The child's own peak RSS: ru_maxrss would keep the forking pytest process's peak across exec, VmHWM does not.
_PEAK_RSS_CHILD = """
import sys
from limpprob.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
class TestBoundedMemory:
    def test_peak_rss_flat_in_row_count(self, tmp_path):
        requests = ",".join(str(r) for r in range(1, 51))
        peak_kib = []
        for nodes, rows in (("10..49", 2_000), ("10..2009", 100_000)):
            proc = _python(tmp_path, _PEAK_RSS_CHILD, "sweep", "--protocol", "read", "--mode", "analytic",
                           "--nodes", nodes, "--requests", requests, "--out", "x.csv")
            assert proc.returncode == 0, proc.stderr
            assert f"wrote {rows} rows" in proc.stdout
            peak_kib.append(int(proc.stdout.split()[-1]))
        # holding every row grows the peak by about 45 MB over these 98,000 rows
        assert peak_kib[1] - peak_kib[0] < 10 * 1024

    def test_peak_rss_flat_in_node_range_length(self, tmp_path):
        # the same 1,000,000 rows from a 1,000,000-value node range and from 10,000 nodes x 100 requests;
        # the two sweeps run side by side, each in its own directory
        runs = {"range": ("10..1000009", "1"), "grid": ("10..10009", ",".join(str(r) for r in range(1, 101)))}
        procs = {}
        for name, (nodes, requests) in runs.items():
            (tmp_path / name).mkdir()
            procs[name] = subprocess.Popen(
                [sys.executable, "-c", _PEAK_RSS_CHILD, "sweep", "--protocol", "read", "--mode", "analytic",
                 "--nodes", nodes, "--requests", requests, "--out", "x.csv"],
                cwd=tmp_path / name, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        peak_kib = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            assert "wrote 1000000 rows" in out
            peak_kib[name] = int(out.split()[-1])
        # a range expanded into a list, plus its sorted copy, grows the peak by about 46 MB
        assert peak_kib["range"] - peak_kib["grid"] < 5 * 1024


class TestNoEstimateOutlivesItsRow:
    @pytest.mark.parametrize("argv, sampler, calls", [
        (["sweep", "--protocol", "read", "--requests", "1", "--out", "{tmp}/x.csv"], "run_rw_trials", 5000),
        # the write panels add the 40-request anchor at every n
        (["figures", "--figure", "write", "--requests", "1", "--out", "{tmp}"], "run_rw_trials", 10000),
        # the regeneration panels share the points (n, (n-1)k) for k in 1, 5, 10, 50, and the (100, 3200) anchor
        (["figures", "--figure", "node-cluster", "--out", "{tmp}"], "run_assumption_trials", 20001),
        (["figures", "--figure", "block", "--out", "{tmp}"], "run_assumption_trials", 20001),
    ], ids=["sweep", "figures-write", "figures-node-cluster", "figures-block"])
    def test_at_most_one_earlier_estimate_alive(self, tmp_path, capsys, monkeypatch, argv, sampler, calls):
        # no point repeats within a walk; holding each estimate grows memory about 0.33 KB (read or write)
        # to 1.2 KB (regeneration) per point
        alive = weakref.WeakValueDictionary()  # call index -> the estimate that call returned, while it lives
        alive_before = []

        def stub(*args):
            alive_before.append(len(alive))
            alive[len(alive_before)] = estimate = EstimateSummary.from_counts(1, 2)
            if sampler == "run_rw_trials":
                return estimate
            return dict.fromkeys([model.NODE_DEGRADE, model.CLUSTER_DEGRADE, model.BLOCK_DEGRADE,
                                  model.ANY_BLOCK_DEGRADE], estimate)

        monkeypatch.setattr(trials, sampler, stub)
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code, _, _ = _run(capsys, *argv, "--mode", "simulate", "--nodes", "10..5009", "--trials", "1")
        assert code == 0
        assert len(alive_before) == calls and max(alive_before) <= 1


# Runs each argv through main() in one interpreter; argv[1] == "blocked" makes `import numpy` fail.
_ANALYTIC_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from limpprob.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"results": results, "samplers": [m for m in ("limpprob.trials", "limpprob.rng") if m in sys.modules]}))
"""


class TestAnalyticPathWithoutNumpy:
    COMMANDS = [
        ["model", "--protocol", "write", "--nodes", "50", "--requests", "40"],
        ["model", "--protocol", "regen-any-block", "--nodes", "100", "--blocks", "3200"],
        ["sweep", "--mode", "analytic", "--protocol", "regen-block", "--nodes", "10,30", "--out", "sweep.csv"],
        ["figures", "--mode", "analytic", "--nodes", "10,20", "--out", "figs"],
        ["compare", "--show-config"],
        ["--help"],
        ["model", "--protocol", "read", "--nodes", "10", "--trials", "5"],
    ]
    EXIT_CODES = [0, 0, 0, 0, 0, 0, 2]

    def _run_all(self, cwd, mode):
        os.makedirs(cwd)
        proc = _python(cwd, _ANALYTIC_CHILD, mode, json.dumps(self.COMMANDS))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["samplers"] == []
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
        return report["results"], files

    def test_same_output_with_numpy_blocked(self, tmp_path):
        blocked, blocked_files = self._run_all(tmp_path / "blocked", "blocked")
        plain, plain_files = self._run_all(tmp_path / "plain", "plain")
        assert [code for code, _, _ in blocked] == self.EXIT_CODES
        assert blocked == plain
        assert blocked_files == plain_files
        assert len(blocked_files) == 9  # sweep.csv and the eight figure panels


# Runs each argument, a command line split on spaces, through main() in one interpreter, then prints the exit
# codes and which of the modules named by the first argument limpprob loaded.
_IMPORT_DIET_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from limpprob.cli import main
codes = []
for command in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(command.split()))
        except SystemExit as exc:
            codes.append(exc.code)
print(codes, [m for m in sys.argv[1].split(",") if m in sys.modules and m not in before])
"""


class TestImportDiet:
    # dataclasses brings inspect, ast and dis; oracle brings fractions and decimal; json is for --config only
    HEAVY = ["dataclasses", "inspect", "fractions", "decimal", "json", "numpy"]

    def test_analytic_commands_import_no_heavy_module(self, tmp_path):
        commands = [
            "model --protocol regen-any-block --nodes 100 --blocks 3200",
            "model --protocol write --nodes 50 --requests 40",
            "sweep --mode analytic --protocol regen-block --nodes 10,30 --out sweep.csv",
            "--help",
        ]
        proc = _python(tmp_path, _IMPORT_DIET_CHILD, ",".join(self.HEAVY), *commands)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"

    def test_the_check_sees_a_heavy_import(self, tmp_path):
        proc = _python(tmp_path, _IMPORT_DIET_CHILD, ",".join(self.HEAVY), "model --protocol read --nodes 10",
                       "compare --show-config")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] ['json']"

    def test_unsplit_sampler_calls_import_no_thread_pool(self, tmp_path):
        # concurrent.futures, and logging with it, loads only when a sampler call splits over threads
        proc = _python(tmp_path, _IMPORT_DIET_CHILD, "concurrent.futures,logging",
                       "compare --sim assumption --nodes 10 --trials 50 --workers 1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0] []"

    def test_only_file_writing_commands_import_tempfile(self, tmp_path):
        # -S skips site, which may import tempfile itself; PYTHONPATH still finds the package
        def child(*commands):
            return subprocess.run([sys.executable, "-S", "-c", _IMPORT_DIET_CHILD, "tempfile", *commands],
                                  cwd=tmp_path, env=_child_env(), capture_output=True, text=True)

        proc = child("model --protocol read --nodes 10", "model --protocol regen-block --nodes 30", "--help")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"
        proc = child("sweep --mode analytic --protocol read --nodes 10 --out sweep.csv")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0] ['tempfile']"
