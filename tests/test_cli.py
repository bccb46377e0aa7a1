import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rootdrill import MeasureSpec, SimulationParams, data, simulate_fault, snapshot_from_rows
from rootdrill.cli import build_parser, main, parse_grid, parse_measure
from rootdrill.forecast import render_table
from rootdrill.simulate import write_fault

localize_mod = importlib.import_module("rootdrill.localize")
evaluate_mod = importlib.import_module("rootdrill.evaluate")


@pytest.fixture
def snapshot_file(tmp_path, province_csv):
    p = tmp_path / "snap.csv"
    p.write_text(province_csv)
    return p


class TestParsers:
    def test_measure_default(self):
        m = parse_measure("fundamental:value")
        assert m.kind == "fundamental"
        assert m.operands == ("value",)
        assert m.distribution_family == "none"

    def test_measure_full(self):
        m = parse_measure("quotient:succ,total:none")
        assert m.kind == "quotient"
        assert m.operands == ("succ", "total")

    def test_measure_family(self):
        assert parse_measure("fundamental:value:poisson").distribution_family == "poisson"

    def test_measure_rejects(self):
        with pytest.raises(ValueError):
            parse_measure("fundamental:value:poisson:extra")
        with pytest.raises(ValueError):
            parse_measure("ratio:x")

    def test_grid(self):
        assert parse_grid("1-3x1-3") == [
            (n, l) for n in (1, 2, 3) for l in (1, 2, 3)
        ]
        assert parse_grid("2x1") == [(2, 1)]
        assert parse_grid("1-2x3") == [(1, 3), (2, 3)]

    def test_grid_rejects(self):
        with pytest.raises(ValueError):
            parse_grid("3")
        with pytest.raises(ValueError):
            parse_grid("axb")


class TestLocalizeCommand:
    def test_report_schema(self, snapshot_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["localize", "--snapshot", str(snapshot_file), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "version",
            "root_causes",
            "per_cluster",
            "min_gps",
            "external_root_cause",
            "elapsed_s",
        }
        # the 0.74 candidate sits below the default explainability bar: kept in
        # the per-cluster detail, absent from the headline list
        assert report["root_causes"] == []
        assert report["min_gps"] == pytest.approx(0.7425742574257426)
        assert report["external_root_cause"] is True
        cluster = report["per_cluster"][0]
        assert set(cluster) == {"bounds", "gps", "root_cause"}
        assert cluster["root_cause"] == [[{"attr": "Province", "value": "Beijing"}]]
        assert "min_gps=0.7426" in capsys.readouterr().out

    def test_delta_exrc_flag(self, snapshot_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "localize",
                "--snapshot", str(snapshot_file),
                "--delta-exrc", "0.7",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["external_root_cause"] is False
        assert report["root_causes"] == [[{"attr": "Province", "value": "Beijing"}]]

    def test_hist_out(self, snapshot_file, tmp_path, monkeypatch):
        calls = []
        stage2 = localize_mod.leaf_distributions
        monkeypatch.setattr(
            localize_mod, "leaf_distributions", lambda *a: calls.append(a) or stage2(*a)
        )
        out = tmp_path / "report.json"
        hist = tmp_path / "hist.csv"
        main(
            [
                "localize",
                "--snapshot", str(snapshot_file),
                "--out", str(out),
                "--hist-out", str(hist),
            ]
        )
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_center,density"
        assert len(lines) == 202
        total = sum(float(l.split(",")[1]) for l in lines[1:])
        assert total == pytest.approx(1.0)
        # the histogram comes from the verdict's own stage 2
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "out, hist",
        [("missing/report.json", "hist.csv"), ("report.json", "a_dir")],
        ids=["out-in-a-missing-directory", "histogram-on-a-directory"],
    )
    def test_an_unwritable_output_writes_neither_file(self, snapshot_file, tmp_path, out, hist):
        (tmp_path / "a_dir").mkdir()
        rc = main(
            [
                "localize",
                "--snapshot", str(snapshot_file),
                "--out", str(tmp_path / out),
                "--hist-out", str(tmp_path / hist),
            ]
        )
        assert rc == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "snap.csv"]
        assert not any((tmp_path / "a_dir").iterdir())

    @pytest.mark.parametrize("hist", ["report.json", "sub/../report.json"])
    def test_outputs_naming_one_file_write_neither(self, snapshot_file, tmp_path, hist, capsys):
        (tmp_path / "sub").mkdir()
        rc = main(
            [
                "localize",
                "--snapshot", str(snapshot_file),
                "--out", str(tmp_path / "report.json"),
                "--hist-out", str(tmp_path / hist),
            ]
        )
        assert rc == 1
        assert "name one file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.csv", "sub"]

    def test_note_for_quiet_snapshot(self, tmp_path):
        snap = tmp_path / "quiet.csv"
        snap.write_text("a,real,predict\nx,1,1\ny,2,2\nz,3,3\n")
        out = tmp_path / "report.json"
        assert main(["localize", "--snapshot", str(snap), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["note"] == "no anomaly"
        assert report["min_gps"] is None

    def test_history_directory(self, tmp_path):
        hist_dir = tmp_path / "history"
        hist_dir.mkdir()
        for i, val in enumerate([8, 10, 12]):
            (hist_dir / f"t{i}.csv").write_text(f"a,real\nx,{val}\ny,5\n")
        snap = tmp_path / "current.csv"
        snap.write_text("a,real\nx,2\ny,5\n")
        out = tmp_path / "report.json"
        rc = main(
            [
                "localize",
                "--snapshot", str(snap),
                "--history", str(hist_dir),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        # x dropped from a forecast of 10 to 2; y is on target
        assert report["root_causes"] == [[{"attr": "a", "value": "x"}]]

    def test_snapshot_inside_history_uses_prior_files(self, tmp_path):
        hist_dir = tmp_path / "history"
        hist_dir.mkdir()
        for name, val in [("t0.csv", 8), ("t1.csv", 12), ("t2.csv", 2)]:
            (hist_dir / name).write_text(f"a,real\nx,{val}\ny,5\n")
        out = tmp_path / "report.json"
        rc = main(
            [
                "localize",
                "--snapshot", str(hist_dir / "t2.csv"),
                "--history", str(hist_dir),
                "--out", str(out),
            ]
        )
        assert rc == 0
        # forecast for x must average t0 and t1 only
        assert json.loads(out.read_text())["root_causes"] == [
            [{"attr": "a", "value": "x"}]
        ]

    def test_history_holding_only_the_snapshot_is_input_error(self, tmp_path, capsys):
        hist_dir = tmp_path / "history"
        hist_dir.mkdir()
        (hist_dir / "t0.csv").write_text("a,real\nx,2\ny,5\n")
        args = ["--snapshot", str(hist_dir / "t0.csv"), "--history", str(hist_dir)]
        assert main(["localize", *args, "--out", str(tmp_path / "r.json")]) == 1
        assert "no history CSVs usable" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path):
        rc = main(
            ["localize", "--snapshot", str(tmp_path / "nope.csv"), "--out", "r.json"]
        )
        assert rc == 1

    def test_malformed_csv_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,real,predict\nx,NOPE,2\n")
        rc = main(["localize", "--snapshot", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('a,real,predict\n"' + "x" * 200_000 + '",1,2\n', "error: row 2: field larger"),
            ("a,real,predict\nx,1e308,1e308\ny,1e308,0\n", "error: column 'value' totals beyond"),
        ],
        ids=["oversized-field", "overflowing-total"],
    )
    def test_table_the_reader_cannot_hold_is_input_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        rc = main(["localize", "--snapshot", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize(
        "extra", [["--measure", "ratio:x"], ["--measure", "a:b:c:d"], ["--delta-exrc", "0"]]
    )
    def test_bad_argument_is_input_error(self, snapshot_file, tmp_path, extra):
        args = ["localize", "--snapshot", str(snapshot_file), "--out", str(tmp_path / "r.json")]
        assert main(args + extra) == 1



    def test_byte_order_mark_before_the_header(self, tmp_path, province_csv_orders):
        # as Excel and Windows PowerShell 5 save a UTF-8 table
        snap = tmp_path / "snap.csv"
        snap.write_text("\ufeff" + province_csv_orders, encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["localize", "--snapshot", str(snap), "--out", str(out)]) == 0
        cause = json.loads(out.read_text(encoding="utf-8"))["per_cluster"][0]["root_cause"]
        assert cause == [[{"attr": "Province", "value": "Beijing"}]]

    def test_utf8_snapshot_under_an_ascii_locale(self, tmp_path, province_csv):
        # files are read and written as UTF-8 whatever the locale says
        snap = tmp_path / "snap.csv"
        snap.write_text(province_csv.replace("Beijing", "Zürich"), encoding="utf-8")
        out = tmp_path / "report.json"
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "rootdrill.cli", "localize",
             "--snapshot", str(snap), "--out", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text(encoding="utf-8"))
        cause = report["per_cluster"][0]["root_cause"]
        assert cause == [[{"attr": "Province", "value": "Zürich"}]]


class TestSimulateEvaluateCommands:
    def test_round_trip(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        rc = main(
            [
                "simulate",
                "--base", "synthetic:3x5",
                "--grid", "1-2x1",
                "--per-cell", "2",
                "--seed", "7",
                "--out", str(ds),
            ]
        )
        assert rc == 0
        assert (ds / "manifest.json").exists()
        assert len(list(ds.rglob("truth.json"))) == 4

        out = tmp_path / "eval.json"
        rc = main(
            ["evaluate", "--dataset", str(ds), "--family", "none", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["n_cases"] == 4
        assert set(report["per_setting"]) == {"1,1", "2,1"}
        assert 0.0 <= report["overall_f1"] <= 1.0

    def test_a_cell_written_again_is_replaced_whole(self, tmp_path):
        ds = tmp_path / "ds"
        args = ["simulate", "--base", "synthetic:2x4", "--grid", "1x1", "--out", str(ds)]
        assert main([*args, "--per-cell", "3"]) == 0
        assert len(list((ds / "n1_l1").iterdir())) == 3
        assert main([*args, "--per-cell", "1"]) == 0
        assert [p.name for p in (ds / "n1_l1").iterdir()] == ["0000"]

    def test_defaults_and_choices_come_from_their_one_home(self):
        parser = build_parser()
        sim = ["simulate", "--base", "b", "--grid", "1x1", "--per-cell", "1", "--out", "d"]
        args = parser.parse_args(sim)
        assert args.noise == SimulationParams.base_noise_sigma
        assert args.leaf_noise == SimulationParams.leaf_noise_sigma
        for family in data._FAMILIES:
            ev = ["evaluate", "--dataset", "d", "--out", "e.json", "--family", family]
            assert parser.parse_args(ev).family == family

    def test_simulate_deterministic(self, tmp_path):
        args = [
            "simulate",
            "--base", "synthetic:2x4",
            "--grid", "1x1",
            "--per-cell", "1",
            "--seed", "9",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        fa = (tmp_path / "a" / "n1_l1" / "0000" / "snapshot.csv").read_bytes()
        fb = (tmp_path / "b" / "n1_l1" / "0000" / "snapshot.csv").read_bytes()
        assert fa == fb

    def test_bad_grid_is_input_error(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--base", "synthetic:2x4",
                "--grid", "oops",
                "--per-cell", "1",
                "--out", str(tmp_path / "ds"),
            ]
        )
        assert rc == 1

    def test_reversed_grid_range_is_input_error(self, tmp_path):
        ds = tmp_path / "ds"
        rc = main(
            [
                "simulate",
                "--base", "synthetic:2x4",
                "--grid", "3-1x1",
                "--per-cell", "1",
                "--out", str(ds),
            ]
        )
        assert rc == 1
        assert not ds.exists()

    def test_grid_the_base_cannot_hold_is_input_error(self, tmp_path, capsys):
        # 20 disjoint layer-1 causes on a base with 4 values per attribute
        rc = main(
            [
                "simulate",
                "--base", "synthetic:3x4",
                "--grid", "20x1",
                "--per-cell", "1",
                "--out", str(tmp_path / "ds"),
            ]
        )
        assert rc == 1
        assert "non-overlapping" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("mean", ["0", "-5", "nan", "inf"])
    def test_bad_mean_rate_is_input_error(self, tmp_path, capsys, mean):
        ds = tmp_path / "ds"
        rc = main(
            [
                "simulate",
                "--base", f"synthetic:2x3@{mean}",
                "--grid", "1x1",
                "--per-cell", "1",
                "--out", str(ds),
            ]
        )
        assert rc == 1
        assert "mean_rate must be finite and positive" in capsys.readouterr().err
        assert not ds.exists()

    def test_failed_grid_leaves_no_partial_dataset(self, tmp_path):
        # cells (1,1)..(4,1) fit the base, (5,1) does not
        failing = ["simulate", "--base", "synthetic:3x4", "--grid", "1-20x1", "--per-cell", "1"]
        assert main([*failing, "--out", str(tmp_path / "ds")]) == 1
        assert not (tmp_path / "ds").exists()

        ds = tmp_path / "old"
        old = ["simulate", "--base", "synthetic:2x4", "--grid", "1x1", "--per-cell", "1"]
        assert main([*old, "--out", str(ds)]) == 0
        before = {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()}
        assert main([*failing, "--out", str(ds)]) == 1
        assert {p: p.read_bytes() for p in ds.rglob("*") if p.is_file()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["old"]  # no staging left

    def test_family_the_measure_cannot_take_is_skipped(self, tmp_path):
        ds = tmp_path / "ds"
        base = ["--base", "synthetic:2x4", "--grid", "1x1", "--per-cell", "1"]
        assert main(["simulate", *base, "--out", str(ds)]) == 0
        rng = np.random.default_rng(5)
        rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        values = {"total": rng.integers(200, 500, len(rows)).astype(float)}
        values["succ"] = np.round(values["total"] * 0.95)
        rates = snapshot_from_rows(
            ("A", "B"), rows, values, dict(values), MeasureSpec("quotient", ("succ", "total"))
        )
        params = SimulationParams(1, 1, measure_kind="success_rate")
        write_fault(simulate_fault(rates, params, rng), ds / "rate" / "0000")

        out = tmp_path / "e.json"
        with pytest.warns(UserWarning, match="poisson family applies") as caught:
            rc = main(["evaluate", "--dataset", str(ds), "--family", "poisson", "--out", str(out)])
        assert rc == 0
        # the directory was read; only the family does not fit its measure
        (skip,) = [str(w.message) for w in caught if "skipping" in str(w.message)]
        assert "cannot take family poisson" in skip and "unreadable" not in skip
        report = json.loads(out.read_text())
        assert (report["n_cases"], report["skipped"]) == (1, 1)

    def test_quotient_csv_base_simulates_success_rate_faults(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        values = {"total": rng.integers(200, 500, len(rows)).astype(float)}
        values["succ"] = np.round(values["total"] * 0.95)
        measure = MeasureSpec("quotient", ("succ", "total"))
        base = tmp_path / "rates.csv"
        base.write_text(render_table(snapshot_from_rows(("A", "B"), rows, values, values, measure)))
        ds, out = tmp_path / "ds", tmp_path / "e.json"
        args = ["--base", str(base), "--measure", "quotient:succ,total", "--grid", "1x1"]
        assert main(["simulate", *args, "--per-cell", "2", "--out", str(ds)]) == 0
        assert main(["evaluate", "--dataset", str(ds), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["n_cases"], report["skipped"]) == (2, 0)
        params = json.loads((ds / "n1_l1" / "0000" / "params.json").read_text())
        assert params["measure_kind"] == "success_rate"

    def test_quotient_base_with_successes_above_totals_is_input_error(self, tmp_path, capsys):
        rows = [(f"a{i}", f"b{j}") for i in range(4) for j in range(4)]
        values = {"total": np.arange(200.0, 216.0)}
        values["succ"] = 1.2 * values["total"]
        measure = MeasureSpec("quotient", ("succ", "total"))
        base = tmp_path / "rates.csv"
        base.write_text(render_table(snapshot_from_rows(("A", "B"), rows, values, values, measure)))
        ds = tmp_path / "ds"
        args = ["--base", str(base), "--measure", "quotient:succ,total", "--grid", "1x1"]
        assert main(["simulate", *args, "--per-cell", "2", "--out", str(ds)]) == 1
        assert "successes 'succ' exceed totals 'total'" in capsys.readouterr().err
        assert not ds.exists()

    def test_product_csv_base_is_input_error(self, tmp_path, capsys):
        rows = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
        values = {"x": np.full(9, 10.0), "y": np.full(9, 2.0)}
        measure = MeasureSpec("product", ("x", "y"))
        base = tmp_path / "product.csv"
        base.write_text(render_table(snapshot_from_rows(("A", "B"), rows, values, values, measure)))
        ds = tmp_path / "ds"
        args = ["--base", str(base), "--measure", "product:x,y", "--grid", "1x1"]
        assert main(["simulate", *args, "--per-cell", "1", "--out", str(ds)]) == 1
        assert "on a product measure" in capsys.readouterr().err
        assert not ds.exists()

    @pytest.mark.parametrize(
        "flag, name",
        [("--noise", "base_noise_sigma"), ("--leaf-noise", "leaf_noise_sigma")],
    )
    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_is_input_error(self, tmp_path, capsys, flag, name, sigma):
        ds = tmp_path / "ds"
        args = ["--base", "synthetic:2x4", "--grid", "1x1", "--per-cell", "1", flag, sigma]
        assert main(["simulate", *args, "--out", str(ds)]) == 1
        assert f"{name} must be finite and non-negative" in capsys.readouterr().err
        assert not ds.exists()

    def test_pipeline_value_error_is_internal(self, tmp_path, monkeypatch, capsys):
        ds = tmp_path / "ds"
        base = ["--base", "synthetic:2x4", "--grid", "1x1", "--per-cell", "1"]
        assert main(["simulate", *base, "--out", str(ds)]) == 0

        def broken(*args, **kwargs):
            raise ValueError("internal bug in the pipeline")

        monkeypatch.setattr(evaluate_mod, "localize", broken)
        rc = main(["evaluate", "--dataset", str(ds), "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "internal bug in the pipeline" in capsys.readouterr().err

    def test_missing_dataset_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "e.json"
        rc = main(["evaluate", "--dataset", str(tmp_path / "nope"), "--out", str(out)])
        assert rc == 1
        assert "nope" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_delta_exrc_is_input_error(self, tmp_path):
        out = tmp_path / "e.json"
        rc = main(["evaluate", "--dataset", str(tmp_path), "--delta-exrc", "0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_is_input_error(self, tmp_path, capsys, workers):
        out = tmp_path / "e.json"
        rc = main(["evaluate", "--dataset", str(tmp_path), "--workers", workers, "--out", str(out)])
        assert rc == 1
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, args",
        [("localize", ["--snapshot", "s.csv"]), ("evaluate", ["--dataset", "ds"])],
    )
    def test_the_removed_delta_flag_is_unrecognized(self, tmp_path, capsys, command, args):
        out = tmp_path / "out.json"
        assert main([command, *args, "--delta", "0.9", "--out", str(out)]) == 1
        assert "unrecognized arguments: --delta 0.9" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_synthetic_spec_is_input_error(self, tmp_path):
        rc = main(
            [
                "simulate",
                "--base", "synthetic:banana",
                "--grid", "1x1",
                "--per-cell", "1",
                "--out", str(tmp_path / "ds"),
            ]
        )
        assert rc == 1


class TestExrcThresholdCommand:
    def test_two_modes(self, tmp_path, capsys):
        hist = tmp_path / "hist.json"
        hist.write_text("[0.97, 0.98, 0.99, 0.55, 0.60]")
        assert main(["exrc-threshold", "--history", str(hist)]) == 0
        assert capsys.readouterr().out.strip() == "0.7800"

    def test_short_history_prints_default(self, tmp_path, capsys):
        hist = tmp_path / "hist.json"
        hist.write_text("[0.9, 0.2]")
        assert main(["exrc-threshold", "--history", str(hist)]) == 0
        assert capsys.readouterr().out.strip() == "0.8000"

    @pytest.mark.parametrize(
        "extra",
        [
            "NaN,NaN,NaN",
            "-Infinity,-Infinity",
            "Infinity",
            pytest.param("1" + "0" * 400, id="integer-beyond-float-range"),
        ],
    )
    def test_non_finite_history_is_input_error(self, tmp_path, capsys, extra):
        hist = tmp_path / "hist.json"
        hist.write_text(f"[0.9,0.9,0.9,0.9,0.9,{extra}]")
        assert main(["exrc-threshold", "--history", str(hist)]) == 1
        assert capsys.readouterr().out == ""

    def test_non_numeric_history(self, tmp_path):
        hist = tmp_path / "hist.json"
        hist.write_text('{"min_gps": 0.9}')
        assert main(["exrc-threshold", "--history", str(hist)]) == 1

    def test_boolean_history_is_input_error(self, tmp_path, capsys):
        hist = tmp_path / "hist.json"
        hist.write_text("[true, false, true, true, true, true]")
        assert main(["exrc-threshold", "--history", str(hist)]) == 1
        assert capsys.readouterr().out == ""


class TestExitCodes:
    def test_unknown_flag(self):
        assert main(["localize", "--banana"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rootdrill.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "localize" in proc.stdout
