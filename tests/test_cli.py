import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaksgd import cli, experiments, geometry
from weaksgd.experiments import ConfigError, config_from_mapping


FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_curve(path):
    """The columns T, mean_risk, std_risk and n_trials of a curve.csv."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def exit_code(*argv):
    """The status the console script exits with: main's return or argparse's exit."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("constants", "--samples", "x"),
        ("game", "--tol", "x"),
        ("verify", "--seed", "x"),
        (),
    ], ids=["constants", "game", "verify", "no-command"])
    def test_malformed_command_line_is_config_error(self, capsys, argv):
        assert exit_code(*argv) == 1
        assert "error" in capsys.readouterr().err

    def test_a_tiny_valid_bandwidth_runs_without_a_warning(self, tmp_path):
        # 2 sigma^2 = 2e-310: far pairs overflow the kernel's quotient to -inf,
        # whose exp is the right 0. Run in a fresh interpreter, whose stderr
        # shows any warning numpy prints
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        done = subprocess.run(
            [sys.executable, "-m", "weaksgd.cli", "run", "--task", "sin-regression",
             "--budget", "16", "--trials", "1", "--sigma", "1e-155",
             "--outdir", str(tmp_path / "tiny")],
            capture_output=True, text=True, env={**env, "PYTHONPATH": str(SRC)})
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "tiny" / "curve.csv").exists()

    def test_malformed_run_flag_fails_like_the_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("budget = x\n")
        assert exit_code("run", "--budget", "x", "--outdir", str(tmp_path / "a")) == 1
        from_flag = capsys.readouterr().err
        assert exit_code("run", "--config", str(cfg), "--outdir", str(tmp_path / "b")) == 1
        assert capsys.readouterr().err == from_flag == "run: budget must be an integer, got 'x'\n"
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("argv,key", [
        (("run", "--gamma0", "inf"), "gamma0"),
        (("run", "--ridge", "nan"), "ridge"),
        (("run", "--bound", "inf", "--strategy", "active-least-squares"), "bound"),
        (("run", "--strategy", "least-squares", "--bound", "1e308"), "bound"),
        (("run", "--sigma", "inf"), "sigma"),
        (("run", "--sigma", "1e200"), "sigma"),
        (("run", "--sigma", "1e-170"), "sigma"),
        (("run", "--seed", "-1"), "seed"),
        (("run", "--task", "anchor-classification", "--grid-size", "2", "--epsilon", "0.2",
          "--classes", "3"), "grid_size"),
        (("run", "--task", "csv-regression", "--input", str(FIXTURES / "weather.csv"),
          "--target", "nosuch"), "target"),
        (("run", "--task", "csv-regression", "--input", str(FIXTURES / "weather.csv"),
          "--target", ","), "target"),
        (("run", "--task", "csv-regression", "--input", str(FIXTURES / "weather.csv"),
          "--target", "temperature,humidity,wind,apparent"), "target"),
        (("run", "--task", "csv-regression", "--input", str(FIXTURES / "weather.csv"),
          "--target", "apparent,apparent"), "target"),
        (("run", "--task", "csv-regression", "--input", "{tmp}/twice.csv", "--target", "a"),
         "target"),
        (("run", "--task", "libsvm", "--input", str(FIXTURES / "blobs3.libsvm"),
          "--train-fraction", "0.001"), "train_fraction"),
        (("run", "--task", "libsvm", "--input", str(FIXTURES / "blobs3.libsvm"),
          "--train-fraction", "0.006"), "train_fraction"),
        (("verify", "--seed", "-1"), "--seed"),
        (("constants", "--m", "0"), "--m"),
        (("constants", "--m", "3", "--scale", "1e308", "--samples", "1000"), "--scale"),
        (("game", "--counterexample", "--tol", "0"), "--tol"),
        (("constants", "--m", "x"), "--m"),
        (("constants", "--seed", "-1"), "--seed"),
        (("run", "--config", "{tmp}/missing.cfg"), "cannot read config:"),
        (("game",), "game needs"),
        (("run", "--schedule", "cyclic"), "schedule"),
        (("run", "--gamma0", "0"), "gamma0"),
        (("run", "--gamma0", "-1"), "gamma0"),
        (("run", "--bound", "0"), "bound"),
        (("run", "--task", "anchor-classification", "--epsilon", "0.25"), "epsilon"),
        (("run", "--task", "anchor-classification", "--classes", "2"), "classes"),
        (("constants", "--m", "3", "--scale", "0", "--samples", "1000"), "--scale"),
        (("run", "--ridge", "-1"), "ridge"),
        (("game", "--counterexample", "--tol", "inf"), "--tol"),
        (("game", "--counterexample", "--tol", "nan"), "--tol"),
        (("constants", "--m", "3", "--samples", "999"), "--samples"),
        (("constants", "--m", "3,0"), "--m"),
        (("run", "--strategy", "nosuch"), "strategy"),
        (("run", "--task", "libsvm", "--input", str(FIXTURES / "blobs3.libsvm"),
          "--train-fraction", "1.5"), "train_fraction"),
    ], ids=["run-gamma0", "run-ridge", "run-bound", "run-bound-overflow", "run-sigma",
            "run-sigma-overflow", "run-sigma-underflow",
            "run-seed", "run-empty-anchor-grid", "run-csv-target",
            "run-csv-no-target", "run-csv-every-column", "run-csv-repeated-target",
            "run-csv-header-twice", "run-no-training-row", "run-one-training-row",
            "verify-seed", "constants-m", "constants-scale", "game-tol",
            "constants-m-not-integer", "constants-seed", "run-missing-config", "game-no-p",
            "run-schedule", "run-gamma0-zero", "run-gamma0-negative", "run-bound-zero",
            "run-anchor-epsilon", "run-anchor-classes", "constants-scale-zero",
            "run-ridge-negative", "game-tol-inf", "game-tol-nan", "constants-samples",
            "constants-m-zero-after-valid", "run-strategy", "run-train-fraction-above-one"])
    def test_invalid_value_is_config_error(self, capsys, tmp_path, monkeypatch, argv, key):
        def no_trial(args):
            raise AssertionError("a trial ran before the configuration was checked")

        monkeypatch.setattr(experiments, "_one_trial", no_trial)
        # the header names column a twice; --target a must not pick one silently
        (tmp_path / "twice.csv").write_text("a,a,b\n1,2,3\n4,5,6\n7,8,9\n")
        argv = tuple(arg.replace("{tmp}", str(tmp_path)) for arg in argv)
        outdir = tmp_path / "out"
        if argv[0] == "run":
            argv += ("--budget", "16", "--trials", "1", "--outdir", str(outdir))
        assert exit_code(*argv) == 1
        assert capsys.readouterr().err.startswith(f"{argv[0]}: {key} ")
        assert not outdir.exists()

    @pytest.mark.parametrize("argv", [("--help",), ("--version",), ("run", "--help")])
    def test_help_and_version_exit_zero(self, capsys, argv):
        assert exit_code(*argv) == 0
        assert capsys.readouterr().out


class TestConfigFormat:
    def test_parse_basics(self):
        mapping = cli.parse_config("a = 1\n# comment\nb= x  # trailing\n\nc =3\n")
        assert mapping == {"a": "1", "b": "x", "c": "3"}

    def test_parse_rejects_bare_words(self):
        with pytest.raises(ConfigError):
            cli.parse_config("justaword\n")

    def test_round_trip_normalizes(self):
        text = "b = 2\na = 1\n"
        mapping = cli.parse_config(text)
        normalized = cli.serialize_config(mapping)
        assert normalized == "a = 1\nb = 2\n"
        # already-normal text is a fixed point
        assert cli.serialize_config(cli.parse_config(normalized)) == normalized

    def test_unknown_key_rejected_at_config_build(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"tsk": "sin-regression"})

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"budget": "many"})
        with pytest.raises(ConfigError):
            config_from_mapping({"gamma0": "fast"})


class TestConstantsCommand:
    def test_table_and_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "constants.csv"
        code, out, _ = run_cli(capsys, "constants", "--m", "1,3", "--samples", "200000",
                               "--seed", "0", "--out", str(out_file))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("m,c2_closed,c2_mc")
        assert lines[1].startswith("1,1.0,1.0,0.0,0.25,")
        assert all(ln.endswith(",ok") for ln in lines[1:])
        assert out_file.read_text().splitlines()[0] == lines[0]

    def test_corrupted_formula_fails_loudly(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "c2_constant", lambda m: 0.9)
        code, out, err = run_cli(capsys, "constants", "--m", "3", "--samples", "100000")
        assert code == 3
        assert "FAIL" in out
        assert "disagree" in err

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "constants", "--m", "3", "--samples", "10")
        assert code == 1


class TestGameCommand:
    def test_counterexample(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--counterexample")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert float(rows["value"]) == pytest.approx(-0.1, abs=1e-3)
        mu = [float(v) for v in rows["query_strategy"].split(",")]
        v = [float(x) for x in rows["prediction_strategy"].split(",")]
        assert np.allclose(mu, [0.5, 0.25, 0.25], atol=1e-6)
        assert np.allclose(v, [0.25, 0.375, 0.375], atol=1e-6)

    def test_explicit_distribution(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--p", "1,0")
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert float(rows["value"]) == pytest.approx(-1.0, abs=1e-6)

    def test_uniform_two_classes(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--p", "0.5,0.5")
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert code == 0
        assert float(rows["value"]) == pytest.approx(0.0, abs=1e-9)

    def test_invalid_distribution(self, capsys):
        code, _, err = run_cli(capsys, "game", "--p", "0.9,0.9")
        assert code == 1
        assert "sum to 1" in err

    def test_explicit_sets(self, capsys):
        code, out, _ = run_cli(capsys, "game", "--p", "0.6,0.2,0.2",
                               "--sets", "1;2,3")
        assert code == 0


class TestRunCommand:
    BASE = ("run", "--task", "sin-regression", "--strategy", "active-median",
            "--budget", "32", "--trials", "3", "--seed", "0", "--gamma0", "0.3",
            "--rank", "20")

    def test_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *self.BASE, "--outdir", str(tmp_path))
        assert code == 0
        budgets, _, _, n_trials = read_curve(tmp_path / "curve.csv")
        assert budgets.tolist() == [1, 2, 4, 8, 16, 32]
        assert (n_trials == 3).all()
        assert (tmp_path / "curve.svg").exists()
        manifest = (tmp_path / "manifest").read_text()
        assert manifest.startswith("# weaksgd")
        assert "task = sin-regression" in manifest

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        run_cli(capsys, *self.BASE, "--outdir", str(tmp_path / "a"))
        run_cli(capsys, *self.BASE, "--outdir", str(tmp_path / "b"))
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()
        assert (tmp_path / "a/curve.svg").read_bytes() == (tmp_path / "b/curve.svg").read_bytes()

    def test_manifest_reproduces_run(self, capsys, tmp_path):
        run_cli(capsys, *self.BASE, "--outdir", str(tmp_path / "a"))
        code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "a/manifest"),
                             "--outdir", str(tmp_path / "b"))
        assert code == 0
        assert (tmp_path / "a/curve.csv").read_bytes() == (tmp_path / "b/curve.csv").read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("task = sin-regression\nstrategy = active-median\n"
                       "budget = 32\ntrials = 2\nseed = 0\ngamma0 = 0.3\nrank = 20\n")
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg), "--trials", "4",
                             "--outdir", str(tmp_path / "out"))
        assert code == 0
        assert (read_curve(tmp_path / "out/curve.csv")[3] == 4).all()

    def test_disallowed_strategy_for_task(self, capsys, tmp_path, fixtures_dir):
        code, _, err = run_cli(capsys, "run", "--task", "libsvm", "--strategy",
                               "full-sgd", "--input", str(fixtures_dir / "blobs3.libsvm"),
                               "--outdir", str(tmp_path))
        assert code == 1
        assert "strategy 'full-sgd' is not one of" in err
        assert not (tmp_path / "curve.csv").exists()

    def test_missing_input_file_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "--task", "libsvm", "--strategy",
                             "active-median", "--input", str(tmp_path / "nope.libsvm"),
                             "--budget", "16", "--trials", "1",
                             "--outdir", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "curve.csv").exists()

    def test_libsvm_run_end_to_end(self, capsys, tmp_path, fixtures_dir):
        code, _, _ = run_cli(capsys, "run", "--task", "libsvm", "--strategy",
                             "active-median", "--input", str(fixtures_dir / "blobs3.libsvm"),
                             "--budget", "256", "--trials", "2", "--seed", "1",
                             "--gamma0", "7.5", "--outdir", str(tmp_path))
        assert code == 0
        assert read_curve(tmp_path / "curve.csv")[1][-1] < 2.0 / 3.0

    def test_non_finite_curve_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--task", "sin-regression", "--budget", "64",
                               "--trials", "2", "--gamma0", "1e200",
                               "--outdir", str(tmp_path))
        assert code == 2
        assert "not finite" in err
        assert not any((tmp_path / name).exists()
                       for name in ("curve.csv", "curve.svg", "manifest"))

    @pytest.mark.parametrize("strategy", ["active-median", "coordinate-passive",
                                          "infimum-loss"])
    def test_diverged_run_with_a_finite_curve_is_runtime_error(self, capsys, tmp_path,
                                                               strategy):
        # every trial's averaged model is not finite, yet a NaN prediction
        # decodes to a class, so the zero-one curve is finite: only the check
        # of the averaged model sees the divergence
        outdir = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(capsys, "run", "--task", "libsvm", "--strategy", strategy,
                                   "--input", str(FIXTURES / "blobs3.libsvm"),
                                   "--gamma0", "1e300", "--budget", "64", "--trials", "1",
                                   "--outdir", str(outdir))
        assert code == 2
        assert "not finite" in err
        assert not outdir.exists()

    def test_failed_run_keeps_the_previous_artifacts(self, capsys, tmp_path):
        names = ("curve.csv", "curve.svg", "manifest")
        code, _, _ = run_cli(capsys, "run", "--task", "sin-regression", "--budget", "16",
                             "--trials", "1", "--outdir", str(tmp_path))
        assert code == 0
        before = {name: (tmp_path / name).read_bytes() for name in names}
        code, _, err = run_cli(capsys, "run", "--task", "sin-regression", "--budget", "16",
                               "--trials", "1", "--gamma0", "1e200",
                               "--outdir", str(tmp_path))
        assert code == 2
        assert "not finite" in err
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_failed_emission_removes_its_temporary_files(self, capsys, tmp_path, monkeypatch):
        names = ("curve.csv", "curve.svg", "manifest")
        code, _, _ = run_cli(capsys, "run", "--task", "sin-regression", "--budget", "16",
                             "--trials", "1", "--outdir", str(tmp_path))
        assert code == 0
        before = {name: (tmp_path / name).read_bytes() for name in names}

        def broken_svg(curves, path):
            # emit_csv has already written its temporary file
            assert any(p.name.endswith(".tmp") for p in tmp_path.iterdir())
            raise OSError("disk full")

        monkeypatch.setattr(cli, "emit_svg", broken_svg)
        code, _, err = run_cli(capsys, "run", "--task", "sin-regression", "--budget", "16",
                               "--trials", "1", "--seed", "5", "--outdir", str(tmp_path))
        assert code == 2
        assert "disk full" in err
        assert not list(tmp_path.glob(".*.tmp"))
        assert {name: (tmp_path / name).read_bytes() for name in names} == before

    def test_non_finite_libsvm_value_is_runtime_error(self, capsys, tmp_path, fixtures_dir):
        lines = (fixtures_dir / "blobs3.libsvm").read_text().splitlines()
        label, _, rest = lines[4].partition(" ")
        lines[4] = f"{label} 1:inf {rest.split()[1]}"
        path = tmp_path / "bad.libsvm"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "run", "--task", "libsvm", "--input", str(path),
                               "--budget", "64", "--trials", "1",
                               "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert "line 5" in err
        assert not (tmp_path / "out" / "curve.csv").exists()

    def test_non_finite_csv_row_is_dropped(self, capsys, tmp_path, fixtures_dir):
        lines = (fixtures_dir / "weather.csv").read_text().splitlines()
        lines[1] = "inf," + lines[1].partition(",")[2]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, _ = run_cli(capsys, "run", "--task", "csv-regression", "--input", str(path),
                             "--target", "apparent", "--bound", "30", "--budget", "16",
                             "--trials", "2", "--outdir", str(tmp_path))
        assert code == 0
        assert np.isfinite(read_curve(tmp_path / "curve.csv")[1]).all()

    def test_zero_risk_curve_is_written(self, capsys, tmp_path):
        # the anchored task learned perfectly: every checkpoint risk is zero
        code, _, _ = run_cli(capsys, "run", "--task", "anchor-classification",
                             "--budget", "16", "--trials", "1", "--grid-size", "1",
                             "--epsilon", "0.2", "--classes", "3", "--outdir", str(tmp_path))
        assert code == 0
        assert (read_curve(tmp_path / "curve.csv")[1] == 0.0).all()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv", "curve.svg",
                                                             "manifest"]

    @pytest.mark.parametrize("body", ["a,b\n1,2\n3\n", "a,b\n,2\nx,3\n"],
                             ids=["cell-count", "no-usable-row"])
    def test_malformed_csv_is_runtime_error(self, capsys, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        code, _, err = run_cli(capsys, "run", "--task", "csv-regression", "--input", str(path),
                               "--target", "b", "--budget", "16", "--trials", "1",
                               "--outdir", str(tmp_path / "out"))
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert err.startswith("run: line ")

    def test_jobs_parallelism_matches_serial(self, capsys, tmp_path):
        run_cli(capsys, *self.BASE, "--outdir", str(tmp_path / "serial"))
        run_cli(capsys, *self.BASE, "--jobs", "2", "--outdir", str(tmp_path / "par"))
        assert (tmp_path / "serial/curve.csv").read_bytes() == \
            (tmp_path / "par/curve.csv").read_bytes()


class TestVerifyCommand:
    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 6
        assert all(ln.startswith("ok") for ln in lines)

    def test_failures_are_reported(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("no answer")

        monkeypatch.setattr(cli, "_verify_checks",
                            lambda rng: [("false", lambda: False), ("raises", broken)])
        code, out, err = run_cli(capsys, "verify")
        assert code == 3
        assert out.splitlines() == ["FAIL false", "FAIL raises: no answer"]
        assert err == "2 check(s) failed\n"
