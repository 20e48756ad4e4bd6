import re
from dataclasses import replace

import numpy as np
import pytest

from weaksgd.experiments import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    config_to_mapping,
    run_curve,
    train,
    validate_config,
)
from weaksgd.kernel import KernelModel, KernelSpec
from weaksgd.learner import StepSchedule, run_full_sgd
from weaksgd.oracle import QueryOracle


class TestConfigResolution:
    def test_sin_defaults(self):
        cfg = ExperimentConfig(task="sin-regression").resolved()
        assert cfg.sigma == 0.2
        assert cfg.ridge == 0.0

    def test_anchor_defaults(self):
        cfg = ExperimentConfig(task="anchor-classification").resolved()
        assert cfg.sigma == 0.05
        assert cfg.ridge == 0.0

    def test_file_task_defaults(self, fixtures_dir):
        cfg = ExperimentConfig(task="libsvm",
                               input=str(fixtures_dir / "blobs3.libsvm")).resolved()
        assert cfg.sigma is None  # resolved later from the file's dimension
        assert cfg.ridge == 1e-6

    def test_explicit_values_survive(self):
        cfg = ExperimentConfig(task="sin-regression", sigma=0.4, ridge=0.1).resolved()
        assert cfg.sigma == 0.4
        assert cfg.ridge == 0.1

    def test_strategy_table_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="anchor-classification", strategy="passive").resolved()
        with pytest.raises(ConfigError):
            ExperimentConfig(task="sin-regression", strategy="infimum-loss").resolved()

    def test_numeric_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(budget=0).resolved()
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma0=0.0).resolved()
        with pytest.raises(ConfigError):
            ExperimentConfig(task="anchor-classification", epsilon=0.3).resolved()
        with pytest.raises(ConfigError):
            validate_config(replace(ExperimentConfig().resolved(), sigma=-1.0))
        for cfg, message in [
            (ExperimentConfig(task="regression"), "unknown task 'regression'"),
            (ExperimentConfig(ridge=-1.0), "ridge must be finite and >= 0, got -1.0"),
            (ExperimentConfig(seed=-1), "seed -1 is not a generator seed"),
            (ExperimentConfig(train_fraction=1.0), "train_fraction must lie strictly"),
            (ExperimentConfig(task="anchor-classification", classes=2),
             "the anchored task needs at least 3 classes"),
            # counts that are not integers, refused by their owner, not by numpy mid-run
            (ExperimentConfig(budget=16.0, trials=1),
             "budget 16.0 is not a positive integer: budget must be an integer, got 16.0"),
            (ExperimentConfig(rank=4.0), "rank 4.0 is not a positive integer"),
            (ExperimentConfig(grid_size=8.5), "grid_size 8.5 is not a positive integer"),
            (ExperimentConfig(seed=1.5), "seed 1.5 is not a generator seed"),
            (ExperimentConfig(task="anchor-classification", classes=3.0),
             "classes 3.0 is not an anchored class count"),
        ]:
            with pytest.raises(ConfigError, match=message):
                cfg.resolved()

    def test_schedule_names_are_the_step_schedule_kinds(self):
        accepted = []
        for name in ("decaying", "constant", "cyclic", "horizon", "Decaying", ""):
            try:
                ExperimentConfig(schedule=name).resolved()
                accepted.append(name)
            except ConfigError:
                pass
        assert tuple(accepted) == StepSchedule.KINDS

    def test_file_task_needs_input(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="csv-regression").resolved()

    def test_mapping_round_trip(self):
        cfg = ExperimentConfig(task="sin-regression", budget=64, gamma0=0.25).resolved()
        assert config_from_mapping(config_to_mapping(cfg)) == cfg


class TestTrainRowCounts:
    @pytest.mark.parametrize("rows", [50, 10], ids=["X longer", "X shorter"])
    @pytest.mark.parametrize("strategy,n_classes", [
        ("active-median", None), ("infimum-loss", 3), ("full-sgd", None)])
    def test_a_row_count_mismatch_is_refused_before_a_bit(self, no_bits, strategy,
                                                          n_classes, rows):
        rng = np.random.default_rng(0)
        X = rng.random((rows, 2))
        labels = rng.integers(1, 4, 30) if n_classes else rng.random((30, 1))
        model = KernelModel.zeros(X[:5], n_classes or 1, KernelSpec(0.3))
        # full-sgd's labels are rows of one output, the oracles' one label per sample
        with pytest.raises(ValueError, match=rf"labels of shape \(30,( 1)?\) do not match "
                                             rf"X of shape \({rows}, 2\)"):
            train(strategy, X, labels, model, StepSchedule.decaying(0.5), rng, 40, n_classes)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("strategy", ["active-median", "active-least-squares", "passive",
                                          "full-sgd"])
    def test_a_non_finite_target_is_refused_before_a_bit(self, no_bits, strategy, bad):
        rng = np.random.default_rng(0)
        X = rng.random((30, 2))
        labels = rng.random((30, 1))
        labels[7, 0] = bad
        model = KernelModel.zeros(X[:5], 1, KernelSpec(0.3))
        with pytest.raises(ValueError, match="real labels contain non-finite values"):
            train(strategy, X, labels, model, StepSchedule.decaying(0.5), rng, 40)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_the_oracle_and_full_sgd_refuse_a_non_finite_target(self, bad):
        X = np.linspace(0.0, 1.0, 6)[:, None]
        labels = np.zeros((6, 2))
        labels[2, 1] = bad
        with pytest.raises(ValueError, match="real labels contain non-finite values"):
            QueryOracle.for_regression(labels, 6)
        model = KernelModel.zeros(X[:3], 2, KernelSpec(0.3))
        with pytest.raises(ValueError, match="real labels contain non-finite values"):
            run_full_sgd(X, labels, StepSchedule.decaying(0.5), model)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("strategy", ["full-sgd", "active-median"])
    def test_a_negative_budget_is_refused_for_every_strategy(self, strategy):
        rng = np.random.default_rng(0)
        X = rng.random((30, 2))
        model = KernelModel.zeros(X[:5], 1, KernelSpec(0.3))
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            train(strategy, X, rng.random((30, 1)), model, StepSchedule.decaying(0.5), rng, -1)

    @pytest.mark.parametrize("budget", [2.5, 100.0, np.float64(8.0), True, np.bool_(True),
                                        "8", None],
                             ids=["2.5", "100.0", "float64", "True", "bool_", "str", "None"])
    @pytest.mark.parametrize("strategy", ["full-sgd", "active-median"])
    def test_a_budget_that_is_not_an_integer_is_refused(self, monkeypatch, no_bits, strategy,
                                                        budget):
        def build(*args):
            raise AssertionError("an oracle was built")

        monkeypatch.setattr(QueryOracle, "__init__", build)
        rng = np.random.default_rng(0)
        X = rng.random((30, 2))
        model = KernelModel.zeros(X[:5], 1, KernelSpec(0.3))
        with pytest.raises(TypeError,
                           match=re.escape(f"budget must be an integer, got {budget!r}")):
            train(strategy, X, rng.random((30, 1)), model, StepSchedule.decaying(0.5), rng,
                  budget)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("budget", [40, np.int64(40), np.int32(40), np.uint16(40)],
                             ids=["int", "int64", "int32", "uint16"])
    @pytest.mark.parametrize("strategy", ["full-sgd", "active-median"])
    def test_python_and_numpy_integers_are_budgets(self, strategy, budget):
        rng = np.random.default_rng(0)
        X = rng.random((30, 2))
        model = KernelModel.zeros(X[:5], 1, KernelSpec(0.3))
        report = train(strategy, X, rng.random((30, 1)), model, StepSchedule.decaying(0.5),
                       rng, budget, grid=[40])
        assert [t for t, _ in report.checkpoints] == [40]
        assert report.queries_used == (0 if strategy == "full-sgd" else 40)


class TestRunCurve:
    def test_checkpoint_grid_and_trials(self):
        cfg = ExperimentConfig(task="sin-regression", strategy="active-median",
                               budget=24, trials=4, seed=3, gamma0=0.3, rank=12)
        curve = run_curve(cfg)
        assert curve.budgets.tolist() == [1, 2, 4, 8, 16, 24]
        assert curve.n_trials == 4
        assert (curve.mean_risk > 0).all()

    def test_trials_differ_but_seeded(self):
        cfg = ExperimentConfig(task="sin-regression", strategy="active-median",
                               budget=32, trials=2, seed=5, gamma0=0.3, rank=12)
        a, b = run_curve(cfg), run_curve(cfg)
        assert a.mean_risk.tobytes() == b.mean_risk.tobytes()
        assert (a.std_risk > 0).any()  # distinct per-trial seeds

    def test_full_sgd_respects_budget_on_file_task(self, fixtures_dir):
        cfg = ExperimentConfig(task="csv-regression", strategy="full-sgd", budget=8,
                               trials=2, seed=1, gamma0=0.5, rank=10,
                               input=str(fixtures_dir / "weather.csv"),
                               target="apparent")
        assert run_curve(cfg).budgets.tolist() == [1, 2, 4, 8]

    def test_budget_beyond_file_cycles(self, fixtures_dir):
        cfg = ExperimentConfig(task="csv-regression", strategy="active-median",
                               budget=40, trials=2, seed=1, gamma0=0.5, rank=10,
                               bound=30.0, input=str(fixtures_dir / "weather.csv"),
                               target="apparent")
        curve = run_curve(cfg)
        assert curve.budgets[-1] == 40  # 13 train rows, cycled past one pass

    def test_worker_processes_match_serial(self):
        cfg = ExperimentConfig(task="sin-regression", strategy="active-median",
                               budget=32, trials=4, seed=9, gamma0=0.3, rank=12)
        serial = run_curve(cfg)
        parallel = run_curve(replace(cfg, jobs=2))
        assert serial.mean_risk.tobytes() == parallel.mean_risk.tobytes()
        assert serial.std_risk.tobytes() == parallel.std_risk.tobytes()

    def test_multi_target_csv(self, tmp_path):
        rows = ["a,y1,y2"] + [f"{i / 10},{i / 5},{i / 7}" for i in range(12)]
        path = tmp_path / "two_targets.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig(task="csv-regression", strategy="active-median",
                               budget=8, trials=1, seed=0, gamma0=0.3, rank=4,
                               bound=3.0, input=str(path), target="y1,y2")
        curve = run_curve(cfg)
        assert curve.budgets[-1] == 8


class TestFileInputParsedOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_parse_per_run(self, fixtures_dir, monkeypatch, jobs):
        from weaksgd import experiments

        calls = []
        parse = experiments.parse_libsvm
        monkeypatch.setattr(experiments, "parse_libsvm",
                            lambda fh: calls.append(1) or parse(fh))
        cfg = ExperimentConfig(task="libsvm", strategy="infimum-loss", budget=64, trials=3,
                               seed=2, gamma0=0.5, rank=10, jobs=jobs,
                               input=str(fixtures_dir / "blobs3.libsvm"))
        run_curve(cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("task,name,extra", [
        ("libsvm", "blobs3.libsvm", {}),
        ("csv-regression", "weather.csv", {"target": "apparent", "bound": 30.0}),
    ])
    def test_curve_bytes_independent_of_jobs(self, fixtures_dir, tmp_path, task, name, extra):
        from weaksgd.evaluation import emit_csv

        cfg = ExperimentConfig(task=task, strategy="active-median", budget=64, trials=3,
                               seed=4, gamma0=0.5, rank=10, input=str(fixtures_dir / name),
                               **extra)
        emit_csv(run_curve(cfg), tmp_path / "serial.csv")
        emit_csv(run_curve(replace(cfg, jobs=2)), tmp_path / "parallel.csv")
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "parallel.csv").read_bytes()
