"""The benchmark's four workloads, each entered through a public weaksgd API.

A workload builds its inputs from the seed in :meth:`Workload.prepare`
(never timed), then a *pass* runs every configuration once, in one process,
one call after another. Each configuration is called through the module
attribute the package exposes (``experiments.run_curve``, ``cli.main``,
the estimator methods), so a traced pass reaches the same code through the
installed wrappers. :meth:`Config.collect` turns a configuration's result
into risks and a fingerprint of its output bytes, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from weaksgd import cli, evaluation, experiments
from weaksgd.estimators import WeakSGDClassifier, WeakSGDRegressor
from weaksgd.experiments import ExperimentConfig
from weaksgd.oracle import QueryOracle


@dataclass
class Output:
    """What the gate checks for one configuration of one pass."""

    risks: np.ndarray  # every risk the configuration reports; all must be finite
    final_risk: float
    fingerprint: str  # digest of the output bytes; equal across passes of one seed


@dataclass
class Config:
    label: str  # names the configuration in gate messages and quality floors
    trials: int  # trials (or fits) this configuration runs
    budget: int  # SGD steps per trial
    uses_oracle: bool  # False for full-sgd, which reads labels directly
    run: object  # () -> raw result, timed
    collect: object  # raw result -> Output, untimed

    @property
    def steps(self) -> int:
        return self.trials * self.budget


class OracleLedger:
    """Keeps every oracle created while active, so a pass can sum the bits spent."""

    _FACTORIES = ("for_regression", "for_classification")

    def __enter__(self):
        self.oracles = []
        self._saved = {name: vars(QueryOracle)[name] for name in self._FACTORIES}
        for name, factory in self._saved.items():
            setattr(QueryOracle, name, classmethod(self._keeping(factory.__func__)))
        return self

    def _keeping(self, factory):
        def create(cls, *args, **kwargs):
            oracle = factory(cls, *args, **kwargs)
            self.oracles.append(oracle)
            return oracle
        return create

    def __exit__(self, *exc):
        for name, factory in self._saved.items():
            setattr(QueryOracle, name, factory)
        return False

    @property
    def queries(self) -> int:
        return sum(o.budget_used for o in self.oracles)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    strategies: tuple = ()  # strategies whose driver steps the trace must see
    spans: tuple = ()  # span or counter names the trace must see at least once

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.configs = self._configs()

    def _configs(self) -> list[Config]:
        raise NotImplementedError

    def quality(self, outputs: dict) -> list[str]:
        """Failures of the workload's quality floor; ``outputs`` maps label to Output."""
        raise NotImplementedError

    def final_risk(self, outputs: dict) -> float:
        return float(np.mean([o.final_risk for o in outputs.values()]))

    @property
    def pass_trials(self) -> int:
        return sum(c.trials for c in self.configs)

    @property
    def pass_steps(self) -> int:
        return sum(c.steps for c in self.configs)

    @property
    def pass_queries(self) -> int:
        return sum(c.steps for c in self.configs if c.uses_oracle)


class _CurveWorkload(Workload):
    """Workloads that call ``experiments.run_curve`` once per strategy."""

    base: ExperimentConfig

    def _configs(self):
        configs = []
        for strategy in self.strategies:
            cfg = replace(self.base, strategy=strategy, seed=self.seed)
            configs.append(Config(
                strategy, cfg.trials, cfg.budget, strategy != "full-sgd",
                run=lambda cfg=cfg: experiments.run_curve(cfg),
                collect=lambda curve, s=strategy: self._collect(s, curve),
            ))
        return configs

    def _collect(self, strategy, curve) -> Output:
        path = os.path.join(self.workdir, f"{strategy}.csv")
        evaluation.emit_csv(curve, path)
        with open(path, "rb") as fh:
            data = fh.read()
        risks = np.concatenate([curve.mean_risk, curve.std_risk])
        return Output(risks, self.risk_at_end(curve), _digest(data))

    def risk_at_end(self, curve) -> float:
        return float(curve.mean_risk[-1])


class SinStrategies(_CurveWorkload):
    name = "sin-strategies"
    strategies = ("active-median", "active-least-squares", "passive", "full-sgd")
    spans = ("experiments.run_curve", "datasets.gen", "kernel.matrix", "kernel.predict",
             "geometry.sphere", "oracle.query", "evaluation.checkpoint", "evaluation.emit")
    base = ExperimentConfig(task="sin-regression", budget=2**14, trials=2, sigma=0.2,
                            gamma0=0.3, schedule="decaying", rank=100, jobs=1)

    def quality(self, outputs):
        active, passive = outputs["active-median"].final_risk, outputs["passive"].final_risk
        if not active < passive:
            return [f"active-median final risk {active!r} is not below passive {passive!r}"]
        return []


class AnchorClasses(_CurveWorkload):
    name = "anchor-classes"
    strategies = ("active-median", "coordinate-passive", "infimum-loss")
    spans = SinStrategies.spans + ("datasets.anchor_law",)
    base = ExperimentConfig(task="anchor-classification", budget=2**14, trials=1,
                            sigma=0.05, gamma0=2.0, schedule="decaying", rank=64,
                            classes=10, epsilon=1.0 / 20.0, jobs=1)

    def risk_at_end(self, curve):
        # run_curve reports the excess over the Bayes classifier, which is exactly
        # 0 once the decoded class is right on the whole grid; the risk itself
        # adds the Bayes risk of the task's exact class law on the same grid.
        return float(curve.mean_risk[-1]) + self.bayes_risk()

    def bayes_risk(self) -> float:
        cfg = self.base
        xs = (np.arange(cfg.grid_size) + 0.5) / cfg.grid_size
        xs = xs[(np.abs(xs - 0.25) > cfg.epsilon) & (np.abs(xs - 0.75) > cfg.epsilon)]
        # 1 - max_y P(y | x) grows linearly from 0 at the point masses (x = 0,
        # 1/2, 1) to 1 - 1/classes at the uniform anchors (x = 1/4, 3/4)
        to_mass = np.minimum(np.minimum(xs, np.abs(xs - 0.5)), 1.0 - xs)
        return float(((1.0 - 1.0 / cfg.classes) * 4.0 * to_mass).mean())

    def quality(self, outputs):
        excess = outputs["active-median"].final_risk - self.bayes_risk()
        if not excess <= 1e-2:
            return [f"active-median final excess risk {excess!r} is above 1e-2"]
        return []


def write_libsvm(path: str, rng: np.random.Generator, rows: int, features: int,
                 classes: int, separation: float) -> None:
    """Gaussian classes, one informative coordinate each, plus sparse noise columns.

    Values go through ``float(...)!r`` so the file holds plain decimal tokens.
    """
    y = rng.integers(0, classes, rows)
    X = rng.standard_normal((rows, features))
    X[np.arange(rows), y] += separation
    dense = classes + 2
    X[:, dense:] *= rng.random((rows, features - dense)) < 0.2
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(rows):
            parts = [str(int(y[r]) + 1)]
            parts += [f"{j + 1}:{float(X[r, j])!r}" for j in np.flatnonzero(X[r])]
            fh.write(" ".join(parts) + "\n")


class LibsvmFile(Workload):
    name = "libsvm-file"
    strategies = ("active-median", "coordinate-passive")
    spans = ("cli.main", "experiments.run_curve", "datasets.parse", "datasets.prep",
             "kernel.matrix", "kernel.predict", "geometry.sphere", "oracle.query",
             "evaluation.checkpoint", "evaluation.emit")
    rows, features, classes, separation = 6000, 20, 3, 2.0
    budget, trials, rank = 4000, 3, 100  # budget = the 4000 training rows: streaming

    def _configs(self):
        data = os.path.join(self.workdir, "data.libsvm")
        write_libsvm(data, np.random.default_rng(self.seed), self.rows, self.features,
                     self.classes, self.separation)
        configs = []
        for strategy in self.strategies:
            outdir = os.path.join(self.workdir, strategy)
            argv = ["run", "--task", "libsvm", "--input", data, "--strategy", strategy,
                    "--budget", str(self.budget), "--trials", str(self.trials),
                    "--seed", str(self.seed), "--rank", str(self.rank), "--sigma", "2.0",
                    "--gamma0", "7.5", "--schedule", "decaying", "--jobs", "1",
                    "--outdir", outdir]
            configs.append(Config(
                strategy, self.trials, self.budget, True,
                run=lambda argv=argv: self._main(argv),
                collect=lambda code, outdir=outdir: self._collect(code, outdir),
            ))
        return configs

    @staticmethod
    def _main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def _collect(code, outdir) -> Output:
        if code != 0:
            raise RuntimeError(f"weaksgd run exited with {code}")
        paths = [os.path.join(outdir, n) for n in ("curve.csv", "curve.svg", "manifest")]
        blobs = []
        for p in paths:
            with open(p, "rb") as fh:
                blobs.append(fh.read())
            os.unlink(p)  # a failed next pass must not find these
        rows = [ln.split(",") for ln in blobs[0].decode().splitlines()[1:]]
        risks = np.array([[float(r[1]), float(r[2])] for r in rows]).ravel()
        return Output(risks, float(rows[-1][1]), _digest(b"\0".join(blobs)))

    def quality(self, outputs):
        line = 1.0 - 1.0 / self.classes
        return [f"{label} test error {o.final_risk!r} is not below {line!r}"
                for label, o in outputs.items() if not o.final_risk < line]


def _targets(X: np.ndarray) -> np.ndarray:
    return np.stack([np.sin(2 * np.pi * X[:, 0]), np.cos(2 * np.pi * X[:, 1]),
                     2.0 * X[:, 2] * X[:, 3] - 0.5], axis=1)


class EstimatorPool(Workload):
    name = "estimator-pool"
    strategies = ("active-median",)
    spans = ("estimators.fit", "estimators.predict", "kernel.matrix", "kernel.predict",
             "geometry.sphere", "oracle.query")
    pool, held_out, features = 1000, 20000, 4
    budget, rank, bandwidth = 8000, 100, 0.3  # budget is 8 passes over the pool

    def _configs(self):
        rng = np.random.default_rng(self.seed)
        X = rng.random((self.pool + self.held_out, self.features))
        F = _targets(X)
        Y = F + 0.1 * rng.standard_normal(F.shape)
        labels = np.argmax(F + 0.3 * rng.standard_normal(F.shape), axis=1)
        p = self.pool
        self.data = (X[:p], Y[:p], labels[:p], X[p:], Y[p:], labels[p:])
        reg = WeakSGDRegressor(strategy="median", bandwidth=self.bandwidth, gamma0=0.5,
                               budget=self.budget, rank=self.rank, seed=self.seed)
        clf = WeakSGDClassifier(strategy="active", bandwidth=self.bandwidth, gamma0=2.0,
                                budget=self.budget, rank=self.rank, seed=self.seed)
        Xp, Yp, Lp, Xh, _, _ = self.data
        return [
            Config("regressor", 1, self.budget, True,
                   run=lambda: reg.fit(Xp, Yp).predict(Xh), collect=self._collect_reg),
            Config("classifier", 1, self.budget, True,
                   run=lambda: clf.fit(Xp, Lp).predict(Xh), collect=self._collect_clf),
        ]

    def _collect_reg(self, pred) -> Output:
        Yh = self.data[4]
        risk = float(np.linalg.norm(pred - Yh, axis=1).mean())
        return Output(pred.ravel(), risk, _digest(np.ascontiguousarray(pred).tobytes()))

    def _collect_clf(self, pred) -> Output:
        risk = float((pred != self.data[5]).mean())
        return Output(np.array([risk]), risk, _digest(np.ascontiguousarray(pred).tobytes()))

    def quality(self, outputs):
        _, Yp, Lp, _, Yh, Lh = self.data
        const_reg = float(np.linalg.norm(np.median(Yp, axis=0) - Yh, axis=1).mean())
        const_clf = float((Lh != np.bincount(Lp).argmax()).mean())
        failures = []
        if not outputs["regressor"].final_risk < const_reg:
            failures.append(f"regressor held-out risk {outputs['regressor'].final_risk!r} "
                            f"is not below the constant predictor's {const_reg!r}")
        if not outputs["classifier"].final_risk < const_clf:
            failures.append(f"classifier held-out error {outputs['classifier'].final_risk!r} "
                            f"is not below the majority class's {const_clf!r}")
        return failures


WORKLOADS = {w.name: w for w in (SinStrategies, AnchorClasses, LibsvmFile, EstimatorPool)}


def make(name: str) -> Workload:
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name]()


def finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=float)).all())


REFERENCE_STEPS = 2000
REFERENCE_S = 0.018  # nominal time of the reference loop: the unit of ``Pass.scaled_wall``


def reference_s() -> float:
    """Wall time of a fixed loop shaped like an SGD step: the machine-speed yardstick.

    Each iteration does what a driver step does at small size: a matrix-vector
    product, a rank-one update and some Python set and list work.

    On a shared machine the CPU's speed can drift by tens of percent within
    minutes. Timings taken right next to this loop and scaled by
    ``REFERENCE_S / reference_s()`` read as if the machine ran at nominal
    speed, which cancels most of that drift.
    """
    k = np.linspace(0.0, 1.0, 100)
    a = np.zeros((100, 1))
    u = np.ones(1)
    classes = tuple(range(1, 11))
    start = time.perf_counter()
    for t in range(1, REFERENCE_STEPS + 1):
        z = k @ a
        kept = sorted(frozenset(c for c in classes if (c + t) % 3))
        eps = 1.0 if z[0] < kept[0] else -1.0
        a += (eps / math.sqrt(t)) * np.outer(k, u)
    return time.perf_counter() - start


@dataclass
class Pass:
    wall: float  # seconds in the configurations, run one after another
    scaled_wall: float  # the same, each configuration scaled by the reference beside it
    results: list  # per configuration: its raw result, or the error it raised as text
    queries: int  # oracle bits spent, summed over the oracles the pass created


def run_pass(wl: Workload) -> Pass:
    """Run every configuration of ``wl`` once, timing each between two reference loops."""
    gc.collect()
    results, walls = [], []
    refs = [reference_s()]
    with OracleLedger() as ledger:
        for cfg in wl.configs:
            start = time.perf_counter()
            try:
                results.append(cfg.run())
            except Exception as exc:  # a failed configuration is counted, not fatal
                results.append(Failure("".join(traceback.format_exception_only(exc)).strip()))
            walls.append(time.perf_counter() - start)
            refs.append(reference_s())
    scaled = sum(w * 2.0 * REFERENCE_S / (before + after)
                 for w, before, after in zip(walls, refs, refs[1:]))
    return Pass(sum(walls), scaled, results, ledger.queries)


class Failure(str):
    """The error a configuration raised, as the text of its exception."""
