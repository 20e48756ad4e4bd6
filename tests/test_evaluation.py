import math
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from weaksgd.datasets import LabeledDataset, sin_target
from weaksgd.evaluation import (
    RiskCurve,
    aggregate_trials,
    anchor_law,
    anchor_points,
    emit_csv,
    emit_svg,
    empirical_risk,
    excess_risk_noiseless,
    excess_zero_one_anchor,
    loglog_slope,
    midpoint_grid,
)
from weaksgd.kernel import KernelModel, KernelSpec


def scalar_model(coeff=0.0):
    model = KernelModel.zeros(np.array([[0.5]]), 1, KernelSpec(0.2))
    model.coefficients[0, 0] = coeff
    return model


class TestEmpiricalRisk:
    def test_zero_on_own_predictions(self):
        rng = np.random.default_rng(0)
        model = KernelModel(rng.random((5, 1)), rng.standard_normal((5, 2)), KernelSpec(0.3))
        X = rng.random((20, 1))
        ds = LabeledDataset(X, model.predict_batch(X))
        assert empirical_risk(model, ds) == 0.0

    def test_zero_model_on_sin_grid(self):
        # E|sin(2 pi X)| over the 512-point grid approximates 2/pi
        xs = midpoint_grid(512)
        ds = LabeledDataset(xs[:, None], sin_target(xs))
        risk = empirical_risk(scalar_model(0.0), ds)
        assert risk == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_constant_class_predictor_on_balanced_data(self):
        model = KernelModel.zeros(np.array([[0.0]]), 2, KernelSpec(1.0))
        model.coefficients[0] = [1.0, 0.0]  # always decodes class 1
        X = np.zeros((10, 1))
        y = np.array([1, 2] * 5)
        ds = LabeledDataset(X, y, n_classes=2)
        assert empirical_risk(model, ds) == 0.5


class TestExcessRisk:
    def test_exact_target_gives_zero(self):
        xs = midpoint_grid(64)
        # a model evaluated against its own predictions as the target
        model = scalar_model(0.7)
        target = lambda x: model.predict_batch(np.asarray(x)[:, None])
        assert excess_risk_noiseless(model, target, 64) == 0.0

    def test_zero_model_against_sin(self):
        risk = excess_risk_noiseless(scalar_model(0.0), sin_target, 512)
        assert risk == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_single_point_grid(self):
        risk = excess_risk_noiseless(scalar_model(0.0), sin_target, 1)
        assert risk == pytest.approx(abs(math.sin(2 * math.pi * 0.5)), abs=1e-12)
        with pytest.raises(ValueError, match="grid size must be >= 1"):
            midpoint_grid(0)

    def test_monotone_under_pointwise_domination(self):
        rng = np.random.default_rng(1)
        close = scalar_model(0.0)
        far = scalar_model(0.0)
        close.coefficients[0, 0] = 0.1
        far.coefficients[0, 0] = 0.9
        target = lambda x: np.zeros((len(np.asarray(x).ravel()), 1))
        assert excess_risk_noiseless(close, target, 128) <= excess_risk_noiseless(
            far, target, 128
        )

    def test_anchor_excess_zero_for_bayes_like_model(self):
        # a model whose decoded classes match the anchored task's best classes
        model = KernelModel.zeros(np.array([[0.0], [0.5], [1.0]]), 3, KernelSpec(0.08))
        model.coefficients[0, 0] = 5.0
        model.coefficients[1, 1] = 5.0
        model.coefficients[2, 2] = 5.0
        excess = excess_zero_one_anchor(model, anchor_points(0.05, 256), anchor_law(3, 0.05, 256))
        assert excess <= 0.02

    def test_anchor_excess_positive_for_constant_model(self):
        model = KernelModel.zeros(np.array([[0.5]]), 3, KernelSpec(0.2))
        model.coefficients[0] = [5.0, 0.0, 0.0]  # always class 1
        excess = excess_zero_one_anchor(model, anchor_points(0.05, 256), anchor_law(3, 0.05, 256))
        assert excess > 0.3


class TestAggregate:
    def test_identical_trials_zero_std(self):
        ckpts = [(1, 0.5), (2, 0.25)]
        curve = aggregate_trials([ckpts, list(ckpts), list(ckpts)])
        assert np.allclose(curve.std_risk, 0.0, atol=0)
        assert curve.n_trials == 3

    def test_two_trials_population_std(self):
        curve = aggregate_trials([[(4, 0.0)], [(4, 2.0)]])
        assert curve.mean_risk[0] == 1.0
        assert curve.std_risk[0] == 1.0  # population convention

    def test_single_trial(self):
        curve = aggregate_trials([[(1, 0.3), (2, 0.2)]])
        assert curve.n_trials == 1
        assert np.allclose(curve.std_risk, 0.0, atol=0)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([[(1, 0.3)], [(2, 0.3)]])
        with pytest.raises(ValueError, match="need at least one trial"):
            aggregate_trials([])

    def test_replicated_trial_mean_matches(self):
        base = [(1, 0.8), (2, 0.6), (4, 0.1)]
        curve = aggregate_trials([list(base) for _ in range(5)])
        assert np.allclose(curve.mean_risk, [0.8, 0.6, 0.1], atol=0)


class TestSlope:
    def make_curve(self, fn, budgets=(64, 128, 256, 512, 1024)):
        b = np.array(budgets)
        return RiskCurve(b, np.array([fn(t) for t in b]), np.zeros(len(b)), 1)

    def test_inverse_sqrt(self):
        curve = self.make_curve(lambda t: t**-0.5)
        assert loglog_slope(curve, 64, 1024) == pytest.approx(-0.5, abs=1e-12)

    def test_constant(self):
        curve = self.make_curve(lambda t: 0.7)
        assert loglog_slope(curve, 64, 1024) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_linear(self):
        curve = self.make_curve(lambda t: 4.0 / t)
        assert loglog_slope(curve, 64, 1024) == pytest.approx(-1.0, abs=1e-12)

    def test_window_restriction(self):
        curve = self.make_curve(lambda t: t**-0.5 if t <= 256 else 1.0)
        assert loglog_slope(curve, 64, 256) == pytest.approx(-0.5, abs=1e-12)

    def test_needs_two_points(self):
        curve = self.make_curve(lambda t: 1.0)
        with pytest.raises(ValueError):
            loglog_slope(curve, 100, 110)

    def test_rejects_nonpositive_risk(self):
        # a risk with no finite logarithm is refused, with no numpy warning
        for risk in (0.0, np.inf, np.nan):
            curve = RiskCurve(np.array([1, 2]), np.array([risk, 0.5]), np.zeros(2), 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="cannot fit a log-log slope through"):
                    loglog_slope(curve, 1, 2)


class TestCurveValidation:
    def test_budgets_strictly_increasing(self):
        with pytest.raises(ValueError):
            RiskCurve(np.array([2, 2]), np.ones(2), np.zeros(2), 1)
        with pytest.raises(ValueError, match="equal-length vectors"):
            RiskCurve(np.array([1, 2]), np.ones(3), np.zeros(2), 1)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            RiskCurve(np.array([1, 2]), np.ones(2), np.array([0.1, -0.1]), 1)

    @pytest.mark.parametrize("budgets", [[1.5, 2.7], np.array([1.0, 2.0]), [False, True]],
                             ids=["fractional", "whole-floats", "bool"])
    def test_budgets_that_are_not_integers_are_refused(self, budgets):
        # read as ints, 1.5 and 2.7 would become checkpoints 1 and 2
        with pytest.raises(TypeError, match="budgets must be integers, got dtype"):
            RiskCurve(budgets, np.ones(2), np.zeros(2), 1)

    def test_lookup(self):
        curve = RiskCurve(np.array([1, 2]), np.array([0.5, 0.25]), np.zeros(2), 3)
        assert curve.at(2) == 0.25
        with pytest.raises(KeyError):
            curve.at(7)


class TestEmission:
    def make_curve(self):
        return RiskCurve(np.array([1, 2, 4]), np.array([0.5, 1.0 / 3.0, 0.2]),
                         np.array([0.05, 0.01, 0.0]), 7)

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "curve.csv"
        emit_csv(self.make_curve(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "T,mean_risk,std_risk,n_trials"
        assert len(lines) == 4
        assert lines[1].startswith("1,0.5,")

    def test_csv_round_trip_exact(self, tmp_path):
        path = tmp_path / "curve.csv"
        curve = self.make_curve()
        emit_csv(curve, path)
        budgets, mean_risk, std_risk, n_trials = np.loadtxt(path, delimiter=",", skiprows=1).T
        assert budgets.tolist() == curve.budgets.tolist()
        assert mean_risk.tobytes() == curve.mean_risk.tobytes()
        assert std_risk.tobytes() == curve.std_risk.tobytes()
        assert (n_trials == 7).all()

    def test_csv_reemission_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(self.make_curve(), a)
        emit_csv(self.make_curve(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg([("run", self.make_curve())], a)
        emit_svg([("run", self.make_curve())], b)
        assert a.read_bytes() == b.read_bytes()

    def test_svg_structure(self, tmp_path):
        path = tmp_path / "curve.svg"
        labels = ["active", "passive", "a<b & c"]
        emit_svg([(label, self.make_curve()) for label in labels], path)
        text = path.read_text()
        assert text.count("<polyline") == 3
        # well-formed XML, whose legend reads back the labels as given
        texts = ElementTree.parse(path).iter("{http://www.w3.org/2000/svg}text")
        legend = [el.text for el in texts if el.get("font-size") == "12"]
        assert legend == labels
        assert "<text" in text and "<line" in text
        # restricted element vocabulary: polyline, line, text under the svg root
        for tag in ("rect", "circle", "path ", "<g>"):
            assert tag not in text

    def test_svg_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], tmp_path / "empty.svg")

    def test_svg_leaves_out_nonpositive_risks(self, tmp_path):
        # a zero or non-finite risk has no place on a log axis: the point is left
        # out, the axes span the budgets and the positive finite risks, and the
        # file is written
        positive = RiskCurve(np.array([1, 2, 4]), np.array([0.5, 0.5, 0.05]), np.zeros(3), 1)
        emit_svg([("r", positive)], tmp_path / "positive.svg")

        def split_polyline(name):
            lines = (tmp_path / name).read_text().splitlines()
            poly = [ln for ln in lines if ln.startswith("<polyline")]
            return poly[0].split('"')[1].split(), [ln for ln in lines if ln not in poly]

        full_points, full_rest = split_polyline("positive.svg")
        for risk in (0.0, np.inf, np.nan):
            curve = RiskCurve(np.array([1, 2, 4]), np.array([risk, 0.5, 0.05]), np.zeros(3), 1)
            emit_svg([("r", curve)], tmp_path / f"{risk}.svg")
            points, rest = split_polyline(f"{risk}.svg")
            assert points == full_points[1:]  # same axes, so the same pixels
            assert rest == full_rest

    def test_svg_with_no_positive_risk_plots_a_default_decade(self, tmp_path):
        curve = RiskCurve(np.array([1, 2]), np.zeros(2), np.zeros(2), 1)
        emit_svg([("r", curve)], tmp_path / "zeros.svg")
        text = (tmp_path / "zeros.svg").read_text()
        assert '<polyline points=""' in text
        assert ">0.1</text>" in text and ">1</text>" in text

    def test_svg_rejects_nonpositive_budget(self, tmp_path):
        curve = RiskCurve(np.array([0, 2]), np.array([0.1, 0.5]), np.zeros(2), 1)
        with pytest.raises(ValueError):
            emit_svg([("r", curve)], tmp_path / "bad.svg")
