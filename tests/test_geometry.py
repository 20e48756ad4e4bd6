import math
import re

import numpy as np
import pytest

from weaksgd import geometry
from weaksgd.game import build_game, singleton_family, solve_game
from weaksgd.geometry import (
    MonteCarloEstimate,
    WeiszfeldNonConvergence,
    c1_constant,
    c2_constant,
    estimate_constant_mc,
    estimate_reconstruction_mc,
    geometric_median,
    median_objective,
    sample_sphere,
    sample_sphere_batch,
)
from weaksgd.surrogate import surrogate_target_check

# every entry point that takes a solver tolerance, each called on a valid problem
TOL_ENTRY_POINTS = {
    "solve_game": lambda tol: solve_game(build_game([0.4, 0.3, 0.3], singleton_family(3)),
                                         tol=tol),
    "geometric_median": lambda tol: geometric_median(np.eye(3), np.ones(3), tol=tol),
    "surrogate_target_check": lambda tol: surrogate_target_check([0.5, 0.3, 0.2], tol=tol),
}


class TestSphereSampling:
    def test_one_dimensional_sphere_is_two_points(self):
        rng = np.random.default_rng(0)
        draws = {float(sample_sphere(rng, 1)[0]) for _ in range(64)}
        assert draws <= {1.0, -1.0}
        assert len(draws) == 2

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        u = sample_sphere(rng, 5)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_componentwise_mean_vanishes(self):
        # CLT bound 3.5/sqrt(n) = 3.5e-3 for n = 1e6 draws in dimension 3
        rng = np.random.default_rng(42)
        mean = sample_sphere_batch(rng, 3, 10**6).mean(axis=0)
        assert np.abs(mean).max() < 4e-3

    def test_deterministic_given_seed(self):
        a = sample_sphere_batch(np.random.default_rng(123), 4, 10)
        b = sample_sphere_batch(np.random.default_rng(123), 4, 10)
        assert a.tobytes() == b.tobytes()

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_sphere(np.random.default_rng(0), 0)
        with pytest.raises(ValueError, match="sample count must be >= 0, got -1"):
            sample_sphere_batch(np.random.default_rng(0), 2, -1)


class TestClosedFormConstants:
    def test_c2_one_dimension_exact(self):
        assert c2_constant(1) == 1.0

    def test_c2_three_dimensions(self):
        # first sphere coordinate is uniform on [-1, 1] in dimension 3
        assert c2_constant(3) == pytest.approx(0.5, abs=1e-12)

    def test_c2_two_dimensions(self):
        assert c2_constant(2) == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert c2_constant(2) == pytest.approx(0.6366198, abs=1e-6)

    def test_c2_large_dimension_finite(self):
        assert 0.0 < c2_constant(400) < c2_constant(50) < c2_constant(2)

    def test_c1_exact_enumeration_m1(self):
        # U = +/-1 each with prob 1/2; E_V[1{z >= V}] = z/(2M) on [0, 2M]
        assert c1_constant(1, 1.0) == 0.25

    def test_c1_scale_halving(self):
        assert c1_constant(3, 2.0) == pytest.approx(c1_constant(3, 1.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 7.3])
    def test_c1_scale_equivariance(self, alpha):
        for m in (1, 2, 5):
            assert c1_constant(m, alpha * 1.3) == pytest.approx(
                c1_constant(m, 1.3) / alpha, rel=1e-12
            )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            c2_constant(0)
        with pytest.raises(ValueError):
            c1_constant(3, 0.0)
        with pytest.raises(ValueError):
            c1_constant(3, -1.0)
        for M in (np.inf, np.nan, 1e308):  # 2M must be finite too
            with pytest.raises(ValueError, match="M"):
                c1_constant(3, M)


class TestMonteCarloConstants:
    def test_median_m1_exact(self):
        est = estimate_constant_mc(np.random.default_rng(0), 1, "median", 2000)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_median_m3_matches_closed_form(self):
        est = estimate_constant_mc(np.random.default_rng(5), 3, "median", 10**6)
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_least_squares_m1_matches_enumeration(self):
        est = estimate_constant_mc(np.random.default_rng(6), 1, "least-squares", 10**6, M=1.0)
        assert abs(est.mean - 0.25) <= 3 * est.std_error

    def test_std_error_shrinks_with_samples(self):
        small = estimate_constant_mc(np.random.default_rng(1), 3, "median", 10**4)
        large = estimate_constant_mc(np.random.default_rng(1), 3, "median", 10**6)
        assert large.std_error < small.std_error / 5

    def test_least_squares_needs_scale(self):
        with pytest.raises(ValueError):
            estimate_constant_mc(np.random.default_rng(0), 3, "least-squares", 2000)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_constant_mc(np.random.default_rng(0), 3, "median", 999)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            estimate_constant_mc(np.random.default_rng(0), 3, "huber", 2000)

    @pytest.mark.parametrize("kind,M", [("median", None), ("least-squares", 1.0)])
    def test_same_draws_as_the_sphere_sampler(self, kind, M):
        # the estimate reads the first coordinate of sample_sphere_batch's points,
        # bit for bit, also when a zero-norm row must be redrawn
        class ZeroFirstRow:
            def __init__(self, seed):
                self.rng, self.first = np.random.default_rng(seed), True

            def standard_normal(self, size):
                g = self.rng.standard_normal(size)
                if self.first:
                    g[0] = 0.0
                    self.first = False
                return g

            def uniform(self, *args):
                return self.rng.uniform(*args)

        n = 5000
        est = estimate_constant_mc(ZeroFirstRow(3), 4, kind, n, M=M)
        rng = ZeroFirstRow(3)
        u1 = sample_sphere_batch(rng, 4, n)[:, 0]
        vals = np.abs(u1) if kind == "median" else np.where(u1 >= rng.uniform(0.0, 2.0, n),
                                                              u1, 0.0)
        assert est.mean == float(vals.sum()) / n
        mean_sq = float((vals * vals).sum()) / n
        assert est.std_error == math.sqrt(max(mean_sq - est.mean**2, 0.0) / n)

    def test_agreement_helper(self):
        est = MonteCarloEstimate(0.5, 0.01)
        assert est.agrees_with(0.52)
        assert not est.agrees_with(0.56)


class TestKindCheck:
    """Both Monte Carlo estimators accept a kind and a scale bound M alike."""

    @pytest.mark.parametrize("kind,M", [("median", 1.0), ("least-squares", None),
                                        ("least-squares", 0.0), ("least-squares", -1.0),
                                        ("hinge", None), ("least-squares", np.inf),
                                        ("least-squares", np.nan), ("least-squares", 1e308)],
                             ids=["median-with-M", "ls-without-M", "ls-zero-M",
                                  "ls-negative-M", "unknown-kind", "ls-infinite-M",
                                  "ls-nan-M", "ls-M-with-2M-infinite"])
    def test_both_estimators_reject_before_drawing(self, kind, M):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            estimate_constant_mc(rng, 2, kind, 1000, M=M)
        with pytest.raises(ValueError):
            estimate_reconstruction_mc(rng, np.zeros(2), kind, 1000, M=M)
        assert rng.bit_generator.state == state


class TestReconstructionIdentity:
    """E[sign(<z,U>)U] = c2 z and E[1{<z,U> >= V}U] = c1 z, checked by simulation."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_median_identity(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            z = sample_sphere(rng, m)
            mean, se = estimate_reconstruction_mc(rng, z, "median", 10**5)
            assert (np.abs(mean - c2_constant(m) * z) <= 5 * se + 1e-12).all()

    @pytest.mark.parametrize("m", [2, 3])
    def test_least_squares_identity(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(3):
            z = sample_sphere(rng, m)
            mean, se = estimate_reconstruction_mc(rng, z, "least-squares", 10**5, M=1.0)
            assert (np.abs(mean - c1_constant(m, 1.0) * z) <= 5 * se + 1e-12).all()

    def test_norm_bound_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimate_reconstruction_mc(rng, np.array([3.0, 0.0]), "least-squares", 1000, M=1.0)
        for z in (np.eye(2), np.zeros(0)):
            with pytest.raises(ValueError, match="z must be a nonempty 1-D vector"):
                estimate_reconstruction_mc(rng, z, "median", 1000)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            estimate_reconstruction_mc(rng, np.array([1.0, 0.0]), "median", 0)


@pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_tol_with_the_owner_message(entry, tol):
    with pytest.raises(ValueError, match=re.escape(f"tol must be finite and > 0, got {tol}")):
        TOL_ENTRY_POINTS[entry](tol)


class TestGeometricMedian:
    def test_single_point(self):
        p = np.array([[2.0, -1.0, 0.5]])
        assert np.allclose(geometric_median(p, np.array([1.0])), p[0], atol=0)

    def test_boundary_anchor_example(self):
        # weights (1, 1, 2cos(pi/6)) on the simplex vertices: the residual pull
        # at e3 has norm exactly sqrt(3) = its weight, so e3 is the minimizer
        w = np.array([1.0, 1.0, 2.0 * np.cos(np.pi / 6.0)])
        med = geometric_median(np.eye(3), w, tol=1e-5)
        assert np.abs(med - np.array([0.0, 0.0, 1.0])).max() <= 1e-4

    def test_equal_weights_simplex_centroid(self):
        med = geometric_median(np.eye(3), np.ones(3), tol=1e-10)
        assert np.allclose(med, np.ones(3) / 3.0, atol=1e-9)

    def test_objective_not_worse_than_any_anchor(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k, d = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            pts = rng.standard_normal((k, d))
            w = rng.random(k) + 0.05
            med = geometric_median(pts, w, tol=1e-9)
            best_anchor = min(median_objective(p, pts, w) for p in pts)
            assert median_objective(med, pts, w) <= best_anchor + 1e-6

    def test_collinear_inner_point(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        med = geometric_median(pts, np.ones(3), tol=1e-10)
        assert abs(med[0] - 1.0) <= 1e-9

    def test_duplicated_anchor_dominates(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        med = geometric_median(pts, np.array([1.0, 1.5, 1.0]), tol=1e-10)
        assert np.allclose(med, [0.0, 0.0], atol=0)

    def test_no_weights_are_uniform_weights(self):
        rng = np.random.default_rng(11)
        for k, d in ((1, 2), (3, 1), (5, 3), (8, 2)):
            pts = rng.standard_normal((k, d))
            got = geometric_median(pts, tol=1e-9)
            assert got.tobytes() == geometric_median(pts, np.ones(k), tol=1e-9).tobytes()

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            geometric_median(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            geometric_median(np.eye(2), np.array([1.0, -0.1]))
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol"):
                geometric_median(np.eye(2), np.ones(2), tol=tol)
        with pytest.raises(ValueError):
            geometric_median(np.eye(2), np.ones(3))
        # non-finite input fails at once instead of running every Weiszfeld step
        with pytest.raises(ValueError, match="weights"):
            geometric_median(np.eye(3), np.array([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="points"):
            geometric_median(np.array([[0.0, 0.0], [1.0, 0.0], [np.inf, 2.0]]))
        with pytest.raises(ValueError, match="need at least one point"):
            geometric_median(np.zeros((0, 2)))

    def test_nonconvergence_diagnostic(self, monkeypatch):
        monkeypatch.setattr(geometry, "WEISZFELD_STEPS", 2)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
        with pytest.raises(WeiszfeldNonConvergence) as err:
            geometric_median(pts, np.ones(3), tol=1e-15)
        assert err.value.last_iterate.shape == (2,)
        assert "within 2 iterations" in str(err.value)

    def test_zero_weight_stationary_anchor(self):
        # the sweep skips the zero-weight origin; the start is exactly the origin,
        # where the other four points pull with zero net force, so it is returned
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])
        med = geometric_median(pts, np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
        assert med.tolist() == [0.0, 0.0]

    def test_escape_from_non_optimal_anchor(self):
        # the weighted centroid (the starting iterate) coincides with a
        # non-optimal anchor; the solver must step off it and converge to the
        # interior stationary point
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-0.75, 1.0], [-0.75, -1.0]])
        w = np.array([0.01, 1.5, 1.0, 1.0])
        assert np.allclose(w @ pts, 0.0, atol=1e-15)  # start sits exactly on pts[0]
        med = geometric_median(pts, w, tol=1e-10)
        diffs = pts - med
        dists = np.linalg.norm(diffs, axis=1)
        assert dists.min() > 1e-3  # interior optimum, not an anchor
        residual = (w / dists) @ diffs
        assert np.linalg.norm(residual) < 1e-6  # stationarity
        assert median_objective(med, pts, w) <= min(
            median_objective(p, pts, w) for p in pts
        )
