import itertools
import math
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from weaksgd import kernel, learner
from weaksgd.datasets import (
    LabeledDataset,
    apply_standardize,
    parse_libsvm,
    sin_target,
    split,
    standardize,
)
from weaksgd.estimators import WeakSGDRegressor
from weaksgd.evaluation import (
    anchor_law,
    anchor_points,
    empirical_risk,
    excess_risk_noiseless,
    excess_zero_one_anchor,
    midpoint_grid,
)
from weaksgd.geometry import c2_constant, sample_sphere_batch
from weaksgd.kernel import (
    KernelModel,
    KernelSpec,
    kernel_eval,
    kernel_matrix,
    nystrom_representers,
)
from weaksgd.learner import StepSchedule, _descend, run_median_sgd
from weaksgd.oracle import QueryOracle


@pytest.fixture
def spec():
    return KernelSpec(bandwidth=0.5)


class TestKernelEval:
    def test_diagonal_is_one(self, spec):
        assert kernel_eval(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_one_bandwidth_apart(self):
        spec = KernelSpec(bandwidth=0.7)
        assert kernel_eval(spec, [0.0], [0.7]) == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert kernel_eval(spec, [0.0], [0.7]) == pytest.approx(0.606531, abs=1e-6)

    def test_wide_bandwidth_expansion(self):
        # exp(-1/(2e6)) = 1 - 5e-7 + O(1e-13)
        spec = KernelSpec(bandwidth=1e3)
        assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(1.0 - 5e-7, abs=1e-9)

    def test_symmetry_and_range(self, spec):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            kxy = kernel_eval(spec, x, y)
            assert kxy == pytest.approx(kernel_eval(spec, y, x), rel=1e-15)
            assert 0.0 < kxy <= 1.0

    def test_dimension_mismatch(self, spec):
        with pytest.raises(ValueError):
            kernel_eval(spec, [0.0, 1.0], [0.0])

    def test_matrix_agrees_with_scalar(self, spec):
        rng = np.random.default_rng(1)
        X, Z = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
        K = kernel_matrix(spec, X, Z)
        for i in range(4):
            for j in range(3):
                assert K[i, j] == pytest.approx(kernel_eval(spec, X[i], Z[j]), abs=1e-12)

    def test_matrix_bits_match_the_out_of_place_formula(self, spec):
        # the in-place block keeps the rounding of the plain expression
        rng = np.random.default_rng(2)
        # and the shapes the drivers build: a full block at d = 1, rank 64 or
        # 100, inputs of dimension 1 to 64, one or two rows (BLAS may take
        # another path) and a last block's 511 rows; each with rows apart
        # from the representers and with rows equal to them (zero distances)
        shapes = ((1, 1, 1), (37, 11, 1), (50, 20, 7), (2048, 100, 1), (40, 64, 1),
                  (40, 100, 4), (40, 100, 20), (40, 100, 64), (1, 100, 4), (1, 100, 64),
                  (2, 100, 20), (2, 64, 64), (511, 100, 1), (511, 100, 20), (512, 100, 1),
                  (512, 64, 4), (512, 100, 64))
        for (n, p, d), same in itertools.product(shapes, (False, True)):
            X, Z = rng.standard_normal((n, d)), rng.standard_normal((p, d))
            if same:
                X[:min(n, p)] = Z[:min(n, p)]
            d2 = ((X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :]
                  - 2.0 * (X @ Z.T))
            expected = np.exp(-np.maximum(d2, 0.0) / (2.0 * spec.bandwidth**2))
            assert kernel_matrix(spec, X, Z).tobytes() == expected.tobytes()
            # the same bits when built into the leading rows of used buffers,
            # with and without the scratch buffer
            scratch = np.full((n + 3, p), np.nan)
            for buffers in ({}, {"scratch": scratch[:n]}):
                buf = np.full((n + 2, p), np.nan)
                rows = buf[:n]
                assert kernel_matrix(spec, X, Z, out=rows, **buffers) is rows
                assert rows.tobytes() == expected.tobytes()
                assert np.isnan(buf[n:]).all()
            assert np.isnan(scratch[n:]).all()
            assert kernel_matrix(spec, X, Z, scratch=scratch[:n]).tobytes() == expected.tobytes()

    def test_matmul_block_has_the_bits_of_the_dot_block(self, spec):
        # from two features the block's product is @; it gives the bits of
        # the same block built with np.dot, also in the leading rows of the
        # 512-row buffers a driver passes
        rng = np.random.default_rng(5)
        for p, d, n in itertools.product((1, 5, 64, 100, 256), (2, 3, 4, 8, 20, 64),
                                         (1, 2, 7, 64, 333, 512)):
            X, Z = rng.standard_normal((n, d)), rng.standard_normal((p, d))
            gram, scratch = np.empty((2, 512, p))
            d2 = np.empty((n, p))
            np.copyto(d2, (X * X).sum(axis=1)[:, None])
            d2 += (Z * Z).sum(axis=1)
            d2 -= np.dot(X * 2.0, Z.T)
            expected = np.exp(np.maximum(d2, 0.0) / (-2.0 * spec.bandwidth**2))
            block = kernel_matrix(spec, X, Z, out=gram[:n], scratch=scratch[:n])
            assert block.tobytes() == expected.tobytes(), (p, d, n)

    def test_a_block_built_into_the_callers_buffers_allocates_no_block(self, spec):
        # 512 x 100 floats are 0.41 MB; the inputs' products and norms, about
        # 0.1 MB at d = 20, are all that is left to allocate
        rng = np.random.default_rng(3)
        X, Z = rng.standard_normal((512, 20)), rng.standard_normal((100, 20))
        out, scratch = np.empty((2, 512, 100))
        tracemalloc.start()
        try:
            kernel_matrix(spec, X, Z, out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25e6

    def test_bad_spec(self):
        # 2 sigma^2 overflows at 1e200 and underflows to 0 at 1e-170
        for bandwidth in (0.0, -1.0, np.inf, np.nan, 1e200, 1e-170):
            with pytest.raises(ValueError, match="bandwidth must be finite"):
                KernelSpec(bandwidth=bandwidth)
        # a subnormal 2 sigma^2 still gives finite kernel values (the last
        # one's exponent overflows to -inf)
        K = kernel_matrix(KernelSpec(1e-155), [[0.0], [1e-155], [1.0]], [[0.0]])
        assert K[:, 0].tolist() == [1.0, pytest.approx(math.exp(-0.5), rel=1e-9), 0.0]

    @pytest.mark.filterwarnings("error")
    def test_a_tiny_bandwidth_warns_nothing(self):
        # 2 sigma^2 = 2e-310 is valid; every pair of distinct rows overflows its
        # quotient to -inf, whose exp is the right 0. Whole-number rows make
        # the diagonal's squared distances exactly 0
        X = np.array([[0.0], [1.0], [3.0], [-2.0]])
        K = kernel_matrix(KernelSpec(1e-155), X, X)
        assert np.diag(K).tolist() == [1.0] * 4
        assert not K[~np.eye(4, dtype=bool)].any()


class TestShapeRule:
    """Inputs and real label matrices share one shape rule: a 1-D array is one
    column, a 2-D array is kept, anything else fails with the same error."""

    SITES = {
        "dataset": lambda Y: LabeledDataset(np.zeros((4, 1)), Y),
        "oracle": lambda Y: QueryOracle.for_regression(Y, budget=4),
        "full-sgd": lambda Y: learner.run_full_sgd(
            np.zeros((4, 1)), Y, StepSchedule.decaying(1.0),
            KernelModel.zeros(np.zeros((1, 1)), 1, KernelSpec(1.0))),
        "regressor": lambda Y: WeakSGDRegressor(budget=4, rank=1).fit(np.zeros((4, 1)), Y),
        "excess-risk": lambda Y: excess_risk_noiseless(
            KernelModel.zeros(np.zeros((1, 1)), 1, KernelSpec(1.0)), lambda xs: Y, 4),
    }

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("shape", [(4, 1, 1), ()], ids=["3-D", "0-D"])
    def test_bad_label_shape_fails_at_once(self, site, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected 1-D or 2-D input array, got shape {shape}")):
            self.SITES[site](np.zeros(shape))


class TestPredict:
    def test_zero_coefficients(self, spec):
        model = KernelModel.zeros(np.array([[0.0], [1.0]]), 3, spec)
        assert np.array_equal(model.predict_batch([0.4])[0], np.zeros(3))

    def test_single_representer_at_itself(self, spec):
        model = KernelModel(np.array([[0.25]]), np.array([[1.0, 0.0]]), spec)
        assert np.allclose(model.predict_batch([0.25])[0], [1.0, 0.0], atol=0)

    def test_equidistant_half_kernel(self):
        # representers at -c and +c with c = sigma sqrt(2 ln 2): k(0, +/-c) = 1/2
        spec = KernelSpec(bandwidth=1.0)
        c = np.sqrt(2.0 * np.log(2.0))
        model = KernelModel(np.array([[-c], [c]]), np.eye(2), spec)
        assert np.allclose(model.predict_batch([0.0])[0], [0.5, 0.5], atol=1e-12)

    def test_linearity_in_coefficients(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, m = int(rng.integers(1, 21)), int(rng.integers(1, 6))
            reps = rng.standard_normal((p, 2))
            a, b = rng.standard_normal((p, m)), rng.standard_normal((p, m))
            x = rng.standard_normal((1, 2))
            fa = KernelModel(reps, a, spec).predict_batch(x)
            fb = KernelModel(reps, b, spec).predict_batch(x)
            fab = KernelModel(reps, a + b, spec).predict_batch(x)
            assert np.allclose(fab, fa + fb, atol=1e-12)

    def test_batch_matches_single(self, spec):
        rng = np.random.default_rng(8)
        model = KernelModel(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)), spec)
        X = rng.standard_normal((6, 2))
        batch = model.predict_batch(X)
        for i in range(6):
            single = sum(kernel_eval(spec, X[i], rep) * coef
                         for rep, coef in zip(model.representers, model.coefficients))
            assert np.allclose(batch[i], single, atol=1e-12)

    def test_dimension_mismatch(self, spec):
        model = KernelModel.zeros(np.zeros((2, 2)), 1, spec)
        with pytest.raises(ValueError):
            model.predict_batch([[1.0]])
        with pytest.raises(ValueError, match="coefficients must be a 2-D"):
            KernelModel(np.zeros((2, 1)), np.zeros(2), spec)
        with pytest.raises(ValueError, match="rank mismatch: 2 representers, 3 coefficient rows"):
            KernelModel(np.zeros((2, 1)), np.zeros((3, 1)), spec)
        with pytest.raises(ValueError, match="need at least one representer"):
            KernelModel(np.zeros((0, 1)), np.zeros((0, 1)), spec)


def one_step(model, x, y, gamma, direction="coordinate", seed=0, ridge=0.0):
    """One median-SGD step at ``x`` against label ``y``; returns the drawn direction.

    At t = 1 the decaying schedule steps by exactly ``gamma``.
    """
    oracle = QueryOracle.for_regression(np.atleast_2d(y), budget=1)
    run_median_sgd(np.atleast_2d(x), oracle, StepSchedule("decaying", gamma, ridge), model,
                   np.random.default_rng(seed), direction=direction)
    assert oracle.budget_used == 1
    m = model.output_dim
    return np.eye(m)[np.random.default_rng(seed).integers(0, m, 1)[0]]


class TestWeakUpdate:
    """The single-bit step a <- (1 - gamma ridge) a + gamma eps outer(k(x, .), u)."""

    def test_step_at_representer(self, spec):
        # zero model, label (1, 1): eps = +1 whichever basis direction is drawn
        reps = np.array([[0.0], [0.4]])
        model = KernelModel.zeros(reps, 2, spec)
        u = one_step(model, [0.0], [1.0, 1.0], gamma=0.1)
        j = int(np.argmax(u))
        k01 = kernel_eval(spec, [0.0], [0.4])
        assert model.coefficients[0, j] == pytest.approx(0.1, abs=1e-15)
        assert model.coefficients[1, j] == pytest.approx(0.1 * k01, abs=1e-15)
        assert np.all(model.coefficients[:, 1 - j] == 0.0)

    def test_negative_sign_flips(self, spec):
        # m = 1: eps * U = sign(y - f(x)) whatever U the sphere gives
        reps = np.array([[0.0]])
        up = KernelModel.zeros(reps, 1, spec)
        down = KernelModel.zeros(reps, 1, spec)
        one_step(up, [0.0], [1.0], gamma=0.2, direction="sphere")
        one_step(down, [0.0], [-1.0], gamma=0.2, direction="sphere")
        assert up.coefficients[0, 0] == 0.2
        assert np.allclose(up.coefficients, -down.coefficients, atol=0)

    def test_far_input_is_pure_shrinkage(self):
        # k < 1e-12 whenever the input sits more than 7.5 bandwidths away
        spec = KernelSpec(bandwidth=0.1)
        model = KernelModel(np.array([[0.0]]), np.array([[2.0]]), spec)
        one_step(model, [0.8], [5.0], gamma=0.1, ridge=0.5)
        assert model.coefficients[0, 0] == pytest.approx(2.0 * (1 - 0.1 * 0.5), abs=1e-12)

    def test_update_is_exact_gradient_of_projection(self, spec):
        # <f(x), u> is linear in a, so the finite difference is exact
        rng = np.random.default_rng(3)
        reps = rng.standard_normal((4, 1))
        model = KernelModel(reps, rng.standard_normal((4, 2)), spec)
        x, u = rng.standard_normal(1), np.array([0.6, 0.8])
        h = 1e-3
        for i in range(4):
            for j in range(2):
                bumped = model.with_coefficients(model.coefficients)
                bumped.coefficients[i, j] += h
                diff = float(bumped.predict_batch(x)[0] @ u - model.predict_batch(x)[0] @ u)
                expected = h * u[j] * kernel_eval(spec, x, reps[i])
                assert diff == pytest.approx(expected, abs=1e-12)

    def test_gradient_unbiasedness_bridge(self, spec):
        # averaging eps(U) * (U_j k(x, x_i)) over sphere directions recovers
        # c2 times the unit residual direction, per the reconstruction identity
        rng = np.random.default_rng(11)
        reps = np.array([[0.0], [0.3]])
        model = KernelModel(reps, np.array([[0.2, -0.1, 0.4], [0.0, 0.3, 0.1]]), spec)
        x = np.array([0.1])
        y = np.array([0.5, 0.2, -0.3])
        resid = y - model.predict_batch(x)[0]
        direction = resid / np.linalg.norm(resid)
        n = 10**6
        U = sample_sphere_batch(rng, 3, n)
        eps = np.where(U @ resid >= 0.0, 1.0, -1.0)
        mean_dir = (U * eps[:, None]).mean(axis=0)
        se = (U * eps[:, None]).std(axis=0) / np.sqrt(n)
        target = c2_constant(3) * direction
        assert (np.abs(mean_dir - target) <= 4 * se + 1e-12).all()
        # and the driver's step is eps(U) U through the kernel column, for each U
        kcol = kernel_matrix(spec, x, reps)[0]
        for seed in range(5):
            stepped = model.with_coefficients(model.coefficients)
            one_step(stepped, x, y, gamma=1.0, direction="sphere", seed=seed)
            u = sample_sphere_batch(np.random.default_rng(seed), 3, 1)[0]
            e = 1.0 if float(u @ resid) >= 0.0 else -1.0
            assert np.allclose(stepped.coefficients - model.coefficients,
                               np.outer(kcol, e * u), atol=1e-14)

    def test_validation(self, spec):
        model = KernelModel.zeros(np.array([[0.0]]), 2, spec)
        with pytest.raises(ValueError):  # step size must be > 0
            one_step(model, [0.0], [1.0, 0.0], gamma=0.0)
        with pytest.raises(ValueError):  # unknown direction scheme
            one_step(model, [0.0], [1.0, 0.0], gamma=0.1, direction="diagonal")
        with pytest.raises(ValueError):  # direction and label dimensions disagree
            one_step(model, [0.0], [1.0], gamma=0.1)
        assert np.all(model.coefficients == 0.0)


def averaged(iterates, grid=()):
    """Run the shared step loop so that its t-th iterate is ``iterates[t - 1]``.

    Each (p, m) iterate is held as the coefficients of a model with a single
    representer and p * m outputs. Every step reads that representer itself,
    so its kernel column is exactly [1.0], and step t writes the direction
    ``iterates[t - 1] - iterates[t - 2]`` (from zeros at t = 1) and returns
    the coefficient 1.0. With
    dyadic iterates every sum is exact. Returns the averaged coefficients, the
    checkpoints and the final coefficients, all in the iterates' shape.
    """
    shape = iterates[0].shape
    flat = [np.zeros(iterates[0].size)] + [it.ravel() for it in iterates]
    model = KernelModel.zeros(np.zeros((1, 1)), flat[0].size, KernelSpec(0.5))

    def rule(s, i, kcol, gamma, d):
        d[...] = flat[s + 1] - flat[s]
        return 1.0

    report = _descend(model, np.zeros((len(iterates), 1)), np.arange(len(iterates)),
                      StepSchedule.decaying(1.0), list(grid), None, rule, 0)
    return (report.averaged_model.coefficients.reshape(shape),
            [(t, c.reshape(shape)) for t, c in report.checkpoints],
            report.final_model.coefficients.reshape(shape))


def far_apart_walk(steps, grid, ridge=0.0, schedule=StepSchedule.decaying(1.0), seed=0):
    """Run the shared step loop on a random walk over three representers far
    enough apart that every kernel column is exactly a basis vector.

    Step s reads one representer at random and returns a dyadic move, or no
    move one step in four. The rule keeps a copy of every iterate it sees.
    Returns the report and the float mean of the first t iterates for each
    checkpoint t and for t = steps.
    """
    rng = np.random.default_rng(seed)
    reps = np.array([[0.0], [100.0], [200.0]])
    model = KernelModel.zeros(reps, 2, KernelSpec(0.5))
    rows = rng.integers(0, 3, steps)
    moves = rng.integers(-8, 9, (steps, 3)) / 4.0
    seen = []

    def rule(s, i, kcol, gamma, d):
        assert np.array_equal(kcol, np.eye(3)[rows[s]])
        seen.append(model.coefficients.copy())  # the iterate after step s
        c = moves[s, 0]
        if c == 0.0:
            return None
        d[...] = moves[s, 1:]
        return c

    report = _descend(model, reps[rows], np.arange(steps), replace(schedule, ridge=ridge),
                      list(grid), None, rule, 0)
    iterates = np.array(seen[1:] + [report.final_model.coefficients])
    return report, {t: iterates[:t].mean(axis=0) for t in [*grid, steps]}


class TestAveragedModel:
    """The average the step loop sums a window at a time from the recorded
    moves is the plain mean of the iterates."""

    def test_same_matrix_twice(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        mean, _, _ = averaged([a, a])
        assert np.allclose(mean, a, atol=0)

    def test_two_matrices(self):
        mean, _, _ = averaged([np.array([[2.0, 0.0]]), np.array([[0.0, 4.0]])])
        assert np.allclose(mean, [[1.0, 2.0]], atol=1e-15)

    def test_zeros_then_one(self):
        mean, checkpoints, _ = averaged([np.zeros((1, 1))] * 4 + [np.array([[10.0]])],
                                        grid=[4, 5])
        assert mean[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert [t for t, _ in checkpoints] == [4, 5]
        assert checkpoints[0][1][0, 0] == 0.0

    def test_matches_plain_mean(self):
        rng = np.random.default_rng(4)
        mats = [rng.integers(-2**10, 2**10, (3, 2)) / 2**6 for _ in range(50)]
        mean, _, final = averaged(mats)
        assert np.allclose(mean, np.mean(mats, axis=0), atol=1e-12)
        assert np.array_equal(final, mats[-1])

    @pytest.mark.parametrize("ridge,schedule", [
        (0.0, StepSchedule.decaying(1.0)),
        (0.25, StepSchedule.decaying(1.0)),
        (1.0, StepSchedule("constant", 1.0)),  # shrink 0: each step forgets the last
        (1.5, StepSchedule("constant", 1.0)),  # shrink -0.5
        (0.75, StepSchedule.decaying(2.0)),  # shrink -0.5 at t = 1, positive from t = 3
    ])
    def test_windows_match_the_mean_of_the_iterates(self, ridge, schedule):
        grid = [1, 255, 256, 257, 300, 511, 700]
        report, want = far_apart_walk(900, grid, ridge, schedule)
        assert [t for t, _ in report.checkpoints] == grid
        for t, got in report.checkpoints:
            assert np.all(np.isfinite(got))
            assert np.allclose(got, want[t], rtol=0, atol=1e-12), t
        assert np.allclose(report.averaged_model.coefficients, want[900], rtol=0, atol=1e-12)
        assert np.abs(want[900]).max() > 1e-3

    @pytest.mark.parametrize("ridge", [0.0, 0.25])
    def test_blocks_of_six_rows_match_the_mean_of_the_iterates(self, ridge, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_ROWS", 6)
        grid = [255, 257, 300]
        report, want = far_apart_walk(601, grid, ridge, seed=1)
        for t, got in [*report.checkpoints, (601, report.averaged_model.coefficients)]:
            assert np.allclose(got, want[t], rtol=0, atol=1e-12), t

    def test_window_divides_the_block(self):
        # so a window is a row slice of one Gram block, wherever blocks are cut
        assert kernel.CHUNK_ROWS % learner._WINDOW == 0

    def test_no_steps_average_to_zeros(self):
        model = KernelModel.zeros(np.zeros((2, 1)), 1, KernelSpec(0.5))
        model.coefficients[:] = 1.0
        report = _descend(model, np.zeros((0, 1)), np.arange(0), StepSchedule.decaying(1.0),
                          [], None, None, 0)
        assert np.array_equal(report.averaged_model.coefficients, np.zeros((2, 1)))


class TestNystromRepresenters:
    def test_subset_without_replacement(self):
        rng = np.random.default_rng(0)
        X = np.arange(20.0)[:, None]
        reps = nystrom_representers(X, 8, rng)
        assert reps.shape == (8, 1)
        assert len(np.unique(reps)) == 8
        assert set(reps[:, 0]) <= set(X[:, 0])

    def test_rank_at_least_n_keeps_everything(self):
        rng = np.random.default_rng(0)
        X = np.arange(5.0)[:, None]
        assert np.array_equal(nystrom_representers(X, 10, rng), X)
        with pytest.raises(ValueError, match="rank must be >= 1"):
            nystrom_representers(X, 0, rng)

    def test_seeded(self):
        X = np.random.default_rng(1).standard_normal((30, 2))
        a = nystrom_representers(X, 10, np.random.default_rng(2))
        b = nystrom_representers(X, 10, np.random.default_rng(2))
        assert a.tobytes() == b.tobytes()


BLOBS = Path(__file__).parent / "fixtures" / "blobs3.libsvm"


def heldout_set():
    """The held-out rows of a file task, split and standardized as a trial does."""
    rows, test = split(parse_libsvm(BLOBS.read_text()), 2.0 / 3.0, 0)
    rows, info = standardize(rows)
    return rows, apply_standardize(test, info)


@pytest.fixture
def matrix_calls(monkeypatch):
    """Counts the kernel blocks built from now on."""
    calls = []
    build = kernel.kernel_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(kernel, "kernel_matrix", counted)
    return calls


def blocked_model(reps, output_dim, spec, points, seed=0):
    """A random model and its kernel block of ``points``."""
    rng = np.random.default_rng(seed)
    model = KernelModel(reps, rng.standard_normal((len(reps), output_dim)), spec)
    return model, model.kernel_block(points)


class TestKernelBlock:
    def test_bits_match_no_block_on_every_evaluators_points(self, matrix_calls):
        rows, test = heldout_set()
        xs = midpoint_grid(512)
        support = anchor_points(0.05, 512)
        cases = [
            (rows.features[:30], 3, KernelSpec(rows.d / 5.0), test.features),
            (np.random.default_rng(1).random((24, 1)), 1, KernelSpec(0.2), xs),
            (np.random.default_rng(2).random((24, 1)), 3, KernelSpec(0.05), support),
        ]
        for seed, (reps, m, spec, points) in enumerate(cases):
            model, block = blocked_model(reps, m, spec, points, seed)
            built = len(matrix_calls)
            for _ in range(3):
                model.coefficients += 0.5  # training moves the coefficients, not the block
                assert model.predict_batch(points, block).tobytes() == \
                    model.predict_batch(points).tobytes()
            assert len(matrix_calls) == built + 3  # the blockless predictions' blocks only
        grid = LabeledDataset(xs[:, None], sin_target(xs))
        law = anchor_law(3, 0.05, 512)
        evaluators = [
            (0, lambda model, block: empirical_risk(model, test, block)),
            (1, lambda model, block: empirical_risk(model, grid, block)),
            (1, lambda model, block: excess_risk_noiseless(model, sin_target, 512, block)),
            (2, lambda model, block: excess_zero_one_anchor(model, support, law, block)),
        ]
        for case, evaluate in evaluators:
            model, block = blocked_model(*cases[case])
            built = len(matrix_calls)
            risk = evaluate(model, block)
            assert len(matrix_calls) == built  # a prediction given a block builds none
            assert risk == evaluate(model, None)

    def test_a_block_of_another_shape_is_refused(self, matrix_calls):
        rng = np.random.default_rng(3)
        reps, points = rng.standard_normal((6, 2)), rng.standard_normal((40, 2))
        model, block = blocked_model(reps, 2, KernelSpec(0.7), points)
        other_rank = KernelModel(reps[:5], np.ones((5, 2)), model.spec)
        cases = [  # fewer rows, one more row, another rank
            (model, points[:-1], (39, 6)),
            (model, np.vstack([points, points[:1]]), (41, 6)),
            (other_rank, points, (40, 5)),
        ]
        built = len(matrix_calls)
        for m, X, needed in cases:
            with pytest.raises(ValueError, match=re.escape(f"{block.shape}") + ".*"
                               + re.escape(f"{needed}")):
                m.predict_batch(X, block)
        assert len(matrix_calls) == built

    @pytest.mark.parametrize("d", [1, 4, 20])
    def test_the_block_is_read_only_kernel_matrix_blocks(self, d):
        rng = np.random.default_rng(d)
        model = KernelModel(rng.standard_normal((100, d)), np.ones((100, 2)), KernelSpec(d / 5.0))
        rows = kernel.CHUNK_ROWS
        X = rng.standard_normal((2 * rows + 3, d))
        block = model.kernel_block(X)
        assert not block.flags.writeable
        built = np.vstack([kernel_matrix(model.spec, X[lo:lo + rows], model.representers)
                           for lo in range(0, len(X), rows)])
        assert block.tobytes() == built.tobytes()
        # the model is the predictor alone: no block, points or copies ride on it
        assert [f.name for f in fields(KernelModel)] == ["representers", "coefficients", "spec"]

    def test_a_snapshot_runs_no_model_check(self, monkeypatch):
        rng = np.random.default_rng(7)
        model = KernelModel(rng.standard_normal((4, 1)), rng.standard_normal((4, 3)),
                            KernelSpec(0.4))
        calls = []
        unfit = kernel._unfit_rows
        monkeypatch.setattr(kernel, "_unfit_rows", lambda X: calls.append(X) or unfit(X))
        given = np.arange(12).reshape(4, 3)
        snap = model.with_coefficients(given)
        assert calls == []
        assert snap.representers is model.representers and snap.spec is model.spec
        # its own float copy: neither the given array nor the model's moves it
        assert snap.coefficients.dtype == float and snap.coefficients.flags.c_contiguous
        given[0, 0] = 99
        model.coefficients[:] = 5.0
        assert snap.coefficients.tolist() == np.arange(12.0).reshape(4, 3).tolist()

    @pytest.mark.parametrize("coefficients", [np.ones(4), np.ones((3, 2)), np.ones((4, 2, 1)),
                                              np.ones((5, 2)).T],
                             ids=["1-D", "3 rows", "3-D", "2 rows"])
    def test_a_snapshot_refuses_coefficients_of_another_shape(self, coefficients):
        model = KernelModel.zeros(np.zeros((4, 1)), 2, KernelSpec(0.4))
        with pytest.raises(ValueError, match="2-D|rank mismatch"):
            model.with_coefficients(coefficients)


def whole_block_product(model, X):
    """Predictions from one kernel block of all rows, as built before blocking."""
    return kernel_matrix(model.spec, X, model.representers) @ model.coefficients


def per_block_product(model, X, rows=kernel.CHUNK_ROWS):
    """Predictions from one kernel block per ``rows`` rows, stacked."""
    out = np.empty((len(X), model.output_dim))
    for lo in range(0, len(X), rows):
        out[lo:lo + rows] = whole_block_product(model, X[lo:lo + rows])
    return out


def random_model(rank, d, m, seed, bandwidth=1.0):
    rng = np.random.default_rng(seed)
    return KernelModel(rng.standard_normal((rank, d)), rng.standard_normal((rank, m)),
                       KernelSpec(bandwidth))


class TestBlockedPredict:
    CHUNK = kernel.CHUNK_ROWS

    # row counts at and around block boundaries
    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 517,
                                   2047, 2048, 2049, 3 * 2048 + 517])
    def test_bits_match_a_per_block_product(self, matrix_calls, n):
        model = random_model(37, 3, 2, seed=n)
        X = np.random.default_rng(n + 1).standard_normal((n, 3))
        built = len(matrix_calls)
        pred = model.predict_batch(X)
        assert len(matrix_calls) == built + -(-n // self.CHUNK)
        assert pred.shape == (n, 2)
        assert pred.tobytes() == per_block_product(model, X).tobytes()

    @pytest.mark.parametrize("n,d,m", [(1, 1, 1), (400, 2, 3), (2000, 15, 1),
                                       (CHUNK, 4, 10)])
    def test_up_to_one_block_matches_the_whole_block_product(self, n, d, m):
        model = random_model(100, d, m, seed=d)
        X = np.random.default_rng(m).standard_normal((n, d))
        assert model.predict_batch(X).tobytes() == whole_block_product(model, X).tobytes()

    @pytest.mark.parametrize("d,rank", [(4, 100), (15, 237)])
    def test_block_and_no_block_agree_past_one_block(self, matrix_calls, d, rank):
        rng = np.random.default_rng(d)
        points = rng.standard_normal((5000, d))
        model, block = blocked_model(rng.standard_normal((rank, d)), 3, KernelSpec(d / 5.0),
                                     points)
        built = len(matrix_calls)
        for _ in range(2):
            model.coefficients += 0.5
            assert model.predict_batch(points, block).tobytes() == \
                model.predict_batch(points).tobytes()
        # the blockless prediction's blocks, for each of the two rounds
        assert len(matrix_calls) == built + 2 * math.ceil(5000 / self.CHUNK)

    def test_memory_does_not_grow_with_the_row_count(self):
        # one whole 50000 x 256 block would be 102 MB, and kernel_matrix holds
        # a temporary of the same size while building it
        model = random_model(256, 4, 1, seed=0)
        X = np.random.default_rng(1).standard_normal((50_000, 4))
        tracemalloc.start()
        try:
            pred = model.predict_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pred.shape == (50_000, 1)
        assert peak < 24e6
