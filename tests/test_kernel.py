import numpy as np
import pytest

from weaksgd.geometry import c2_constant, sample_sphere_batch
from weaksgd.kernel import (
    KernelModel,
    KernelSpec,
    kernel_eval,
    kernel_matrix,
    load_model,
    nystrom_representers,
    save_model,
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
        for n, p, d in ((1, 1, 1), (37, 11, 1), (50, 20, 7)):
            X, Z = rng.standard_normal((n, d)), rng.standard_normal((p, d))
            d2 = ((X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :]
                  - 2.0 * (X @ Z.T))
            expected = np.exp(-np.maximum(d2, 0.0) / (2.0 * spec.bandwidth**2))
            assert kernel_matrix(spec, X, Z).tobytes() == expected.tobytes()

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=1.0, kind="laplacian")


class TestPredict:
    def test_zero_coefficients(self, spec):
        model = KernelModel.zeros(np.array([[0.0], [1.0]]), 3, spec)
        assert np.array_equal(model.predict([0.4]), np.zeros(3))

    def test_single_representer_at_itself(self, spec):
        model = KernelModel(np.array([[0.25]]), np.array([[1.0, 0.0]]), spec)
        assert np.allclose(model.predict([0.25]), [1.0, 0.0], atol=0)

    def test_equidistant_half_kernel(self):
        # representers at -c and +c with c = sigma sqrt(2 ln 2): k(0, +/-c) = 1/2
        spec = KernelSpec(bandwidth=1.0)
        c = np.sqrt(2.0 * np.log(2.0))
        model = KernelModel(np.array([[-c], [c]]), np.eye(2), spec)
        assert np.allclose(model.predict([0.0]), [0.5, 0.5], atol=1e-12)

    def test_linearity_in_coefficients(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p, m = int(rng.integers(1, 21)), int(rng.integers(1, 6))
            reps = rng.standard_normal((p, 2))
            a, b = rng.standard_normal((p, m)), rng.standard_normal((p, m))
            x = rng.standard_normal(2)
            fa = KernelModel(reps, a, spec).predict(x)
            fb = KernelModel(reps, b, spec).predict(x)
            fab = KernelModel(reps, a + b, spec).predict(x)
            assert np.allclose(fab, fa + fb, atol=1e-12)

    def test_batch_matches_single(self, spec):
        rng = np.random.default_rng(8)
        model = KernelModel(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)), spec)
        X = rng.standard_normal((6, 2))
        batch = model.predict_batch(X)
        for i in range(6):
            assert np.allclose(batch[i], model.predict(X[i]), atol=1e-12)

    def test_dimension_mismatch(self, spec):
        model = KernelModel.zeros(np.zeros((2, 2)), 1, spec)
        with pytest.raises(ValueError):
            model.predict([1.0])


def one_step(model, x, y, gamma, direction="coordinate", seed=0):
    """One median-SGD step at ``x`` against label ``y``; returns the drawn direction.

    At t = 1 the decaying schedule steps by exactly ``gamma``.
    """
    oracle = QueryOracle.for_regression(np.atleast_2d(y), budget=1)
    run_median_sgd(np.atleast_2d(x), oracle, StepSchedule.decaying(gamma), model,
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
        model = KernelModel(np.array([[0.0]]), np.array([[2.0]]), spec, ridge=0.5)
        one_step(model, [0.8], [5.0], gamma=0.1)
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
                bumped = model.copy()
                bumped.coefficients[i, j] += h
                diff = float(bumped.predict(x) @ u - model.predict(x) @ u)
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
        resid = y - model.predict(x)
        direction = resid / np.linalg.norm(resid)
        n = 10**6
        U = sample_sphere_batch(rng, 3, n)
        eps = np.where(U @ resid >= 0.0, 1.0, -1.0)
        mean_dir = (U * eps[:, None]).mean(axis=0)
        se = (U * eps[:, None]).std(axis=0) / np.sqrt(n)
        target = c2_constant(3) * direction
        assert (np.abs(mean_dir - target) <= 4 * se + 1e-12).all()
        # and the driver's step is eps(U) U through the kernel column, for each U
        kcol = model.kernel_column(x)
        for seed in range(5):
            stepped = model.copy()
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
    """Run the shared step loop with a rule that sets the t-th iterate to
    ``iterates[t - 1]``; returns the loop's report."""
    p, m = iterates[0].shape
    model = KernelModel.zeros(np.zeros((p, 1)), m, KernelSpec(0.5))

    def rule(s, kcol, gamma):
        model.coefficients[:] = iterates[s]
        return None

    K = np.ones((len(iterates), p))
    return _descend(model, K, StepSchedule.decaying(1.0), list(grid), None, rule, 0)


class TestAveragedModel:
    """The running mean the step loop keeps is the plain mean of the iterates."""

    def test_same_matrix_twice(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        report = averaged([a, a])
        assert np.allclose(report.averaged_model.coefficients, a, atol=0)

    def test_two_matrices(self):
        report = averaged([np.array([[2.0, 0.0]]), np.array([[0.0, 4.0]])])
        assert np.allclose(report.averaged_model.coefficients, [[1.0, 2.0]], atol=1e-15)

    def test_zeros_then_one(self):
        report = averaged([np.zeros((1, 1))] * 4 + [np.array([[10.0]])], grid=[4, 5])
        assert report.averaged_model.coefficients[0, 0] == pytest.approx(2.0, rel=1e-14)
        assert [t for t, _ in report.checkpoints] == [4, 5]
        assert report.checkpoints[0][1][0, 0] == 0.0

    def test_matches_plain_mean(self):
        rng = np.random.default_rng(4)
        mats = [rng.standard_normal((3, 2)) for _ in range(50)]
        report = averaged(mats)
        assert np.allclose(report.averaged_model.coefficients, np.mean(mats, axis=0),
                           atol=1e-12)
        assert np.array_equal(report.final_model.coefficients, mats[-1])


class TestCheckpointSerialization:
    def test_round_trip_bit_stable(self, tmp_path, spec):
        rng = np.random.default_rng(5)
        model = KernelModel(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)),
                            spec, ridge=1e-6)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.representers.tobytes() == model.representers.tobytes()
        assert back.coefficients.tobytes() == model.coefficients.tobytes()
        assert back.spec.bandwidth == model.spec.bandwidth
        assert back.ridge == model.ridge
        # a second save of the loaded model is byte-identical
        path2 = tmp_path / "model2.txt"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_model(path)


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

    def test_seeded(self):
        X = np.random.default_rng(1).standard_normal((30, 2))
        a = nystrom_representers(X, 10, np.random.default_rng(2))
        b = nystrom_representers(X, 10, np.random.default_rng(2))
        assert a.tobytes() == b.tobytes()
