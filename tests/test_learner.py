import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksgd import datasets, kernel, learner, surrogate
from weaksgd.datasets import gen_sin_regression, parse_csv_regression, parse_libsvm, sin_target
from weaksgd.evaluation import excess_risk_noiseless
from weaksgd.experiments import train
from weaksgd.geometry import c1_constant, sample_sphere_batch
from weaksgd.kernel import KernelModel, KernelSpec, kernel_matrix, nystrom_representers
from weaksgd.learner import (
    StepSchedule,
    default_checkpoints,
    run_full_sgd,
    run_least_squares_sgd,
    run_median_sgd,
    run_passive_median,
)
from weaksgd.oracle import QueryOracle, StreamingViolation
from weaksgd.surrogate import infimum_loss_sgd

import reference


def zero_model(reps, m=1, bandwidth=0.2, ridge=0.0):
    return KernelModel.zeros(np.asarray(reps, dtype=float), m, KernelSpec(bandwidth), ridge)


class TestStepSchedule:
    def test_constant_rate(self):
        assert (StepSchedule("constant", 0.2).gammas(0, 100) == 0.2).all()

    def test_constant_from_gamma(self):
        # exactly gamma0: no horizon is multiplied in and divided back out
        gammas = StepSchedule("constant", 0.1).gammas(0, 9)
        assert gammas.tolist() == [0.1] * 9

    def test_decaying(self):
        gammas = StepSchedule.decaying(1.5).gammas(0, 9)
        assert gammas[0] == 1.5
        assert gammas[8] == 0.5

    def test_step_vector_matches_gamma_bit_for_bit(self):
        for gamma0 in (0.3, 7.0):
            expected = np.array([gamma0 / np.sqrt(t) for t in range(1, 1001)])
            assert StepSchedule.decaying(gamma0).gammas(0, 1000).tobytes() == expected.tobytes()
        assert StepSchedule("decaying", 1.0).gammas(0, 0).shape == (0,)
        assert StepSchedule("constant", 1.0).gammas(0, 0).shape == (0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.decaying(0.0)
        with pytest.raises(ValueError):
            StepSchedule("constant", -0.5)
        with pytest.raises(ValueError):
            StepSchedule(kind="cyclic", gamma0=1.0)
        for gamma0 in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite gamma0"):
                StepSchedule.decaying(gamma0)


class TestMedianSGD:
    def test_zero_budget_leaves_model_unchanged(self):
        rng = np.random.default_rng(0)
        model = zero_model([[0.5]])
        oracle = QueryOracle.for_regression(np.array([[1.0]]), budget=0)
        report = run_median_sgd(np.array([[0.5]]), oracle, StepSchedule.decaying(1.0),
                                model, rng)
        assert report.queries_used == 0
        assert np.all(report.final_model.coefficients == 0.0)
        assert np.all(report.averaged_model.coefficients == 0.0)

    def test_single_step_hand_simulation(self):
        # m = 1, x at the representer, Y > 0, zero model:
        # eps * U = sign(Y - 0) = +1 regardless of the drawn U, so the single
        # coefficient lands exactly at gamma(1)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = zero_model([[0.3]])
            oracle = QueryOracle.for_regression(np.array([[0.7]]), budget=1)
            report = run_median_sgd(np.array([[0.3]]), oracle,
                                    StepSchedule.decaying(0.25), model, rng)
            assert report.final_model.coefficients[0, 0] == pytest.approx(0.25, abs=1e-15)
            assert report.queries_used == 1

    def test_budget_exactness(self):
        rng = np.random.default_rng(1)
        data = gen_sin_regression(40, rng)
        model = zero_model(nystrom_representers(data.features, 10, rng))
        oracle = QueryOracle.for_regression(data.targets, budget=25)
        report = run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3),
                                model, rng)
        assert report.queries_used == 25 == oracle.budget_used

    def test_budget_capped_by_data(self):
        rng = np.random.default_rng(2)
        data = gen_sin_regression(8, rng)
        model = zero_model(data.features)
        oracle = QueryOracle.for_regression(data.targets, budget=100)
        report = run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3),
                                model, rng)
        assert report.queries_used == 8

    def test_seeded_runs_are_bit_identical(self):
        coeffs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            data = gen_sin_regression(64, rng)
            model = zero_model(nystrom_representers(data.features, 16, rng))
            oracle = QueryOracle.for_regression(data.targets, budget=64)
            report = run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3),
                                    model, rng)
            coeffs.append(report.final_model.coefficients.copy())
        assert coeffs[0].tobytes() == coeffs[1].tobytes()

    def test_checkpoint_validation(self):
        rng = np.random.default_rng(3)
        data = gen_sin_regression(16, rng)
        model = zero_model(data.features)
        oracle = QueryOracle.for_regression(data.targets, budget=16)
        with pytest.raises(ValueError):
            run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), model,
                           rng, checkpoint_grid=[8, 32])
        for grid in ([4, 4], [8, 4], [0, 4]):
            with pytest.raises(ValueError, match="strictly increasing positive"):
                run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), model,
                               rng, checkpoint_grid=grid)
        assert oracle.budget_used == 0

    def test_checkpoints_recorded_on_grid(self):
        rng = np.random.default_rng(4)
        data = gen_sin_regression(16, rng)
        model = zero_model(nystrom_representers(data.features, 8, rng))
        oracle = QueryOracle.for_regression(data.targets, budget=16)
        report = run_median_sgd(
            data.features, oracle, StepSchedule.decaying(0.3), model, rng,
            checkpoint_grid=[1, 2, 4, 8, 16],
            evaluate=lambda m: excess_risk_noiseless(m, sin_target, 64),
        )
        assert [t for t, _ in report.checkpoints] == [1, 2, 4, 8, 16]
        assert all(isinstance(v, float) for _, v in report.checkpoints)

    def test_streaming_violation_propagates(self):
        # a second walk from row 0 on a streaming oracle that has answered rows
        # 0-2 asks row 0 again; the refused query spends no bit
        rng = np.random.default_rng(5)
        data = gen_sin_regression(8, rng)
        model = zero_model(data.features)
        oracle = QueryOracle.for_regression(data.targets, budget=8, mode="streaming")
        run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), model, rng,
                       indices=learner.Cycle(8, 3))
        assert oracle.budget_used == 3
        with pytest.raises(StreamingViolation):
            run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), model, rng)
        assert oracle.budget_used == 3

    def test_default_checkpoints_shape(self):
        assert default_checkpoints(30) == [1, 2, 4, 8, 16, 30]
        assert default_checkpoints(16) == [1, 2, 4, 8, 16]
        assert default_checkpoints(0) == []

    def test_streaming_audit_via_query_log(self):
        # a streaming run logs the index sequence 0, 1, 2, ... exactly
        rng = np.random.default_rng(6)
        data = gen_sin_regression(12, rng)
        model = zero_model(data.features)
        oracle = QueryOracle.for_regression(data.targets, budget=12, record_log=True)
        run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), model, rng)
        assert [entry[1] for entry in oracle.query_log] == list(range(12))
        assert [entry[0] for entry in oracle.query_log] == list(range(1, 13))

    def test_vector_output_risk_decreases(self):
        rng = np.random.default_rng(7)
        from weaksgd.datasets import gen_harmonic_regression, harmonic_target

        data = gen_harmonic_regression(2048, 2, rng)
        model = KernelModel.zeros(
            nystrom_representers(data.features, 64, rng), 2, KernelSpec(0.15))
        oracle = QueryOracle.for_regression(data.targets, budget=2048)
        report = run_median_sgd(
            data.features, oracle, StepSchedule.decaying(1.0), model, rng,
            checkpoint_grid=[16, 2048],
            evaluate=lambda m: excess_risk_noiseless(
                m, lambda x: harmonic_target(x, 2), 128),
        )
        risks = dict(report.checkpoints)
        assert risks[2048] < risks[16] / 3

    def test_descent_sanity_on_sin_task(self):
        # averaged-model risk at T = 4096 beats T = 64 on nearly every seed
        wins = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            data = gen_sin_regression(4096, rng)
            model = zero_model(nystrom_representers(data.features, 100, rng))
            oracle = QueryOracle.for_regression(data.targets, budget=4096)
            report = run_median_sgd(
                data.features, oracle, StepSchedule.decaying(0.3), model, rng,
                checkpoint_grid=[64, 4096],
                evaluate=lambda m: excess_risk_noiseless(m, sin_target, 256),
            )
            risks = dict(report.checkpoints)
            wins += risks[4096] < risks[64]
        assert wins >= 90


class TestLeastSquaresSGD:
    def test_zero_labels_zero_model_never_updates(self):
        # b = 1{0 < -V} is identically 0, so the coefficients stay put
        rng = np.random.default_rng(0)
        X = rng.random((32, 1))
        model = zero_model(X[:8])
        oracle = QueryOracle.for_regression(np.zeros((32, 1)), budget=32)
        report = run_least_squares_sgd(X, oracle, StepSchedule.decaying(0.5), model,
                                       rng, bound=1.0)
        assert np.all(report.final_model.coefficients == 0.0)
        assert report.queries_used == 32

    def test_zero_budget(self):
        rng = np.random.default_rng(1)
        model = zero_model([[0.2]])
        oracle = QueryOracle.for_regression(np.array([[0.4]]), budget=0)
        report = run_least_squares_sgd(np.array([[0.2]]), oracle,
                                       StepSchedule.decaying(0.5), model, rng, bound=1.0)
        assert report.queries_used == 0

    def test_indicator_reconstruction_of_residual(self):
        # the queried bit times U averages to c1 * (f(x) - y), the identity
        # the update direction is built on
        rng = np.random.default_rng(2)
        f_x = np.array([0.3, -0.2, 0.5])
        y = np.array([-0.1, 0.4, 0.1])
        z = f_x - y
        M = 1.0
        n = 10**6
        U = sample_sphere_batch(rng, 3, n)
        V = rng.uniform(0.0, 2.0 * M, n)
        b = ((U @ z) > V).astype(float)  # 1{<y,U> < <f,U> - V}
        vals = U * b[:, None]
        mean, se = vals.mean(axis=0), vals.std(axis=0) / np.sqrt(n)
        assert (np.abs(mean - c1_constant(3, M) * z) <= 4 * se + 1e-12).all()

    def test_bound_validation(self):
        rng = np.random.default_rng(0)
        model = zero_model([[0.0]])
        oracle = QueryOracle.for_regression(np.array([[0.0]]), budget=1)
        for bound in (0.0, -1.0, np.inf, np.nan, 1e308):
            with pytest.raises(ValueError, match="bound must be finite"):
                run_least_squares_sgd(np.array([[0.0]]), oracle, StepSchedule.decaying(0.5),
                                      model, rng, bound=bound)
            assert oracle.budget_used == 0

    def test_shrinkage_applies_even_without_an_update(self):
        # ridge is part of the objective: a zero bit still shrinks the
        # coefficients; Y = f(x) makes the bit 1{0 < -V} = 0 for every draw
        rng = np.random.default_rng(3)
        X = np.array([[0.2]])
        model = zero_model(X, ridge=0.5)
        model.coefficients[0, 0] = 1.0
        oracle = QueryOracle.for_regression(np.array([[1.0]]), budget=1)
        report = run_least_squares_sgd(X, oracle, StepSchedule.decaying(0.2), model,
                                       rng, bound=1.0)
        assert report.final_model.coefficients[0, 0] == pytest.approx(0.9, abs=1e-15)


class TestFullSGD:
    def test_perfect_model_never_moves(self):
        X = np.array([[0.1], [0.9]])
        model = zero_model(X)
        report = run_full_sgd(X, np.zeros((2, 1)), StepSchedule.decaying(1.0), model)
        assert np.all(report.final_model.coefficients == 0.0)
        assert report.queries_used == 0  # no oracle, no budget spent

    def test_scalar_reduction_matches_sign_rule(self):
        # m = 1: the update is -sign(f - y) * gamma * kernel column
        X = np.array([[0.2], [0.8]])
        Y = np.array([[1.0], [-1.0]])
        model = zero_model(X, bandwidth=0.25)
        sched = StepSchedule.decaying(0.4)
        report = run_full_sgd(X, Y, sched, model)
        expect = np.zeros((2, 1))
        mirror = zero_model(X, bandwidth=0.25)
        for t, (x, y) in enumerate(zip(X, Y), start=1):
            kcol = kernel_matrix(mirror.spec, x, mirror.representers)[0]
            f = float(kcol @ expect[:, 0])
            expect[:, 0] -= sched.gamma0 / np.sqrt(t) * np.sign(f - y[0]) * kcol
        assert np.allclose(report.final_model.coefficients, expect, atol=1e-15)

    def test_matches_weak_median_in_one_dimension(self):
        # for scalar outputs eps * U = sign(y - f(x)): the two drivers coincide
        rng = np.random.default_rng(8)
        data = gen_sin_regression(128, rng)
        reps = nystrom_representers(data.features, 32, np.random.default_rng(9))
        weak = zero_model(reps)
        full = zero_model(reps)
        oracle = QueryOracle.for_regression(data.targets, budget=128)
        run_median_sgd(data.features, oracle, StepSchedule.decaying(0.3), weak,
                       np.random.default_rng(10))
        run_full_sgd(data.features, data.targets, StepSchedule.decaying(0.3), full)
        assert np.allclose(weak.coefficients, full.coefficients, atol=1e-12)


class TestPassiveMedian:
    def test_rejects_vector_outputs(self):
        rng = np.random.default_rng(0)
        model = KernelModel.zeros(np.zeros((1, 1)), 2, KernelSpec(0.2))
        oracle = QueryOracle.for_regression(np.zeros((4, 2)), budget=4)
        with pytest.raises(ValueError):
            run_passive_median(np.zeros((4, 1)), oracle, StepSchedule.decaying(0.3),
                               model, rng)

    def test_replicated_threshold_trajectory(self):
        # replay the threshold draws and reproduce every branch by hand
        seed = 314
        X = np.array([[0.25], [0.5], [0.75], [0.1], [0.9], [0.4]])
        Y = np.array([[0.8], [-0.5], [0.1], [1.2], [-0.9], [0.3]])
        sched = StepSchedule.decaying(0.5)
        model = zero_model(X[:3], bandwidth=0.3)
        oracle = QueryOracle.for_regression(Y, budget=len(X))
        report = run_passive_median(X, oracle, sched, model, np.random.default_rng(seed))

        thresholds = np.random.default_rng(seed).standard_normal(len(X))
        mirror = zero_model(X[:3], bandwidth=0.3)
        a = mirror.coefficients
        for t, (x, y, v) in enumerate(zip(X, Y, thresholds), start=1):
            kcol = kernel_matrix(mirror.spec, x, mirror.representers)[0]
            f = float(kcol @ a[:, 0])
            b = int(y[0] > v)
            if b == 1 and f < v:
                a[:, 0] += sched.gamma0 / np.sqrt(t) * kcol
            elif b == 0 and f > v:
                a[:, 0] -= sched.gamma0 / np.sqrt(t) * kcol
        assert np.allclose(report.final_model.coefficients, a, atol=1e-15)
        assert report.queries_used == len(X)

    def test_consistent_observation_is_no_op(self):
        # huge positive label: any v gives b = 1; start f on the correct side
        rng = np.random.default_rng(11)
        X = np.array([[0.5]])
        model = zero_model(X)
        model.coefficients[0, 0] = 50.0  # f(x) = 50 > any plausible v
        oracle = QueryOracle.for_regression(np.array([[100.0]]), budget=1)
        report = run_passive_median(X, oracle, StepSchedule.decaying(0.5), model, rng)
        assert report.final_model.coefficients[0, 0] == 50.0


SIGN_STEPS = 600
# cuts windows (every 256 steps) at counts that are not multiples of the
# 64-step slice, so slices end early both at checkpoints and at window ends
SIGN_GRID = [1, 37, 100, 300, 517, SIGN_STEPS]


def sign_and_move_runs(name, m, ridge):
    """A run of a fixed-direction driver, and the same run stepped by a move
    rule that adds ``(k * u) * (sign * gamma)`` at each step, with the same
    draws and the same oracle bits. Returns both reports, the iterate before
    every step of each, and the move rule's signs."""
    rng = np.random.default_rng(31)
    X = rng.standard_normal((SIGN_STEPS, 2))
    reps = nystrom_representers(X, 12, rng)
    Y = np.sin(X[:, :1] + np.arange(m)) + 0.3 * rng.standard_normal((SIGN_STEPS, m))
    if name == "coordinate":
        # labels below the zero model, so the first steps descend: after a
        # negative shrink factor, subtracting the zero products of a basis
        # vector leaves -0.0 in the coefficients of the other outputs
        Y -= 1.0
    oracles = [QueryOracle.for_regression(Y, SIGN_STEPS) for _ in range(2)]
    models = [KernelModel.zeros(reps, m, KernelSpec(1.0), ridge) for _ in range(2)]
    kind = "halfspace_query" if name in ("median", "coordinate") else "threshold_query"
    iterates = ([], [])
    for oracle, model, seen in zip(oracles, models, iterates):
        def asked(*args, ask=getattr(oracle, kind), a=model.coefficients, seen=seen):
            seen.append(a.copy())
            return ask(*args)

        setattr(oracle, kind, asked)
    sched = StepSchedule.decaying(0.5)
    seed, bound = 32, 2.0
    kw = dict(checkpoint_grid=SIGN_GRID)
    rng = np.random.default_rng(seed)
    if name == "passive":
        got = run_passive_median(X, oracles[0], sched, models[0], rng, **kw)
    elif name == "least-squares":
        got = run_least_squares_sgd(X, oracles[0], sched, models[0], rng, bound, **kw)
    else:
        direction = "sphere" if name == "median" else name
        got = run_median_sgd(X, oracles[0], sched, models[0], rng, direction=direction, **kw)

    oracle, a = oracles[1], models[1].coefficients
    draw = np.random.default_rng(seed)
    if name == "coordinate":
        U = np.eye(m)[draw.integers(0, m, SIGN_STEPS)]
    elif name == "passive":
        U = np.ones((SIGN_STEPS, 1))
        V = draw.standard_normal(SIGN_STEPS)
    else:
        U = sample_sphere_batch(draw, m, SIGN_STEPS)
        V = draw.uniform(0.0, 2.0 * bound, SIGN_STEPS)
    signs = []

    def rule(s, i, kcol, gamma):
        u = U[s]
        if name == "least-squares":
            sign = -oracle.threshold_query(i, u, float(kcol.dot(a).dot(u)) - V[s])
        elif name == "passive":
            above = 1 - oracle.threshold_query(i, u, float(V[s]))
            z = float(kcol.dot(a[:, 0]))
            sign = 1 if above and z < V[s] else -1 if not above and z > V[s] else 0
        else:
            sign = oracle.halfspace_query(i, kcol.dot(a), u)
        signs.append(sign)
        return (sign * gamma, u) if sign else None

    X, used, grid = learner._prepare(X, SIGN_STEPS, SIGN_GRID, None, Y.shape)
    want = learner._descend(models[1], X, used, sched, grid, None, rule, SIGN_STEPS)
    return got, want, iterates, signs


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestSignRule:
    """A driver whose direction is drawn before the bit steps by adding or
    subtracting a scaled row; its bits equal those of a move rule's
    ``(k * u) * (sign * gamma)`` update."""

    @pytest.mark.parametrize("name,m,ridge", [
        # up to learner._COLUMNS_MAX = 5 outputs a slice is scaled one output
        # column at a time, from 6 in one broadcast product: both sides are held
        ("median", 1, 0.0), ("median", 2, 0.0), ("median", 3, 0.0), ("median", 3, 3.0),
        ("median", 5, 3.0), ("median", 6, 0.0),
        # zero components of the basis vector give signed-zero products; with a
        # negative first shrink factor (gamma0 * ridge = 1.5) they give -0.0
        # coefficients
        ("coordinate", 4, 0.0), ("coordinate", 4, 3.0), ("coordinate", 5, 3.0),
        ("coordinate", 6, 3.0),
        # a basis direction's slice writes only its picked column: one output
        # fills the whole row, and 10 is the anchored task's class count
        ("coordinate", 1, 0.0), ("coordinate", 2, 0.0), ("coordinate", 10, 0.0),
        ("least-squares", 1, 0.0), ("least-squares", 3, 3.0), ("least-squares", 5, 0.0),
        ("passive", 1, 0.0), ("passive", 1, 3.0),
    ])
    def test_bits_equal_the_move_rule(self, name, m, ridge):
        got, want, (seen, expected), signs = sign_and_move_runs(name, m, ridge)
        assert got.queries_used == want.queries_used == len(seen) == SIGN_STEPS
        assert same_bits(seen, expected)  # the iterate before every step
        for attr in ("final_model", "averaged_model"):
            assert same_bits(getattr(got, attr).coefficients,
                             getattr(want, attr).coefficients), attr
        assert [t for t, _ in got.checkpoints] == SIGN_GRID
        for (t, g), (_, w) in zip(got.checkpoints, want.checkpoints):
            assert same_bits(g, w), t
        # least squares only ever descends; passive and least squares skip steps
        assert set(signs) == ({-1, 0} if name == "least-squares" else {-1, 0, 1}
                              if name == "passive" else {-1, 1})
        if name == "coordinate" and ridge:
            seen = np.array(seen)
            assert (np.signbit(seen) & (seen == 0.0)).any()


def scalar_rule(run):
    """The bit rule a driver hands to ``_descend``, captured without running
    a step. A sign rule reads the draws of its step's block, so the first
    block, of one step, is drawn through the driver's ``directions``."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learner, "_descend", lambda *args, **kw: captured.append(args))
        run()
    args = captured[0]
    if len(args) > 8:
        args[8](0, 1)
    return args[6]


# bounded so that f(x) and the residual stay finite; signed zeros included
small = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


class TestScalarRules:
    """With one output the least-squares threshold and the full-sgd move are
    Python-float products; they equal the length-1 dots bit for bit, or give
    the same oracle answer where only a zero's sign differs."""

    @settings(max_examples=300, deadline=None)
    @given(kcol=st.lists(small, min_size=1, max_size=3), data=st.data(),
           u=st.sampled_from([1.0, -1.0]))
    def test_least_squares_threshold(self, kcol, data, u):
        kcol = np.array(kcol)
        a = np.array(data.draw(st.lists(small, min_size=kcol.size, max_size=kcol.size)))[:, None]
        model = zero_model(np.zeros((kcol.size, 1)))
        model.coefficients[:] = a
        seed, bound = 5, 1.0
        draw = np.random.default_rng(seed)
        sample_sphere_batch(draw, 1, 1)
        v = draw.uniform(0.0, 2.0 * bound, 1)
        u = np.array([u])
        if data.draw(st.booleans(), label="zero threshold"):  # f(x) u = v exactly
            kcol, a = np.ones(1), np.array([[v[0] * u[0]]])
            model = zero_model(np.zeros((1, 1)))
            model.coefficients[:] = a
        want = float(kcol.dot(a).dot(u)) - v[0]
        # the label ties with the threshold, or with its negative, or is free
        y = data.draw(st.one_of(st.just(want * u[0]), st.just(-want * u[0]), small), label="y")
        oracle = QueryOracle.for_regression([y], budget=1, mode="resampling")
        asked = []
        oracle.threshold_query = lambda i, u, c: asked.append(c) or int(y * u.item(0) < c)
        rule = scalar_rule(lambda: run_least_squares_sgd(
            np.zeros((1, 1)), oracle, StepSchedule.decaying(1.0), model,
            np.random.default_rng(seed), bound))
        sign = rule(0, 0, kcol, u)
        got = asked[0]
        assert same_bits(got, want) or (got == want == 0.0)
        assert sign == -int(y * u[0] < want)

    @settings(max_examples=300, deadline=None)
    @given(kcol=st.lists(small, min_size=1, max_size=3), data=st.data(),
           gamma=st.floats(1e-3, 1e3))
    def test_full_sgd_move(self, kcol, data, gamma):
        kcol = np.array(kcol)
        a = np.array(data.draw(st.lists(small, min_size=kcol.size, max_size=kcol.size)))[:, None]
        model = zero_model(np.zeros((kcol.size, 1)))
        model.coefficients[:] = a
        f = kcol.dot(a)[0]
        y = data.draw(st.one_of(st.just(f), st.just(-f), small), label="y")  # ties too
        Y = np.array([[y]])
        rule = scalar_rule(lambda: run_full_sgd(
            np.zeros((1, 1)), Y, StepSchedule.decaying(1.0), model))
        got = rule(0, 0, kcol, gamma)
        r = kcol.dot(a) - Y[0]
        nr = math.sqrt(r.dot(r))
        if nr > 0.0:
            assert same_bits(got[0], -(gamma / nr))
            assert same_bits(got[1], r[0])
        else:
            assert got is None


class TestLabelsMatchX:
    """A driver refuses labels that do not match its inputs before any step."""

    def test_full_sgd_labels_with_fewer_rows(self):
        X = np.random.default_rng(26).random((10, 1))
        model = zero_model(X[:3])
        with pytest.raises(ValueError, match=r"\(5, 1\) do not match X of shape \(10, 1\)"):
            run_full_sgd(X, np.sin(X[:5]), StepSchedule.decaying(0.3), model,
                         indices=learner.Cycle(10, 10))
        assert not model.coefficients.any()

    def test_full_sgd_labels_with_more_columns_than_outputs(self):
        X = np.random.default_rng(27).random((10, 1))
        model = zero_model(X[:3])
        with pytest.raises(ValueError, match=r"\(10, 2\) do not fit X of shape \(10, 1\)"):
            run_full_sgd(X, np.hstack([np.sin(X), np.cos(X)]), StepSchedule.decaying(0.3), model)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("name", ["median", "least-squares", "passive", "infimum-loss"])
    def test_an_oracle_with_fewer_samples(self, name):
        # a budget for all 10 rows: the tenth query would fail after nine bits
        rng = np.random.default_rng(28)
        X = rng.random((10, 1))
        sched = StepSchedule.decaying(0.3)
        with pytest.raises(ValueError, match=r"\(9,\) do not match X of shape \(10, 1\)"):
            if name == "infimum-loss":
                oracle = QueryOracle.for_classification(rng.integers(1, 4, 9), 3, 10)
                infimum_loss_sgd(X, oracle, sched, zero_model(X[:3], 3), rng)
            else:
                oracle = QueryOracle.for_regression(np.sin(X[:9]), 10)
                if name == "median":
                    run_median_sgd(X, oracle, sched, zero_model(X[:3]), rng)
                elif name == "least-squares":
                    run_least_squares_sgd(X, oracle, sched, zero_model(X[:3]), rng, 1.0)
                else:
                    run_passive_median(X, oracle, sched, zero_model(X[:3]), rng)
        assert oracle.budget_used == 0


class TestNonFiniteInputs:
    """An input that is not finite is refused before any bit: its kernel row
    would spend every bit and leave a model that is not finite."""

    @staticmethod
    def inputs(bad):
        # the representers are finite rows; the bad value sits in another row
        X = np.random.default_rng(29).random((10, 2))
        X[7, 1] = bad
        return X, zero_model(X[:3], 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sign_rule(self, no_bits, bad):
        X, model = self.inputs(bad)
        oracle = QueryOracle.for_classification(np.arange(10) % 3 + 1, 3, 10)
        with pytest.raises(ValueError, match="X contains non-finite values"):
            run_median_sgd(X, oracle, StepSchedule.decaying(0.3), model,
                           np.random.default_rng(0), direction="coordinate")
        assert oracle.budget_used == 0 and not model.coefficients.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_move_rule(self, no_bits, bad):
        X, model = self.inputs(bad)
        oracle = QueryOracle.for_classification(np.arange(10) % 3 + 1, 3, 10)
        with pytest.raises(ValueError, match="X contains non-finite values"):
            infimum_loss_sgd(X, oracle, StepSchedule.decaying(0.3), model,
                             np.random.default_rng(0))
        assert oracle.budget_used == 0 and not model.coefficients.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_full_sgd(self, no_bits, bad):
        X, model = self.inputs(bad)
        with pytest.raises(ValueError, match="X contains non-finite values"):
            run_full_sgd(X, np.zeros((10, 3)), StepSchedule.decaying(0.3), model)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model(self, no_bits, bad):
        reps = np.zeros((3, 2))
        reps[1, 0] = bad
        with pytest.raises(ValueError, match="representers contain non-finite values"):
            zero_model(reps, 3)

    @staticmethod
    def border():
        """The largest x whose 4 x^2 is finite: rows [x] and [-x] are kernel
        inputs, 4 x^2 apart, and the next float up is not."""
        x = math.sqrt(np.finfo(float).max / 4.0)
        while 4.0 * (x * x) < math.inf:
            x = math.nextafter(x, math.inf)
        while not 4.0 * (x * x) < math.inf:
            x = math.nextafter(x, 0.0)
        return x

    @pytest.mark.parametrize("driver", ["sign-rule", "move-rule", "full-sgd"])
    def test_a_row_past_the_squared_norm_bound(self, no_bits, driver):
        # its squared distances to other rows would be inf - inf = NaN
        X, model = self.inputs(math.nextafter(self.border(), math.inf))
        oracle = QueryOracle.for_classification(np.arange(10) % 3 + 1, 3, 10)
        schedule, rng = StepSchedule.decaying(0.3), np.random.default_rng(0)
        with pytest.raises(ValueError, match="X contains a row whose squared norm is too large"):
            if driver == "sign-rule":
                run_median_sgd(X, oracle, schedule, model, rng, direction="coordinate")
            elif driver == "move-rule":
                infimum_loss_sgd(X, oracle, schedule, model, rng)
            else:
                run_full_sgd(X, np.zeros((10, 3)), schedule, model)
        assert oracle.budget_used == 0 and not model.coefficients.any()

    def test_model_past_the_squared_norm_bound(self, no_bits):
        reps = np.zeros((3, 2))
        reps[1, 0] = math.nextafter(self.border(), math.inf)
        with pytest.raises(ValueError, match="representers contain a row whose squared norm"):
            zero_model(reps, 3)

    def test_rows_at_the_squared_norm_bound_train_a_finite_model(self):
        b = self.border()
        X = np.array([[b], [-b], [0.0], [1.0]] * 4)
        model = zero_model(X[:4], 3)
        oracle = QueryOracle.for_classification(np.arange(16) % 3 + 1, 3, 16)
        # a squared distance of 4 b^2 over 2 sigma^2 may overflow to -inf,
        # which exp takes to 0; inf - inf would be invalid
        with np.errstate(over="ignore", invalid="raise"):
            K = kernel_matrix(model.spec, X[:4], model.representers)
            report = run_median_sgd(X, oracle, StepSchedule.decaying(0.3), model,
                                    np.random.default_rng(0), direction="coordinate")
        assert np.diag(K).tolist() == [1.0] * 4 and K[0, 1] == K[1, 0] == 0.0
        assert oracle.budget_used == 16
        assert np.isfinite(report.final_model.coefficients).all()
        assert np.isfinite(report.averaged_model.coefficients).all()


def reference_case(data, strategy):
    """One drawn driver run and its plain reference run (``tests/reference.py``):
    the report, the reference's last and averaged iterates and checkpoints,
    and both oracles (None for full-sgd) and generators."""
    m = 1 if strategy == "passive" else data.draw(
        st.integers(2 if strategy == "infimum-loss" else 1, 7), label="m")
    classify = strategy == "infimum-loss" or (
        strategy in ("median", "coordinate") and m >= 2 and data.draw(st.booleans(),
                                                                      label="classify"))
    ridge = data.draw(st.sampled_from([0.0, 1e-3, 2.5]), label="ridge")  # 2.5 * gamma0 > 1
    schedule = StepSchedule(data.draw(st.sampled_from(StepSchedule.KINDS), label="schedule"),
                            data.draw(st.sampled_from([0.5, 0.7]), label="gamma0"))
    walk = data.draw(st.integers(0, 3 * CHUNK + 40), label="walk")
    resampling = data.draw(st.booleans(), label="resampling")
    if resampling:
        n = data.draw(st.integers(1, CHUNK + 100), label="n")
        indices, steps = learner.Cycle(n, walk), walk
    else:
        n = walk + data.draw(st.integers(0 if walk else 1, 3), label="unwalked rows")
        indices, steps = None, n
    budget = data.draw(st.integers(max(0, steps - 3), steps + 3), label="budget")
    if strategy != "full-sgd":
        steps = min(budget, steps)
    grid = data.draw(st.lists(st.integers(1, max(steps, 1)), unique=True, max_size=6)
                     .map(sorted), label="grid") if steps else []
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.standard_normal((n, 2))
    reps = rng.standard_normal((data.draw(st.integers(1, 8), label="rank"), 2))
    labels = rng.integers(1, m + 1, n) if classify else (
        np.sin(X[:, :1] + np.arange(m)) + 0.3 * rng.standard_normal((n, m)))
    mode = "resampling" if resampling else "streaming"

    def make_oracle():
        if strategy == "full-sgd":
            return None
        if classify:
            return QueryOracle.for_classification(labels, m, budget, mode, record_log=True)
        return QueryOracle.for_regression(labels, budget, mode, record_log=True)

    model = KernelModel.zeros(reps, m, KernelSpec(1.0), ridge)
    oracle, ref_oracle = make_oracle(), make_oracle()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="driver seed"))
    ref_rng, bound = copy.deepcopy(rng), 2.0
    # the reference first: it steps a copy of the coefficients the driver moves
    want = reference.run(strategy, X, labels if strategy == "full-sgd" else ref_oracle,
                         schedule, model, ref_rng, [t % n for t in range(steps)], grid, bound)
    kw = dict(checkpoint_grid=grid, indices=indices)
    if strategy == "full-sgd":
        report = run_full_sgd(X, labels, schedule, model, **kw)
    elif strategy == "least-squares":
        report = run_least_squares_sgd(X, oracle, schedule, model, rng, bound, **kw)
    elif strategy == "passive":
        report = run_passive_median(X, oracle, schedule, model, rng, **kw)
    elif strategy == "infimum-loss":
        report = infimum_loss_sgd(X, oracle, schedule, model, rng, **kw)
    else:
        direction = "sphere" if strategy == "median" else strategy
        report = run_median_sgd(X, oracle, schedule, model, rng, direction=direction, **kw)
    return report, want, (oracle, ref_oracle), (rng, ref_rng)


def close(got, want):
    """Equal within 1e-12 of the largest magnitude of ``want``."""
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= (
        1e-12 * np.abs(want).max(initial=0.0))


@settings(max_examples=200, deadline=None)
@given(strategy=st.sampled_from(reference.STRATEGIES), data=st.data())
def test_every_driver_steps_as_the_plain_reference(strategy, data):
    report, (last, mean, checkpoints), (oracle, ref_oracle), (rng, ref_rng) = reference_case(
        data, strategy)
    assert same_bits(report.final_model.coefficients, last)
    assert close(report.averaged_model.coefficients, mean)
    assert [t for t, _ in report.checkpoints] == [t for t, _ in checkpoints]
    for (t, got), (_, want) in zip(report.checkpoints, checkpoints):
        assert close(got, want), t
    if oracle is not None:
        assert report.queries_used == oracle.budget_used == ref_oracle.budget_used
        assert oracle.query_log == ref_oracle.query_log
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestBudgetExactness:
    @pytest.mark.parametrize("budget,n,expected", [(20, 32, 20), (32, 32, 32), (50, 32, 32)])
    def test_every_oracle_driver(self, budget, n, expected):
        runs = {
            "median": lambda X, orc, sched, model, rng: run_median_sgd(
                X, orc, sched, model, rng),
            "least-squares": lambda X, orc, sched, model, rng: run_least_squares_sgd(
                X, orc, sched, model, rng, bound=1.0),
            "passive": lambda X, orc, sched, model, rng: run_passive_median(
                X, orc, sched, model, rng),
        }
        for name, driver in runs.items():
            rng = np.random.default_rng(12)
            data = gen_sin_regression(n, rng)
            model = zero_model(nystrom_representers(data.features, 8, rng))
            mode = "streaming" if budget <= n else "resampling"
            oracle = QueryOracle.for_regression(data.targets, budget=budget, mode=mode)
            report = driver(data.features, oracle, StepSchedule.decaying(0.3), model, rng)
            assert report.queries_used == min(budget, n) == oracle.budget_used, name
            assert report.queries_used == expected


CHUNK = kernel.CHUNK_ROWS
TAIL = CHUNK // 2 + 5  # a partial block, cut by a window end
CHUNKED_STEPS = 3 * CHUNK + TAIL  # three whole blocks and a partial tail


def chunked_run(name, chunk_rows, monkeypatch):
    """One seeded run of driver ``name`` over ``CHUNKED_STEPS`` resampled steps
    (1000 distinct rows) with ``chunk_rows`` Gram rows per block; returns the
    report, the row count of every block the loop built, and the steps it
    recorded (least-squares-3 only: each step's direction, threshold and
    iterate before the step) with the generator's states before and after."""
    rng = np.random.default_rng(21)
    n, m = 1000, {"median": 2, "coordinate": 3, "least-squares-3": 3,
                  "infimum-loss": 3}.get(name, 1)
    X = rng.standard_normal((n, 3))
    if name in ("coordinate", "infimum-loss"):
        classes = rng.integers(1, 4, n)
        oracle = QueryOracle.for_classification(classes, 3, CHUNKED_STEPS, "resampling")
    else:
        Y = np.sin(X[:, :m]) + 0.1 * rng.standard_normal((n, m))
        oracle = QueryOracle.for_regression(Y, CHUNKED_STEPS, "resampling")
    model = KernelModel.zeros(nystrom_representers(X, 40, rng), m, KernelSpec(1.5),
                              ridge=1e-3)
    kw = dict(checkpoint_grid=[CHUNK, CHUNK + 1, CHUNKED_STEPS],
              indices=learner.Cycle(n, CHUNKED_STEPS))
    sched = StepSchedule.decaying(0.4)
    blocks = []

    def counted(spec, rows, reps, out=None, scratch=None):
        blocks.append(len(rows))
        return kernel_matrix(spec, rows, reps, out=out, scratch=scratch)

    asked = []
    if name == "least-squares-3":
        def ask(i, u, c, query=oracle.threshold_query, a=model.coefficients):
            asked.append((u.copy(), c, a.copy()))
            return query(i, u, c)

        oracle.threshold_query = ask
    monkeypatch.setattr(kernel, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(learner, "kernel_matrix", counted)
    before = rng.bit_generator.state
    if name == "median":
        report = run_median_sgd(X, oracle, sched, model, rng, **kw)
    elif name == "coordinate":
        report = run_median_sgd(X, oracle, sched, model, rng, direction="coordinate", **kw)
    elif name.startswith("least-squares"):
        report = run_least_squares_sgd(X, oracle, sched, model, rng, 2.0, **kw)
    elif name == "passive":
        report = run_passive_median(X, oracle, sched, model, rng, **kw)
    elif name == "full":
        report = run_full_sgd(X, Y, sched, model, **kw)
    else:
        report = infimum_loss_sgd(X, oracle, sched, model, rng, **kw)
    return report, blocks, (asked, before, rng.bit_generator.state)


class TestChunkedGram:
    """The step loop builds Gram rows a block at a time; nothing it computes
    depends on where the blocks are cut."""

    @pytest.mark.parametrize("d", ["1", "blobs3.libsvm", "weather.csv", "20"])
    def test_block_rows_equal_the_whole_block(self, d, fixtures_dir):
        if d == "blobs3.libsvm":
            d = parse_libsvm((fixtures_dir / d).read_text()).features.shape[1]
        elif d == "weather.csv":
            weather = parse_csv_regression((fixtures_dir / d).read_text(), ["apparent"])
            d = weather.features.shape[1]
        rng = np.random.default_rng(int(d))
        X, Z = rng.standard_normal((CHUNKED_STEPS, int(d))), rng.standard_normal((100, int(d)))
        spec = KernelSpec(0.8)
        whole = kernel_matrix(spec, X, Z)
        for lo in range(0, CHUNKED_STEPS, CHUNK):
            block = kernel_matrix(spec, X[lo:lo + CHUNK], Z)
            assert block.tobytes() == whole[lo:lo + CHUNK].tobytes()

    @pytest.mark.parametrize("name", ["median", "coordinate", "least-squares",
                                      "least-squares-3", "passive", "full", "infimum-loss"])
    def test_run_equals_one_whole_block(self, name, monkeypatch):
        chunked, blocks, (asked, before, state) = chunked_run(name, CHUNK, monkeypatch)
        whole, whole_blocks, (whole_asked, _, whole_state) = chunked_run(name, CHUNKED_STEPS,
                                                                         monkeypatch)
        assert blocks == [CHUNK, CHUNK, CHUNK, TAIL]
        assert whole_blocks == [CHUNKED_STEPS]
        assert [t for t, _ in chunked.checkpoints] == [CHUNK, CHUNK + 1, CHUNKED_STEPS]
        for (t, got), (_, want) in zip(chunked.checkpoints, whole.checkpoints):
            assert got.tobytes() == want.tobytes(), t
        for attr in ("final_model", "averaged_model"):
            got = getattr(chunked, attr).coefficients
            assert got.tobytes() == getattr(whole, attr).coefficients.tobytes(), attr
        assert np.abs(chunked.final_model.coefficients).max() > 0
        # drawn a block at a time, the draws are those of one whole draw: the
        # same U, the same V (read through the thresholds), the same iterates,
        # and the caller's generator ends in the same state
        assert len(asked) == len(whole_asked) == (CHUNKED_STEPS if name == "least-squares-3"
                                                  else 0)
        for t, (got, want) in enumerate(zip(asked, whole_asked)):
            assert all(same_bits(x, y) for x, y in zip(got, want)), t
        assert state == whole_state
        if name == "least-squares-3":  # and those of drawing all of U, then all of V
            draw = np.random.default_rng()
            draw.bit_generator.state = before
            U = sample_sphere_batch(draw, 3, CHUNKED_STEPS)
            draw.uniform(0.0, 4.0, CHUNKED_STEPS)
            assert same_bits(np.array([u for u, _, _ in asked]), U)
            assert state == draw.bit_generator.state

    @pytest.mark.parametrize("indices", [np.arange(3), [0, 1, 2], [True, False, True]],
                             ids=["array", "list", "mask"])
    def test_an_index_array_is_refused_before_any_query(self, indices):
        X = np.random.default_rng(25).random((3, 1))
        oracle = QueryOracle.for_regression(np.sin(X[:, 0]), 3, "resampling")
        for run in (lambda: run_median_sgd(X, oracle, StepSchedule.decaying(0.3), zero_model(X),
                                           np.random.default_rng(0), indices=indices),
                    lambda: run_full_sgd(X, np.sin(X), StepSchedule.decaying(0.3),
                                         zero_model(X), indices=indices)):
            with pytest.raises(TypeError, match=f"None or a learner.Cycle, got {type(indices).__name__}"):
                run()
        assert oracle.budget_used == 0

    def test_a_cycle_over_another_row_count_is_refused_before_any_query(self):
        # one row more than X, the row the last step of a block would read
        X = np.random.default_rng(23).random((CHUNK + 10, 1))
        walk = learner.Cycle(CHUNK + 11, CHUNK + 11)
        oracle = QueryOracle.for_regression(np.sin(X[:, 0]), CHUNK + 11, "resampling")
        with pytest.raises(ValueError, match=f"Cycle over {CHUNK + 11} rows"):
            run_median_sgd(X, oracle, StepSchedule.decaying(0.3), zero_model(X[:4]),
                           np.random.default_rng(0), indices=walk)
        assert oracle.budget_used == 0
        with pytest.raises(ValueError, match=f"Cycle over {CHUNK + 11} rows"):
            run_full_sgd(X, np.sin(X), StepSchedule.decaying(0.3), zero_model(X[:4]),
                         indices=walk)

    @pytest.mark.parametrize("n,steps,error", [
        (1.0, 3, TypeError), (3, 2.5, TypeError), (True, 3, TypeError),
        (3, -1, ValueError), (-1, 3, ValueError), (0, 5, ValueError),
    ], ids=["1.0-3", "3-2.5", "True-3", "3--1", "-1-3", "0-5"])
    def test_a_cycle_walks_whole_steps_over_whole_rows(self, n, steps, error):
        with pytest.raises(error, match="Cycle (n|steps) must be|no row to walk"):
            learner.Cycle(n, steps)

    def test_an_empty_cycle_takes_no_step(self):
        X = np.random.default_rng(25).random((3, 1))
        oracle = QueryOracle.for_regression(np.sin(X[:, 0]), 3, "resampling")
        model = zero_model(X)
        report = run_median_sgd(X, oracle, StepSchedule.decaying(0.3), model,
                                np.random.default_rng(0), indices=learner.Cycle(3, 0))
        assert report.queries_used == oracle.budget_used == 0
        assert not model.coefficients.any()

    @staticmethod
    def train_peak(strategy, budget, m, rank):
        """Peak traced bytes of one ``train`` run resampled over 1000 rows, with
        ``m`` outputs (classes for the classification strategies) and ``rank``
        representers: inputs made before tracing."""
        rng = np.random.default_rng(24)
        n = 1000
        classify = strategy in ("coordinate-passive", "infimum-loss")
        X = rng.standard_normal((n, 2))
        labels = rng.integers(1, m + 1, n) if classify else np.sin(X[:, :1] + np.arange(m))
        model = KernelModel.zeros(nystrom_representers(X, rank, rng), m, KernelSpec(1.0))
        tracemalloc.start()
        try:
            report = train(strategy, X, labels, model, StepSchedule.decaying(0.3), rng, budget,
                           n_classes=m if classify else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.queries_used == (0 if strategy == "full-sgd" else budget)
        return peak

    @pytest.mark.parametrize("strategy,m", [
        ("active-median", 1), ("active-median", 10),
        ("active-least-squares", 1), ("active-least-squares", 10),
        ("full-sgd", 1), ("full-sgd", 10),
        ("passive", 1), ("coordinate-passive", 10), ("infimum-loss", 10),
    ])
    def test_train_memory_does_not_grow_with_the_budget(self, strategy, m):
        # 8 to 32 blocks of 512 steps; resampled, so nothing sized by the row
        # count grows with the budget. A run that drew every step's randomness,
        # step size and index up front grew by 194-2139 KiB here
        growth = self.train_peak(strategy, 2**14, m, 8) - self.train_peak(strategy, 2**12, m, 8)
        assert growth <= 16 * 1024

    @pytest.mark.parametrize("strategy,m", [
        ("active-median", 1), ("passive", 1), ("coordinate-passive", 10),
    ])
    def test_train_peak_is_far_below_the_whole_gram_block(self, strategy, m):
        # the whole 2^16 x 256 Gram block alone would be 134 MB
        assert self.train_peak(strategy, 2**16, m, 256) < 24e6


class TestOneBlockSize:
    """``kernel.CHUNK_ROWS`` is the package's one block size: set there alone,
    every blocked loop follows it, and no other module binds a copy."""

    def test_no_other_module_binds_it(self):
        for module in (learner, datasets, surrogate):
            assert "CHUNK_ROWS" not in vars(module), module.__name__

    def test_a_least_squares_run_follows_it_and_steps_as_the_reference(self, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_ROWS", 6)
        blocks = []

        def counted(spec, rows, reps, out=None, scratch=None):
            blocks.append(len(rows))
            return kernel_matrix(spec, rows, reps, out=out, scratch=scratch)

        monkeypatch.setattr(learner, "kernel_matrix", counted)
        rng = np.random.default_rng(31)
        X = rng.standard_normal((20, 2))
        Y = np.sin(X[:, :1] + np.arange(3)) + 0.3 * rng.standard_normal((20, 3))
        model = KernelModel.zeros(X[:5], 3, KernelSpec(1.0), ridge=1e-3)
        oracle, ref_oracle = (QueryOracle.for_regression(Y, 20, record_log=True)
                              for _ in range(2))
        sched, grid, ref_rng = StepSchedule.decaying(0.5), [5, 13, 20], copy.deepcopy(rng)
        # the reference's U, then V, are drawn in blocks of 6 too, and it builds
        # its kernel rows without the counted site
        last, mean, checkpoints = reference.run("least-squares", X, ref_oracle, sched, model,
                                                ref_rng, list(range(20)), grid, 0.5)
        report = run_least_squares_sgd(X, oracle, sched, model, rng, 0.5, checkpoint_grid=grid)
        assert blocks == [6, 6, 6, 2]
        assert same_bits(report.final_model.coefficients, last)
        assert np.abs(last).max() > 0
        assert close(report.averaged_model.coefficients, mean)
        for (t, got), (_, want) in zip(report.checkpoints, checkpoints, strict=True):
            assert close(got, want), t
        assert oracle.query_log == ref_oracle.query_log
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_the_anchored_generator_follows_it(self, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_ROWS", 6)
        calls = []
        law = datasets.anchor_conditional
        monkeypatch.setattr(datasets, "anchor_conditional",
                            lambda x, m: calls.append(np.size(x)) or law(x, m))
        blocked = datasets.gen_anchor_classification(13, 4, 0.05, np.random.default_rng(3))
        assert calls == [6, 6, 1]
        monkeypatch.setattr(kernel, "CHUNK_ROWS", 512)
        whole = datasets.gen_anchor_classification(13, 4, 0.05, np.random.default_rng(3))
        assert blocked.targets.tobytes() == whole.targets.tobytes()

    def test_the_class_set_draws_follow_it(self, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_ROWS", 6)

        class Counted:
            """A generator that records the row count of each integer draw."""

            def __init__(self, seed):
                self.rng, self.rows = np.random.default_rng(seed), []

            def integers(self, lo, hi, size):
                self.rows.append(size[0])
                return self.rng.integers(lo, hi, size)

        blocked = Counted(5)
        sets = surrogate.random_proper_subsets(blocked, 3, 20)
        assert blocked.rows[0] == 6 and max(blocked.rows) <= 6
        whole = np.random.default_rng(5)
        assert np.array_equal(sets, surrogate.random_proper_subsets(whole, 3, 20))
        assert blocked.rng.random() == whole.random()
