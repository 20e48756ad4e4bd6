import numpy as np
import pytest

from weaksgd import surrogate
from weaksgd.experiments import train
from weaksgd.kernel import CHUNK_ROWS, KernelModel, KernelSpec
from weaksgd.learner import StepSchedule, run_median_sgd
from weaksgd.oracle import QueryOracle
from weaksgd.surrogate import (
    decode_batch,
    infimum_loss_sgd,
    random_proper_subsets,
    surrogate_target_check,
)


class TestEncodeDecode:
    def test_decode_middle_class(self):
        assert decode_batch([[0.2, 0.5, 0.3]])[0] == 2

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_decode_inverts_encode(self, m):
        for y in range(1, m + 1):
            assert decode_batch(np.eye(m)[[y - 1]])[0] == y

    def test_tie_goes_to_lowest_index(self):
        assert decode_batch([[0.5, 0.5]])[0] == 1
        assert decode_batch([[0.1, 0.4, 0.4]])[0] == 2

    def test_two_class_margin_flip(self):
        assert decode_batch([[0.6, 0.4]])[0] == 1
        assert decode_batch([[0.4, 0.6]])[0] == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decode_batch(np.empty((1, 0)))

    def test_decode_batch(self):
        G = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0]])
        assert decode_batch(G).tolist() == [2, 1]


def classification_setup(classes, m, budget, bandwidth=0.5):
    X = np.linspace(0.0, 1.0, len(classes))[:, None]
    oracle = QueryOracle.for_classification(classes, m, budget=budget, mode="streaming")
    model = KernelModel.zeros(X.copy(), m, KernelSpec(bandwidth))
    return X, oracle, model


class TestActiveAndCoordinate:
    def test_zero_budget_decodes_class_one_everywhere(self):
        X, oracle, model = classification_setup([2, 3], 3, budget=0)
        report = run_median_sgd(X, oracle, StepSchedule.decaying(1.0), model,
                                np.random.default_rng(0), direction="sphere")
        preds = decode_batch(report.averaged_model.predict_batch(X))
        assert preds.tolist() == [1, 1]

    def test_budgets_match_between_strategies(self):
        for strategy in ("active-median", "coordinate-passive"):
            X, _, model = classification_setup([1, 2, 3, 1, 2], 3, budget=5)
            report = train(strategy, X, [1, 2, 3, 1, 2], model, StepSchedule.decaying(0.5),
                           np.random.default_rng(1), 5, n_classes=3)
            assert report.queries_used == 5

    def test_coordinate_direction_expectation(self):
        # under coordinate-uniform U the reconstruction mean is sign(z)/m
        rng = np.random.default_rng(2)
        z = np.array([0.7, -0.2, 0.1, -0.9])
        m = z.size
        n = 10**6
        picks = rng.integers(0, m, n)
        U = np.eye(m)[picks]
        eps = np.where(U @ z >= 0.0, 1.0, -1.0)
        vals = U * eps[:, None]
        mean, se = vals.mean(axis=0), vals.std(axis=0) / np.sqrt(n)
        assert (np.abs(mean - np.sign(z) / m) <= 4 * se + 1e-12).all()

    def test_coordinate_strategy_queries_one_class_per_bit(self):
        # with U = e_y the sign answer equals 1{Y = y} recoded to +/-1 when the
        # current scores sit strictly inside (0, 1)
        X, oracle, model = classification_setup([2], 3, budget=1)
        model.coefficients[:] = 0.2  # g(x) = 0.2 per class at the training point
        rng = np.random.default_rng(5)
        report = run_median_sgd(X, oracle, StepSchedule.decaying(0.1), model, rng,
                                direction="coordinate")
        # replicate the coordinate draw
        pick = int(np.random.default_rng(5).integers(0, 3, 1)[0])
        moved = report.final_model.coefficients[0] - 0.2 * np.ones(3) * (1 - 0.1 * 0.0)
        # the update direction is +e_pick when pick is the true class, else -e_pick
        expected_sign = 1.0 if (pick + 1) == 2 else -1.0
        assert np.sign(moved[pick]) == expected_sign


class TestExponentialRegime:
    def test_margin_task_decodes_best_class_on_most_seeds(self):
        # with a margin around the band edges the decoded classifier matches
        # the best class on the whole support well within the budget
        from weaksgd.datasets import gen_anchor_classification
        from weaksgd.evaluation import anchor_law, anchor_points, excess_zero_one_anchor
        from weaksgd.kernel import nystrom_representers

        perfect = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            T, m = 2**14, 10
            data = gen_anchor_classification(T, m, 0.05, rng)
            reps = nystrom_representers(data.features, 64, rng)
            model = KernelModel.zeros(reps, m, KernelSpec(0.05))
            report = train("active-median", data.features, data.targets, model,
                           StepSchedule.decaying(2.0), rng, T, n_classes=m)
            perfect += excess_zero_one_anchor(report.averaged_model, anchor_points(0.05, 512),
                                              anchor_law(m, 0.05, 512)) == 0.0
        assert perfect >= 3


@pytest.fixture
def set_two_three(monkeypatch):
    """Every class set the infimum-loss driver draws is {2, 3}."""
    monkeypatch.setattr(surrogate, "random_proper_subsets",
                        lambda rng, m, count: np.tile([False, True, True], (count, 1)))


class TestInfimumLoss:
    def test_worked_example_positive_answer(self, set_two_three):
        # g = (0.6, 0.3, 0.1), S = {2, 3}, bit 1 -> y* = 2, step along -(g - e2)/||g - e2||
        X = np.array([[0.0]])
        oracle = QueryOracle.for_classification([2], 3, budget=1)
        model = KernelModel.zeros(X.copy(), 3, KernelSpec(0.5))
        model.coefficients[0] = [0.6, 0.3, 0.1]
        sched = StepSchedule.decaying(0.2)
        report = infimum_loss_sgd(X, oracle, sched, model, np.random.default_rng(0))
        g = np.array([0.6, 0.3, 0.1])
        r = g - np.array([0.0, 1.0, 0.0])
        expected = g - 0.2 * r / np.linalg.norm(r)
        assert np.allclose(report.final_model.coefficients[0], expected, atol=1e-14)

    def test_negative_answer_uses_complement(self, set_two_three):
        # true class 1, S = {2, 3} -> bit 0 -> candidates {1} -> y* = 1
        X = np.array([[0.0]])
        oracle = QueryOracle.for_classification([1], 3, budget=1)
        model = KernelModel.zeros(X.copy(), 3, KernelSpec(0.5))
        model.coefficients[0] = [0.6, 0.3, 0.1]
        sched = StepSchedule.decaying(0.2)
        report = infimum_loss_sgd(X, oracle, sched, model, np.random.default_rng(0))
        g = np.array([0.6, 0.3, 0.1])
        r = g - np.array([1.0, 0.0, 0.0])
        expected = g - 0.2 * r / np.linalg.norm(r)
        assert np.allclose(report.final_model.coefficients[0], expected, atol=1e-14)

    def test_kink_is_no_op(self, set_two_three):
        # g(x) = e_2 and 2 in S: zero gradient, coefficients untouched
        X = np.array([[0.0]])
        oracle = QueryOracle.for_classification([2], 3, budget=1)
        model = KernelModel.zeros(X.copy(), 3, KernelSpec(0.5))
        model.coefficients[0] = [0.0, 1.0, 0.0]
        report = infimum_loss_sgd(X, oracle, StepSchedule.decaying(0.2), model,
                                  np.random.default_rng(0))
        assert np.allclose(report.final_model.coefficients[0], [0.0, 1.0, 0.0], atol=0)

    def test_proper_subset_never_trivial(self):
        m = 4
        sets = random_proper_subsets(np.random.default_rng(3), m, 10**5)
        assert sets.shape == (10**5, m) and sets.dtype == bool
        sizes = sets.sum(axis=1)
        assert ((0 < sizes) & (sizes < m)).all()

    def test_proper_subset_needs_two_classes(self):
        with pytest.raises(ValueError):
            random_proper_subsets(np.random.default_rng(0), 1, 4)

    @pytest.mark.parametrize("count", [0, CHUNK_ROWS + 700, 2048 + 700])
    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_batched_draw_reads_the_per_step_stream(self, m, count):
        # one rng.integers(0, 2, m) per set, redrawn until proper: the rule as it
        # read the generator inside the step loop; CHUNK_ROWS + 700 rows make the
        # batched draw fill its first block's rejects from a shortfall block
        for seed in range(4):
            rng = np.random.default_rng(seed)
            expected = np.empty((count, m), dtype=bool)
            for k in range(count):
                while True:
                    flips = rng.integers(0, 2, m)
                    if 0 < flips.sum() < m:
                        break
                expected[k] = flips == 1
            batched = np.random.default_rng(seed)
            assert np.array_equal(random_proper_subsets(batched, m, count), expected)
            assert batched.random() == rng.random()

    def test_zero_steps_leave_the_model_alone(self):
        X, oracle, model = classification_setup([1, 2], 3, budget=0)
        report = infimum_loss_sgd(X, oracle, StepSchedule.decaying(0.5), model,
                                  np.random.default_rng(4))
        assert report.queries_used == 0 == oracle.budget_used
        assert not report.averaged_model.coefficients.any()

    def test_one_class_fails_before_any_query(self):
        X, oracle, model = classification_setup([1, 1], 1, budget=2)
        with pytest.raises(ValueError, match="two classes"):
            infimum_loss_sgd(X, oracle, StepSchedule.decaying(0.5), model,
                             np.random.default_rng(4))
        assert oracle.budget_used == 0

    def test_budget_consumed_one_bit_per_step(self):
        X, oracle, model = classification_setup([1, 2, 3, 2], 3, budget=4)
        report = infimum_loss_sgd(X, oracle, StepSchedule.decaying(0.5), model,
                                  np.random.default_rng(4))
        assert report.queries_used == 4 == oracle.budget_used


class TestSurrogateTarget:
    def test_point_mass(self):
        report = surrogate_target_check([1.0, 0.0, 0.0], tol=1e-6)
        assert report.ok
        assert report.decoded == 1
        assert np.allclose(report.median, [1.0, 0.0, 0.0], atol=1e-6)

    def test_boundary_weights_pick_third_vertex(self):
        w = np.array([1.0, 1.0, 2.0 * np.cos(np.pi / 6.0)])
        report = surrogate_target_check(w / w.sum(), tol=1e-6)
        assert report.ok
        assert report.decoded == 3
        assert np.abs(report.median - np.array([0.0, 0.0, 1.0])).max() <= 1e-5

    def test_uniform_three_classes_is_symmetric(self):
        report = surrogate_target_check(np.ones(3) / 3.0, tol=1e-6)
        assert report.ok
        assert np.allclose(report.median, np.ones(3) / 3.0, atol=1e-6)
        assert report.top_classes == (1, 2, 3)

    def test_brute_force_consistency_small(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            m = int(rng.integers(2, 5))
            p = rng.random(m) + 1e-3
            p /= p.sum()
            report = surrogate_target_check(p, tol=1e-6)
            assert report.ok, (p, report)
            assert int(np.argmax(p)) + 1 in report.top_classes

    def test_validation(self):
        with pytest.raises(ValueError):
            surrogate_target_check([0.5, 0.6])
        with pytest.raises(ValueError):
            surrogate_target_check([1.2, -0.2])
        with pytest.raises(ValueError):
            surrogate_target_check([np.nan, 1.0])
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol"):
                surrogate_target_check([0.5, 0.3, 0.2], tol=tol)
