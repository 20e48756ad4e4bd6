import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksgd.datasets import (
    LabeledDataset,
    anchor_conditional,
    gen_anchor_classification,
    gen_harmonic_regression,
    gen_sin_regression,
)
from weaksgd.evaluation import midpoint_grid
from weaksgd.experiments import train
from weaksgd.game import build_game
from weaksgd.geometry import (
    c1_constant,
    c2_constant,
    estimate_constant_mc,
    estimate_reconstruction_mc,
    sample_sphere_batch,
)
from weaksgd.kernel import KernelModel, KernelSpec, nystrom_representers
from weaksgd.learner import Cycle, StepSchedule, default_checkpoints, run_median_sgd
from weaksgd.oracle import (
    BudgetExhausted,
    QueryOracle,
    StreamingViolation,
    TrivialSetError,
)


def regression_oracle(budget=10, mode="resampling", **kw):
    labels = np.array([[1.0, 0.0], [0.5, 0.5], [-1.0, 2.0]])
    return QueryOracle.for_regression(labels, budget=budget, mode=mode, **kw)


class TestHalfspaceQuery:
    def test_basic_sign(self):
        orc = regression_oracle()
        assert orc.halfspace_query(0, [0.0, 0.0], [1.0, 0.0]) == 1

    def test_tie_rule_is_plus_one(self):
        orc = regression_oracle()
        # z equals the hidden label: <Y - z, u> = 0 resolves to +1
        assert orc.halfspace_query(0, [1.0, 0.0], [1.0, 0.0]) == 1

    def test_never_returns_zero(self):
        rng = np.random.default_rng(0)
        orc = regression_oracle(budget=50)
        answers = {orc.halfspace_query(int(rng.integers(0, 3)),
                                       rng.standard_normal(2),
                                       rng.standard_normal(2))
                   for _ in range(50)}
        assert answers <= {-1, 1}

    def test_dimension_mismatch(self):
        orc = regression_oracle()
        with pytest.raises(ValueError):
            orc.halfspace_query(0, [0.0], [1.0, 0.0])

    def test_classification_embedding_semantics(self):
        orc = QueryOracle.for_classification([2, 1], 3, budget=4, mode="resampling")
        # hidden label e_2: <e_2 - z, u> with z = 0, u = e_2 is +1
        assert orc.halfspace_query(0, np.zeros(3), [0.0, 1.0, 0.0]) == 1
        # u = e_1 projects the label to 0, z = (0.5, .., ..) pushes negative
        assert orc.halfspace_query(0, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1


finite = st.floats(allow_nan=False, allow_infinity=False)  # signed zeros included


class TestScalarLabels:
    """With one output the oracle reads <Y, u> as one product; its answers are
    those of the length-1 dots."""

    @settings(max_examples=300, deadline=None)
    @given(y=finite, data=st.data(), u=st.sampled_from([1.0, -1.0]), c=finite)
    def test_answers_match_the_dot_products(self, y, data, u, c):
        z = data.draw(st.one_of(st.just(y), st.just(-y), finite), label="z")  # ties too
        Y, z, u = np.array([y]), np.array([z]), np.array([u])
        orc = QueryOracle.for_regression([y], budget=2, mode="resampling")
        value = float(Y.dot(u)) - float(z.dot(u))
        assert orc.halfspace_query(0, z, u) == (1 if value >= 0.0 else -1)
        assert orc.threshold_query(0, u, c) == int(float(Y.dot(u)) < c)


class TestThresholdQuery:
    def test_below(self):
        orc = regression_oracle()
        assert orc.threshold_query(1, [1.0, 0.0], 1.0) == 1  # 0.5 < 1.0

    def test_boundary_is_strict(self):
        orc = regression_oracle()
        assert orc.threshold_query(1, [1.0, 0.0], 0.5) == 0  # 0.5 < 0.5 is false

    def test_costs_one_unit(self):
        orc = regression_oracle(budget=3)
        orc.threshold_query(0, [1.0, 0.0], 0.0)
        assert orc.budget_used == 1


class TestMembershipQuery:
    def setup_method(self):
        self.orc = QueryOracle.for_classification([2, 5, 1], 5, budget=10, mode="resampling")

    def test_inside(self):
        assert self.orc.membership_query(0, {2, 5}) == 1

    def test_outside(self):
        assert self.orc.membership_query(0, {1, 3}) == 0

    def test_full_set_rejected(self):
        with pytest.raises(TrivialSetError):
            self.orc.membership_query(0, {1, 2, 3, 4, 5})

    def test_empty_set_rejected(self):
        with pytest.raises(TrivialSetError):
            self.orc.membership_query(0, set())

    def test_rejected_set_costs_nothing(self):
        try:
            self.orc.membership_query(0, set())
        except TrivialSetError:
            pass
        assert self.orc.budget_used == 0

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            self.orc.membership_query(0, {0, 2})

    @pytest.mark.parametrize("S", [{1.5}, {"2"}, {2, 2.5}, ["1", 3]],
                             ids=["fraction", "str", "fraction-beside-a-class", "str-in-list"])
    def test_class_ids_are_not_converted(self, S):
        # int() would read 1.5 as class 1 and "2" as class 2
        orc = QueryOracle.for_classification([2, 5, 1], 5, budget=10, mode="resampling",
                                             record_log=True)
        orc.membership_query(1, {5})
        with pytest.raises(ValueError, match=r"classes in S must lie in 1\.\.5"):
            orc.membership_query(0, S)
        assert orc.budget_used == 1
        assert orc.query_log == [(1, 1, "membership", 1)]

    def test_ids_equal_to_a_class_name_it(self):
        assert self.orc.membership_query(0, {2.0}) == 1
        assert self.orc.membership_query(0, np.array([5, 1])) == 0
        assert self.orc.membership_query(1, [np.int64(5)]) == 1

    def test_regression_oracle_has_no_membership(self):
        orc = regression_oracle()
        with pytest.raises(ValueError):
            orc.membership_query(0, {1})


class TestBudgetLedger:
    def test_counts_every_success(self):
        orc = regression_oracle(budget=5)
        for q in range(5):
            orc.halfspace_query(q % 3, [0.0, 0.0], [1.0, 0.0])
            assert orc.budget_used == q + 1

    def test_exhaustion_raises_and_preserves_state(self):
        orc = regression_oracle(budget=2)
        orc.halfspace_query(0, [0.0, 0.0], [1.0, 0.0])
        orc.halfspace_query(1, [0.0, 0.0], [1.0, 0.0])
        for _ in range(3):
            with pytest.raises(BudgetExhausted):
                orc.halfspace_query(2, [0.0, 0.0], [1.0, 0.0])
        assert orc.budget_used == 2
        assert orc.budget_remaining == 0

    def test_zero_budget(self):
        orc = regression_oracle(budget=0)
        with pytest.raises(BudgetExhausted):
            orc.threshold_query(0, [1.0, 0.0], 0.0)

    @pytest.mark.parametrize("budget", [2.5, 2.0, np.float64(2.0), True, False,
                                        np.bool_(True), "2", None],
                             ids=["2.5", "2.0", "float64", "True", "False", "bool_", "str",
                                  "None"])
    def test_a_budget_that_is_not_an_integer_is_refused(self, budget):
        for make in (lambda: regression_oracle(budget=budget),
                     lambda: QueryOracle.for_classification([1, 2], 2, budget)):
            with pytest.raises(TypeError,
                               match=re.escape(f"budget must be an integer, got {budget!r}")):
                make()

    # None stands for one below the floor of each site's count
    @pytest.mark.parametrize("value,error", [
        (2.5, TypeError), (1.0, TypeError), (True, TypeError), (np.True_, TypeError),
        (None, ValueError),
    ], ids=["2.5", "1.0", "True", "np.True_", "below-floor"])
    def test_one_whole_number_rule_for_budgets_and_cycles(self, no_bits, value, error):
        # the same value is refused with the same exception type wherever a
        # whole number is asked for, and a driver refuses it before any bit
        rng = np.random.default_rng(0)
        X = rng.random((16, 1))
        spec = KernelSpec(0.3)
        model = KernelModel.zeros(X, 1, spec)
        sites = [  # (the floor of the count, the entry point given the count)
            (0, lambda v: Cycle(v, 3)),
            (0, lambda v: Cycle(3, v)),
            (0, lambda v: QueryOracle.for_regression(X[:, 0], v)),
            (0, lambda v: train("active-median", X, X[:, 0], model,
                                StepSchedule.decaying(0.5), rng, v)),
            (1, lambda v: QueryOracle.for_classification([1, 2], v, 2)),
            (1, lambda v: LabeledDataset(np.ones((2, 1)), [1, 1], n_classes=v)),
            (0, lambda v: KernelModel.zeros(X, v, spec)),
            (1, lambda v: nystrom_representers(X, v, rng)),
            (1, lambda v: c2_constant(v)),
            (1, lambda v: c1_constant(v, 1.0)),
            (1, lambda v: sample_sphere_batch(rng, v, 2)),
            (0, lambda v: sample_sphere_batch(rng, 2, v)),
            (1, lambda v: estimate_constant_mc(rng, v, "median", 1000)),
            (1000, lambda v: estimate_constant_mc(rng, 2, "median", v)),
            (1, lambda v: estimate_reconstruction_mc(rng, np.array([0.6, 0.8]), "median", v)),
            (0, lambda v: run_median_sgd(X, QueryOracle.for_regression(X[:, 0], 16),
                                         StepSchedule.decaying(0.5), model, rng,
                                         checkpoint_grid=[v, 16])),
            (0, lambda v: default_checkpoints(v)),
            (1, lambda v: midpoint_grid(v)),
            (1, lambda v: gen_sin_regression(v, rng)),
            (1, lambda v: gen_harmonic_regression(v, 2, rng)),
            (1, lambda v: gen_harmonic_regression(4, v, rng)),
            (1, lambda v: gen_anchor_classification(v, 3, 0.1, rng)),
            (0, lambda v: anchor_conditional(0.5, v)),
            (0, lambda v: build_game([0.5, 0.5], [{v}])),
        ]
        for least, make in sites:
            with pytest.raises(error, match=r"must be (an integer|>= \d+), got"):
                make(least - 1 if value is None else value)
        assert not model.coefficients.any()

    @pytest.mark.parametrize("budget", [3, np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_python_and_numpy_integers_are_budgets(self, budget):
        orc = regression_oracle(budget=budget)
        assert type(orc.budget_total) is int and orc.budget_total == 3
        for q in range(3):
            orc.threshold_query(q, [1.0, 0.0], 0.0)
        with pytest.raises(BudgetExhausted):
            orc.threshold_query(0, [1.0, 0.0], 0.0)


# the operand forms a query converts, each beside the flat float64 operand it
# stands for: values that every form holds exactly
OPERAND_FORMS = {
    "list": lambda v: v.tolist(),
    "int-dtype": lambda v: v.astype(np.int64),
    "float32": lambda v: v.astype(np.float32),
    "row": lambda v: v[None, :],
}


class TestOperandForms:
    """Operands that are not flat float64 arrays are converted: the answers,
    the ledger and the log are those of the flat float64 operands."""

    @staticmethod
    def oracles(classify, mode):
        if classify:
            return [QueryOracle.for_classification([2, 1, 3, 3, 1, 2] * 4, 3, 40, mode,
                                                   record_log=True) for _ in range(2)]
        labels = np.array([[1.0, 0.0, -2.0], [0.5, 0.5, 1.0], [-1.0, 2.0, 0.0],
                           [3.0, -1.0, 1.5], [0.0, 0.0, 0.0], [2.0, 1.0, -1.0]] * 4)
        return [QueryOracle.for_regression(labels, 40, mode, record_log=True)
                for _ in range(2)]

    @pytest.mark.parametrize("form", sorted(OPERAND_FORMS))
    @pytest.mark.parametrize("mode", ["streaming", "resampling"])
    @pytest.mark.parametrize("classify", [False, True], ids=["regression", "classes"])
    def test_same_answers_ledger_and_log(self, form, mode, classify):
        convert = OPERAND_FORMS[form]
        rng = np.random.default_rng(1)
        flat, other = self.oracles(classify, mode)
        answers = ([], [])
        for t in range(24):
            i = t if mode == "streaming" else int(rng.integers(0, 24))
            z, u = rng.integers(-3, 4, (2, 3)).astype(float)
            c = float(rng.integers(-3, 4))
            assert z.dtype == u.dtype == np.float64 and z.shape == u.shape == (3,)
            for orc, got, (zz, uu) in zip((flat, other), answers,
                                          ((z, u), (convert(z), convert(u)))):
                got.append(orc.halfspace_query(i, zz, uu) if t % 2
                           else orc.threshold_query(i, uu, c))
        assert answers[0] == answers[1]
        assert set(answers[0][1::2]) == {-1, 1} and set(answers[0][::2]) == {0, 1}
        assert other.budget_used == flat.budget_used == 24
        assert other.query_log == flat.query_log


# the forms of one element a one-output query converts, each beside the Python
# float it stands for; "int" takes only whole values, which it holds exactly
SCALAR_FORMS = {
    "array": lambda x: np.array([x]),
    "list": lambda x: [x],
    "int": int,
    "float64": np.float64,
    "row": lambda x: np.array([[x]]),
}


class TestScalarOperandForms:
    """With one real output the common operand is a Python float; any other
    form of one element is converted and read as that float: the answers,
    the ledger and the log are those of the floats, ties and signed zeros
    included."""

    @settings(max_examples=300, deadline=None)
    @given(form=st.sampled_from(sorted(SCALAR_FORMS)),
           mode=st.sampled_from(["streaming", "resampling"]), data=st.data())
    def test_same_answers_ledger_and_log(self, form, mode, data):
        convert = SCALAR_FORMS[form]
        values = st.integers(-3, 3).map(float) if form == "int" else finite
        labels = data.draw(st.lists(values, min_size=1, max_size=6), label="labels")
        n = len(labels)
        steps = n if mode == "streaming" else 2 * n
        flat, other = [QueryOracle.for_regression(labels, steps, mode, record_log=True)
                       for _ in range(2)]
        answers = ([], [])
        for t in range(steps):
            i = t if mode == "streaming" else data.draw(st.integers(0, n - 1), label="i")
            y = labels[i]
            u = data.draw(st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), values),
                          label="u")
            if form == "int":
                u = float(int(u))
            # ties of the label with z, or of <Y, u> with c, or free values
            z = data.draw(st.one_of(st.just(y), st.just(-y), values), label="z")
            c = data.draw(st.one_of(st.just(y * u), st.just(-y * u), finite), label="c")
            assert type(z) is type(u) is float
            halfspace = data.draw(st.booleans(), label="halfspace")
            for orc, got, (zz, uu) in zip((flat, other), answers,
                                          ((z, u), (convert(z), convert(u)))):
                got.append(orc.halfspace_query(i, zz, uu) if halfspace
                           else orc.threshold_query(i, uu, c))
        assert answers[0] == answers[1]
        assert other.budget_used == flat.budget_used == steps
        assert other.query_log == flat.query_log


class TestStreamingProtocol:
    def test_in_order_queries_pass(self):
        orc = regression_oracle(budget=3, mode="streaming")
        for i in range(3):
            orc.halfspace_query(i, [0.0, 0.0], [1.0, 0.0])

    def test_wrong_start_index(self):
        orc = regression_oracle(budget=3, mode="streaming")
        with pytest.raises(StreamingViolation):
            orc.halfspace_query(1, [0.0, 0.0], [1.0, 0.0])
        assert orc.budget_used == 0  # raised before answering

    def test_repeat_index_rejected(self):
        orc = regression_oracle(budget=3, mode="streaming")
        orc.threshold_query(0, [1.0, 0.0], 0.0)
        with pytest.raises(StreamingViolation):
            orc.threshold_query(0, [1.0, 0.0], 0.0)
        assert orc.budget_used == 1

    def test_resampling_allows_repeats(self):
        orc = regression_oracle(budget=4, mode="resampling")
        for _ in range(4):
            orc.threshold_query(1, [1.0, 0.0], 0.7)
        assert orc.budget_used == 4

    def test_log_records_sequence(self, tmp_path):
        orc = regression_oracle(budget=3, mode="streaming", record_log=True)
        orc.halfspace_query(0, [0.0, 0.0], [1.0, 0.0])
        orc.threshold_query(1, [1.0, 0.0], 0.0)
        orc.halfspace_query(2, [0.0, 0.0], [0.0, 1.0])
        assert [entry[1] for entry in orc.query_log] == [0, 1, 2]
        path = tmp_path / "log.csv"
        orc.export_query_log(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,index,kind,cost"
        assert lines[1] == "1,0,halfspace,1"
        assert lines[2] == "2,1,threshold,1"
        assert lines[3] == "3,2,halfspace,1"

    def test_log_disabled_by_default(self, tmp_path):
        orc = regression_oracle()
        with pytest.raises(ValueError):
            orc.export_query_log(tmp_path / "log.csv")


class TestDeterminism:
    def test_identical_state_identical_answer(self):
        args = (1, [0.2, -0.4], [0.6, 0.8])
        answers = set()
        for _ in range(5):
            orc = regression_oracle(budget=1)
            answers.add(orc.halfspace_query(*args))
        assert len(answers) == 1

    def test_index_out_of_range(self):
        orc = regression_oracle()
        with pytest.raises(ValueError):
            orc.halfspace_query(3, [0.0, 0.0], [1.0, 0.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            QueryOracle.for_regression(np.ones((2, 1)), budget=-1)
        with pytest.raises(ValueError):
            QueryOracle.for_regression(np.ones((2, 1)), budget=1, mode="batch")
        with pytest.raises(ValueError):
            QueryOracle.for_classification([0, 1], 2, budget=1)
        with pytest.raises(ValueError, match="targets must be a nonempty"):
            QueryOracle.for_regression(np.ones((0, 1)), budget=1)
        for classes in ([[1, 2]], []):
            with pytest.raises(ValueError, match="classes must be a nonempty 1-D array"):
                QueryOracle.for_classification(classes, 2, budget=1)
        with pytest.raises(ValueError, match="n_classes must be >= 1"):
            QueryOracle.for_classification([1], 0, budget=1)
