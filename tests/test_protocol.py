"""Property tests of the query protocol as the drivers and the oracle see it:
the budget is spent exactly, streaming order holds, and a failed query never
touches the ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaksgd.kernel import KernelModel, KernelSpec
from weaksgd.learner import (
    StepSchedule,
    run_least_squares_sgd,
    run_median_sgd,
    run_passive_median,
)
from weaksgd.oracle import BudgetExhausted, QueryOracle, StreamingViolation, TrivialSetError
from weaksgd.surrogate import infimum_loss_sgd

CLASSES = 4

# driver name -> (runs on a classification oracle, call)
DRIVERS = {
    "median": (False, lambda X, o, s, mdl, rng, idx: run_median_sgd(
        X, o, s, mdl, rng, indices=idx)),
    "least-squares": (False, lambda X, o, s, mdl, rng, idx: run_least_squares_sgd(
        X, o, s, mdl, rng, 1.0, indices=idx)),
    "passive": (False, lambda X, o, s, mdl, rng, idx: run_passive_median(
        X, o, s, mdl, rng, indices=idx)),
    "active-classification": (True, lambda X, o, s, mdl, rng, idx: run_median_sgd(
        X, o, s, mdl, rng, indices=idx, direction="sphere")),
    "coordinate-passive": (True, lambda X, o, s, mdl, rng, idx: run_median_sgd(
        X, o, s, mdl, rng, indices=idx, direction="coordinate")),
    "infimum-loss": (True, lambda X, o, s, mdl, rng, idx: infimum_loss_sgd(
        X, o, s, mdl, rng, indices=idx)),
}


def _setup(name, n, budget, mode, seed, record_log=False):
    classify, run = DRIVERS[name]
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    if classify:
        oracle = QueryOracle.for_classification(rng.integers(1, CLASSES + 1, n), CLASSES,
                                                budget, mode, record_log)
        m = CLASSES
    else:
        oracle = QueryOracle.for_regression(np.sin(6 * X[:, 0]), budget, mode, record_log)
        m = 1
    model = KernelModel.zeros(X[: min(n, 5)], m, KernelSpec(0.3), ridge=1e-3)
    return run, X, oracle, model, rng


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(DRIVERS)), n=st.integers(1, 12),
       budget=st.integers(0, 30), resampling=st.booleans(),
       walk=st.integers(0, 30), seed=st.integers(0, 2**16))
def test_driver_spends_exactly_min_budget_steps(name, n, budget, resampling, walk, seed):
    mode = "resampling" if resampling else "streaming"
    run, X, oracle, model, rng = _setup(name, n, budget, mode, seed)
    # resampling walks the rows cyclically for ``walk`` steps; streaming walks them once
    indices = np.arange(walk) % n if resampling else None
    steps = walk if resampling else n
    report = run(X, oracle, StepSchedule.decaying(0.5), model, rng, indices)
    assert report.queries_used == oracle.budget_used == min(budget, steps)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(DRIVERS)), n=st.integers(1, 12),
       budget=st.integers(0, 20), seed=st.integers(0, 2**16))
def test_streaming_log_lists_samples_in_arrival_order(name, n, budget, seed):
    run, X, oracle, model, rng = _setup(name, n, budget, "streaming", seed, record_log=True)
    run(X, oracle, StepSchedule.decaying(0.5), model, rng, None)
    k = min(budget, n)
    assert [(t, i) for t, i, _, _ in oracle.query_log] == [(t + 1, t) for t in range(k)]
    assert {cost for *_, cost in oracle.query_log} <= {1}


def _regression(budget, mode):
    labels = np.array([[1.0, 0.0], [0.5, 0.5], [-1.0, 2.0]])
    return QueryOracle.for_regression(labels, budget, mode, record_log=True)


def _classification(budget, mode):
    return QueryOracle.for_classification([2, 1, 3], 3, budget, mode, record_log=True)


# failure -> (oracle factory, mode, the failing call, expected exception)
FAILURES = {
    "exhausted-budget": (_regression, "resampling",
                         lambda o: o.halfspace_query(0, [0.0, 0.0], [1.0, 0.0]),
                         BudgetExhausted),
    "index-below-range": (_regression, "resampling",
                          lambda o: o.threshold_query(-1, [1.0, 0.0], 0.0), ValueError),
    "index-above-range": (_classification, "resampling",
                          lambda o: o.membership_query(3, {1}), ValueError),
    "streaming-violation": (_regression, "streaming",
                            lambda o: o.threshold_query((o.budget_used + 1) % 3,
                                                        [1.0, 0.0], 0.0),
                            StreamingViolation),
    "halfspace-wrong-dimension": (_regression, "resampling",
                                  lambda o: o.halfspace_query(0, [0.0], [1.0, 0.0]),
                                  ValueError),
    "threshold-wrong-dimension": (_regression, "resampling",
                                  lambda o: o.threshold_query(0, [1.0, 0.0, 0.0], 0.0),
                                  ValueError),
    "empty-set": (_classification, "resampling",
                  lambda o: o.membership_query(0, set()), TrivialSetError),
    "full-set": (_classification, "resampling",
                 lambda o: o.membership_query(0, {1, 2, 3}), TrivialSetError),
    "class-out-of-range": (_classification, "resampling",
                           lambda o: o.membership_query(0, {1, 4}), ValueError),
    "membership-on-regression": (_regression, "resampling",
                                 lambda o: o.membership_query(0, {1}), ValueError),
}


@settings(max_examples=80, deadline=None)
@given(failure=st.sampled_from(sorted(FAILURES)), spent=st.integers(0, 3),
       slack=st.integers(0, 3))
def test_failed_query_leaves_the_ledger_unchanged(failure, spent, slack):
    make, mode, call, error = FAILURES[failure]
    budget = spent if failure == "exhausted-budget" else spent + 1 + slack
    oracle = make(budget, mode)
    for t in range(spent):  # a few good queries first, in streaming order
        oracle.threshold_query(t, np.eye(oracle.label_dim)[0], 0.5)
    used, log = oracle.budget_used, list(oracle.query_log)
    with pytest.raises(error):
        call(oracle)
    assert oracle.budget_used == used == spent
    assert oracle.query_log == log
