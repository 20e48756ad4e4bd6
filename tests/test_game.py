from itertools import combinations

import numpy as np
import pytest

from weaksgd import game as game_module
from weaksgd.game import (
    GameSolveError,
    MatrixGame,
    build_game,
    singleton_family,
    solve_game,
)


def support_enumeration_value(A, tol=1e-9):
    """Independent equilibrium oracle: enumerate equal-size support pairs,
    solve the indifference systems, and keep the first verified equilibrium.
    Exact for the small games used in these tests."""
    A = np.asarray(A, dtype=float)
    k, m = A.shape
    for size in range(1, min(k, m) + 1):
        for R in combinations(range(k), size):
            for C in combinations(range(m), size):
                # row strategy on R making the C-columns indifferent
                M = np.zeros((size + 1, size + 1))
                b = np.zeros(size + 1)
                for jj, j in enumerate(C):
                    M[jj, :size] = A[list(R), j]
                    M[jj, size] = -1.0
                M[size, :size] = 1.0
                b[size] = 1.0
                try:
                    sol = np.linalg.solve(M, b)
                except np.linalg.LinAlgError:
                    continue
                mu_R, value = sol[:size], sol[size]
                # column strategy on C making the R-rows indifferent
                N = np.zeros((size + 1, size + 1))
                d = np.zeros(size + 1)
                for ii, i in enumerate(R):
                    N[ii, :size] = A[i, list(C)]
                    N[ii, size] = -1.0
                N[size, :size] = 1.0
                d[size] = 1.0
                try:
                    sol2 = np.linalg.solve(N, d)
                except np.linalg.LinAlgError:
                    continue
                v_C, value2 = sol2[:size], sol2[size]
                if abs(value - value2) > 1e-7:
                    continue
                if (mu_R < -tol).any() or (v_C < -tol).any():
                    continue
                mu = np.zeros(k)
                mu[list(R)] = np.maximum(mu_R, 0.0)
                v = np.zeros(m)
                v[list(C)] = np.maximum(v_C, 0.0)
                # no profitable deviation for either player
                if ((A @ v) > value + 1e-8).any():
                    continue
                if ((mu @ A) < value - 1e-8).any():
                    continue
                return float(value)
    raise AssertionError("support enumeration found no equilibrium")


class TestBuildGame:
    def test_three_class_counterexample_matrix(self):
        game = build_game([0.4, 0.3, 0.3], singleton_family(3))
        expected = np.array([
            [0.2, -0.2, -0.2],
            [-0.4, 0.4, -0.4],
            [-0.4, -0.4, 0.4],
        ])
        assert np.allclose(game.payoff, expected, atol=1e-15)

    def test_half_mass_row_vanishes(self):
        game = build_game([0.5, 0.3, 0.2], [{1}, {2, 3}])
        assert np.allclose(game.payoff, 0.0, atol=1e-15)

    def test_certain_class_singleton_row(self):
        game = build_game([1.0, 0.0], [{1}])
        assert np.allclose(game.payoff, [[-1.0, 1.0]], atol=0)

    def test_trivial_sets_rejected(self):
        with pytest.raises(ValueError):
            build_game([0.5, 0.5], [{1, 2}])
        with pytest.raises(ValueError):
            build_game([0.5, 0.5], [set()])
        with pytest.raises(ValueError, match="query family must be nonempty"):
            build_game([0.5, 0.5], [])

    def test_distribution_validated(self):
        with pytest.raises(ValueError):
            build_game([0.5, 0.6], [{1}])
        with pytest.raises(ValueError):
            build_game([1.2, -0.2], [{1}])
        with pytest.raises(ValueError):
            build_game([0.5, 0.5], [{3}])
        with pytest.raises(ValueError):
            build_game([np.nan, 1.0], [{1}])
        with pytest.raises(ValueError, match="p must be a nonempty probability vector"):
            build_game([], [{1}])


class TestSolveGame:
    def test_matching_pennies(self):
        game = MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        sol = solve_game(game, tol=1e-9)
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.row_strategy, [0.5, 0.5], atol=1e-8)
        assert np.allclose(sol.col_strategy, [0.5, 0.5], atol=1e-8)

    def test_all_zero_matrix(self):
        game = MatrixGame(np.zeros((2, 3)))
        sol = solve_game(game)
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.duality_gap <= 1e-12

    def test_counterexample_value_and_strategies(self, monkeypatch):
        # one linear program solves both players
        import scipy.optimize

        calls = []
        linprog = scipy.optimize.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", counted)
        game = build_game([0.4, 0.3, 0.3], singleton_family(3))
        sol = solve_game(game, tol=1e-9)
        assert len(calls) == 1
        assert sol.value == pytest.approx(-0.1, abs=1e-9)
        assert np.abs(sol.row_strategy - [0.5, 0.25, 0.25]).max() <= 1e-9
        assert np.abs(sol.col_strategy - [0.25, 0.375, 0.375]).max() <= 1e-9

    def test_certain_class_game_value(self):
        sol = solve_game(build_game([1.0, 0.0], singleton_family(2)))
        assert sol.value == pytest.approx(-1.0, abs=1e-9)
        assert np.allclose(sol.col_strategy, [1.0, 0.0], atol=1e-8)

    def test_uniform_two_classes_value_zero(self):
        # every strategy of either player is optimal here
        sol = solve_game(build_game([0.5, 0.5], singleton_family(2)))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.row_strategy.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.col_strategy.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.duality_gap == 0.0

    def test_duality_gap_certificate(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            A = rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            sol = solve_game(MatrixGame(A), tol=1e-9)
            assert sol.duality_gap <= 2e-9

    def test_agrees_with_support_enumeration(self):
        rng = np.random.default_rng(123)
        for case in range(20):
            size = 2 if case < 10 else 3
            A = rng.integers(-4, 5, size=(size, size)).astype(float)
            expected = support_enumeration_value(A)
            sol = solve_game(MatrixGame(A), tol=1e-9)
            assert sol.value == pytest.approx(expected, abs=1e-4)

    def test_low_noise_recovery(self):
        # dominant class with singletons available: the prediction player's
        # optimum is the point mass on the most likely class
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(3, 6))
            p = rng.random(m)
            top = int(rng.integers(0, m))
            p[top] += p.sum()  # guarantees p[top] > 1/2 after normalizing
            p /= p.sum()
            assert p[top] > 0.5
            family = singleton_family(m)
            for _ in range(10):
                bits = rng.integers(0, 2, m)
                if 0 < bits.sum() < m:
                    family.append(frozenset(int(j) + 1 for j in np.flatnonzero(bits)))
            sol = solve_game(build_game(p, family), tol=1e-9)
            target = np.zeros(m)
            target[top] = 1.0
            assert np.abs(sol.col_strategy - target).max() <= 1e-5, (p, sol.col_strategy)

    def test_iteration_cap_raises_diagnostic(self, monkeypatch):
        monkeypatch.setattr(game_module, "LP_ITERATIONS", 1)
        game = build_game([0.4, 0.3, 0.3], singleton_family(3))
        with pytest.raises(GameSolveError):
            solve_game(game)

    def test_missed_certificate_names_the_gap(self):
        # the LP solves, but its duality gap is above a certificate of 2e-300
        game = build_game([0.4, 0.3, 0.3], singleton_family(3))
        with pytest.raises(GameSolveError, match=r"duality gap \S+ exceeds certificate"):
            solve_game(game, tol=1e-300)

    def test_validation(self):
        game = MatrixGame(np.zeros((1, 1)))
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol"):
                solve_game(game, tol=tol)
        with pytest.raises(ValueError):
            MatrixGame(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="payoff must be a nonempty 2-D matrix"):
            MatrixGame(np.zeros((0, 2)))
