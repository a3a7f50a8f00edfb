"""Markov chain limits, profile evaluation, best responses, brute force."""

import itertools

import numpy as np
import pytest

from builders import big_match, disconnected, matrix_as_game, one_state, random_dense_game, two_cycle
from ergopump.game import apply_potential
from ergopump.markov import (
    best_response_value,
    evaluate_stationary_pair,
    induced_chain,
    limiting_matrix,
    make_profile,
    pure_profile,
    uniform_profile,
)
from ergopump.oracle import OracleBudgetError, enumerate_pure_bounds


def random_stochastic(rng, n, sparse=False):
    if sparse:
        # permutation-heavy chains exercise periodic classes
        P = np.zeros((n, n))
        perm = rng.permutation(n)
        for i in range(n):
            P[i, perm[i]] = 1.0
        mix = rng.uniform(0, 0.3)
        P = (1 - mix) * P + mix * rng.dirichlet(np.ones(n), size=n)
        return P
    return rng.dirichlet(np.ones(n), size=n)


class TestInducedChain:
    def test_pure_deterministic_is_01(self):
        g = two_cycle()
        P = induced_chain(g, pure_profile(g, [0, 0], [0, 0]))
        assert np.array_equal(P, [[0.0, 1.0], [1.0, 0.0]])

    def test_uniform_mix_averages(self):
        # 2x2 actions, each pair goes to a distinct deterministic successor
        from ergopump.game import make_game
        g = make_game(
            ["s", "t", "u", "v"],
            [["a", "b"], ["a"], ["a"], ["a"]],
            [["x", "y"], ["x"], ["x"], ["x"]],
            [("s", "a", "x", "s", 1, 0.0), ("s", "a", "y", "t", 1, 0.0),
             ("s", "b", "x", "u", 1, 0.0), ("s", "b", "y", "v", 1, 0.0),
             ("t", "a", "x", "t", 1, 0.0), ("u", "a", "x", "u", 1, 0.0),
             ("v", "a", "x", "v", 1, 0.0)],
        )
        P = induced_chain(g, uniform_profile(g))
        assert np.allclose(P[0], [0.25, 0.25, 0.25, 0.25])

    def test_single_state(self):
        g = one_state()
        assert induced_chain(g, uniform_profile(g)).tolist() == [[1.0]]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        g = random_dense_game(rng, n=4)
        P = induced_chain(g, uniform_profile(g))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


class TestLimitingMatrix:
    def test_identity(self):
        assert np.allclose(limiting_matrix(np.eye(3)), np.eye(3))

    def test_two_cycle_cesaro(self):
        q = limiting_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(q, 0.5)

    def test_transient_split(self):
        P = np.array([[0.0, 0.5, 0.5], [0, 1, 0], [0, 0, 1]])
        q = limiting_matrix(P)
        assert np.allclose(q[0], [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_identities(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            P = random_stochastic(rng, n, sparse=bool(trial % 2))
            q = limiting_matrix(P)
            assert np.abs(q @ P - q).max() < 1e-8
            assert np.abs(P @ q - q).max() < 1e-8
            assert np.abs(q @ q - q).max() < 1e-8
            assert np.allclose(q.sum(axis=1), 1.0, atol=1e-8)

    def test_power_iteration_cross_check(self):
        # Cesaro averages of P^t converge to the limiting matrix
        rng = np.random.default_rng(42)
        P = random_stochastic(rng, 4)
        q = limiting_matrix(P)
        acc = np.zeros_like(P)
        power = np.eye(4)
        steps = 4000
        for _ in range(steps):
            acc += power
            power = power @ P
        assert np.abs(acc / steps - q).max() < 1e-2


class TestEvaluate:
    def test_two_cycle_mean(self):
        g = two_cycle(0.0, 4.0)
        ev = evaluate_stationary_pair(g, uniform_profile(g))
        assert np.allclose(ev.gain, [2.0, 2.0])

    def test_absorbing_constant(self):
        g = one_state(3.25)
        assert evaluate_stationary_pair(g, uniform_profile(g)).gain[0] == pytest.approx(3.25)

    def test_reward_shift_moves_gain(self):
        rng = np.random.default_rng(1)
        g = random_dense_game(rng, n=3)
        shifted = matrix_shift(g, 2.5)
        profile = uniform_profile(g)
        before = evaluate_stationary_pair(g, profile).gain
        after = evaluate_stationary_pair(shifted, profile).gain
        assert np.allclose(after, before + 2.5, atol=1e-10)

    def test_potential_invariance_large_x(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = random_dense_game(rng, n=4)
            profile = uniform_profile(g)
            x = rng.uniform(-1e3, 1e3, size=4)
            before = evaluate_stationary_pair(g, profile).gain
            after = evaluate_stationary_pair(apply_potential(g, x), profile).gain
            assert np.abs(before - after).max() < 1e-8


def matrix_shift(game, c):
    """Rebuild the game with every (present) reward shifted by c."""
    from ergopump.game import make_game
    records = [(v, k, l, u, p, r + c)
               for v, recs in enumerate(game.transitions) for k, l, u, p, r in recs]
    return make_game(game.states, game.row_actions, game.col_actions, records)


class TestBestResponse:
    def test_single_state_reduces_to_row_max(self):
        g = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
        beta = (np.array([0.5, 0.5]),)
        gain, policy = best_response_value(g, beta, "col")
        # maximizer picks the best row against the mixed column
        assert gain[0] == pytest.approx(2.0)
        assert policy == (0,)

    @pytest.mark.parametrize("beta", [(np.array([1.0]),), (np.ones(2) / 2, np.ones(2) / 2)])
    def test_strategy_of_the_wrong_shape_rejected(self, beta):
        g = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="action sets"):
            best_response_value(g, beta, "col")

    def test_identical_rows_make_optimizer_indifferent(self):
        g = matrix_as_game([[1.0, 2.0], [1.0, 2.0]])
        beta = (np.array([0.5, 0.5]),)
        gain, _ = best_response_value(g, beta, "col")
        assert gain[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = random_dense_game(rng, n=2, max_actions=2)
        beta = tuple(rng.dirichlet(np.ones(g.num_col_actions(v))) for v in range(2))
        gain, _ = best_response_value(g, beta, "col")
        best = np.full(2, -np.inf)
        for rows in itertools.product(*[range(g.num_row_actions(v)) for v in range(2)]):
            alpha = tuple(np.eye(g.num_row_actions(v))[rows[v]] for v in range(2))
            ev = evaluate_stationary_pair(g, make_profile(g, alpha, beta))
            best = np.maximum(best, ev.gain)
        assert np.allclose(gain, best, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_fixed_profiles(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_dense_game(rng, n=3, max_actions=2)
        profile = uniform_profile(g)
        fixed_gain = evaluate_stationary_pair(g, profile).gain
        gain, _ = best_response_value(g, profile.beta, "col")
        assert np.all(gain >= fixed_gain - 1e-9)
        gain_min, _ = best_response_value(g, profile.alpha, "row")
        assert np.all(gain_min <= fixed_gain + 1e-9)


class TestBruteForce:
    def test_pure_saddle_matrix(self):
        bounds = enumerate_pure_bounds(matrix_as_game([[1.0, 0.0], [0.0, 0.0]]))
        assert bounds.lo[0] == pytest.approx(0.0)
        assert bounds.hi[0] == pytest.approx(0.0)

    def test_mixed_matrix_keeps_value_inside(self):
        bounds = enumerate_pure_bounds(matrix_as_game([[1.0, -1.0], [-1.0, 1.0]]))
        assert bounds.lo[0] <= 0.0 <= bounds.hi[0]
        assert bounds.lo[0] < bounds.hi[0]

    def test_disconnected(self):
        bounds = enumerate_pure_bounds(disconnected(0.0, 10.0))
        assert np.allclose(bounds.lo, [0.0, 10.0])
        assert np.allclose(bounds.hi, [0.0, 10.0])

    def test_big_match_gap(self):
        bounds = enumerate_pure_bounds(big_match())
        lo, hi = bounds.lo, bounds.hi
        live = 0
        assert lo[live] < hi[live]
        assert lo[1] == hi[1] == pytest.approx(1.0)
        assert lo[2] == hi[2] == pytest.approx(0.0)

    def test_budget_enforced(self):
        rng = np.random.default_rng(0)
        g = random_dense_game(rng, n=3, max_actions=3)
        with pytest.raises(OracleBudgetError):
            enumerate_pure_bounds(g, budget=2)
