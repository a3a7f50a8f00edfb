"""Simulation and enumeration oracles."""

import numpy as np
import pytest

from builders import big_match, disconnected, one_state, random_dense_game, two_cycle
from ergopump.markov import evaluate_stationary_pair, pure_profile, uniform_profile
from ergopump.oracle import OracleBudgetError, enumerate_pure_bounds, simulate_mean_payoff


class TestSimulate:
    def test_absorbing_state_exact(self):
        g = one_state(2.75)
        for steps in (1, 13, 500):
            assert simulate_mean_payoff(g, uniform_profile(g), 0, steps, seed=0) \
                == pytest.approx(2.75)

    def test_two_cycle_periodic_average(self):
        g = two_cycle(0.0, 4.0)
        profile = uniform_profile(g)
        for steps in (10, 101, 1000):
            est = simulate_mean_payoff(g, profile, 0, steps, seed=1)
            assert abs(est - 2.0) <= 2.0 / steps + 1e-12

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(0)
        g = random_dense_game(rng, n=3)
        profile = uniform_profile(g)
        a = simulate_mean_payoff(g, profile, 0, 200, seed=7)
        b = simulate_mean_payoff(g, profile, 0, 200, seed=7)
        assert a == b

    @pytest.mark.parametrize("game_seed", [3, 14])
    def test_three_sigma_consistency_with_evaluation(self, game_seed):
        rng = np.random.default_rng(game_seed)
        g = random_dense_game(rng, n=3, max_actions=2)
        rows = [int(rng.integers(0, g.num_row_actions(v))) for v in range(3)]
        cols = [int(rng.integers(0, g.num_col_actions(v))) for v in range(3)]
        profile = pure_profile(g, rows, cols)
        exact = evaluate_stationary_pair(g, profile).gain[0]
        estimates = np.array([
            simulate_mean_payoff(g, profile, 0, 4000, seed=s) for s in range(10)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 3 * se + 1e-3

    def test_rejects_zero_steps(self):
        g = one_state()
        with pytest.raises(ValueError):
            simulate_mean_payoff(g, uniform_profile(g), 0, 0, seed=0)


class TestEnumerate:
    def test_disconnected_intervals(self):
        report = enumerate_pure_bounds(disconnected(0.0, 10.0))
        assert np.allclose(report.lo, [0.0, 10.0])
        assert np.allclose(report.hi, [0.0, 10.0])
        assert report.enumerated == 2

    def test_big_match_strict_gap_at_live_state(self):
        report = enumerate_pure_bounds(big_match())
        assert report.lo[0] < report.hi[0]
        assert report.lo_profiles[0] is not None

    def test_budget_error(self):
        rng = np.random.default_rng(5)
        g = random_dense_game(rng, n=3, max_actions=3)
        with pytest.raises(OracleBudgetError):
            enumerate_pure_bounds(g, budget=1)
