"""Simulation and enumeration oracles."""

import numpy as np
import pytest

from builders import big_match, disconnected, one_state, random_dense_game, two_cycle
from ergopump.markov import (
    best_response_value,
    evaluate_stationary_pair,
    pure_strategy,
    uniform_strategy,
)
from ergopump.oracle import OracleBudgetError, enumerate_pure_bounds, simulate_mean_payoff


def uniform(g):
    return uniform_strategy(g, "row"), uniform_strategy(g, "col")


class TestSimulate:
    def test_absorbing_state_exact(self):
        g = one_state(2.75)
        for steps in (1, 13, 500):
            assert simulate_mean_payoff(g, *uniform(g), 0, steps, seed=0) \
                == pytest.approx(2.75)

    def test_two_cycle_periodic_average(self):
        g = two_cycle(0.0, 4.0)
        for steps in (10, 101, 1000):
            est = simulate_mean_payoff(g, *uniform(g), 0, steps, seed=1)
            assert abs(est - 2.0) <= 2.0 / steps + 1e-12

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(0)
        g = random_dense_game(rng, n=3)
        a = simulate_mean_payoff(g, *uniform(g), 0, 200, seed=7)
        b = simulate_mean_payoff(g, *uniform(g), 0, 200, seed=7)
        assert a == b

    @pytest.mark.parametrize("game_seed", [3, 14])
    def test_three_sigma_consistency_with_evaluation(self, game_seed):
        rng = np.random.default_rng(game_seed)
        g = random_dense_game(rng, n=3, max_actions=2)
        rows = [int(rng.integers(0, g.num_row_actions(v))) for v in range(3)]
        cols = [int(rng.integers(0, g.num_col_actions(v))) for v in range(3)]
        alpha, beta = pure_strategy(g, "row", rows), pure_strategy(g, "col", cols)
        exact = evaluate_stationary_pair(g, alpha, beta)[0]
        estimates = np.array([
            simulate_mean_payoff(g, alpha, beta, 0, 4000, seed=s) for s in range(10)
        ])
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) <= 3 * se + 1e-3

    def test_rejects_zero_steps(self):
        g = one_state()
        with pytest.raises(ValueError):
            simulate_mean_payoff(g, *uniform(g), 0, 0, seed=0)


class TestEnumerate:
    def test_disconnected_intervals(self):
        report = enumerate_pure_bounds(disconnected(0.0, 10.0))
        assert np.allclose(report.lo, [0.0, 10.0])
        assert np.allclose(report.hi, [0.0, 10.0])
        assert report.enumerated == 2

    def test_big_match_strict_gap_at_live_state(self):
        g = big_match()
        report = enumerate_pure_bounds(g)
        assert report.lo[0] < report.hi[0]
        # each bound comes with a pure strategy, one flat unit array, that attains it
        for bound, strategies, player in ((report.lo, report.lo_strategies, "row"),
                                          (report.hi, report.hi_strategies, "col")):
            for v, fixed in enumerate(strategies):
                assert fixed.tolist().count(1.0) == g.n and fixed.sum() == g.n
                assert best_response_value(g, fixed, player)[0][v] == bound[v]

    def test_budget_error(self):
        rng = np.random.default_rng(5)
        g = random_dense_game(rng, n=3, max_actions=3)
        with pytest.raises(OracleBudgetError):
            enumerate_pure_bounds(g, budget=1)
