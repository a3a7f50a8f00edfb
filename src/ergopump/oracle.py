"""Small-instance ground truth: enumeration bounds and trajectory simulation.

The enumeration bounds cover PURE stationary strategies only. For zero-sum
stochastic games that yields valid per-state value intervals, not exact
values: the game value from v always lies in [lo[v], hi[v]], but either end
may be strict when optimal play needs mixing.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .game import GameSpec
from .markov import StationaryProfile, brute_force_game_bounds, profile_step_reward

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class OracleReport:
    lo: np.ndarray
    hi: np.ndarray
    lo_profiles: tuple  # per state, the row profile attaining lo
    hi_profiles: tuple
    enumerated: int


def simulate_mean_payoff(game: GameSpec, profile: StationaryProfile, start: int,
                         steps: int, seed: int) -> float:
    """Empirical mean of the expected one-step payoffs along one trajectory."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    step_reward = profile_step_reward(game, profile).tolist()
    cumulative = []
    for v in range(game.n):
        row = np.einsum("k,klu,l->u", profile.alpha[v], game.prob_array(v),
                        profile.beta[v])
        cumulative.append(np.cumsum(row / row.sum()).tolist())
    total = 0.0
    v = int(start)
    for draw in rng.random(steps).tolist():
        total += step_reward[v]
        v = bisect.bisect_left(cumulative[v], draw)
    return total / steps


def enumerate_pure_bounds(game: GameSpec, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Per-state value intervals from exhaustive pure stationary enumeration."""
    row_total = int(np.prod([game.num_row_actions(v) for v in range(game.n)]))
    col_total = int(np.prod([game.num_col_actions(v) for v in range(game.n)]))
    lo, hi, lo_arg, hi_arg = brute_force_game_bounds(game, budget=budget)
    return OracleReport(
        lo=lo, hi=hi, lo_profiles=lo_arg, hi_profiles=hi_arg,
        enumerated=row_total + col_total,
    )
