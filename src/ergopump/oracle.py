"""Small-instance ground truth: enumeration bounds and trajectory simulation.

The enumeration bounds cover PURE stationary strategies only. For zero-sum
stochastic games that yields valid per-state value intervals, not exact
values: the game value from v always lies in [lo[v], hi[v]], but either end
may be strict when optimal play needs mixing.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .game import GameSpec
from .markov import StationaryProfile, best_response_value, induced_chain, profile_step_reward

DEFAULT_BUDGET = 10_000


class OracleBudgetError(RuntimeError):
    pass


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
    chain = induced_chain(game, profile)
    cumulative = np.cumsum(chain / chain.sum(axis=1, keepdims=True), axis=1).tolist()
    total = 0.0
    v = int(start)
    for draw in rng.random(steps).tolist():
        total += step_reward[v]
        v = bisect.bisect_left(cumulative[v], draw)
    return total / steps


def enumerate_pure_bounds(game: GameSpec, budget: int = DEFAULT_BUDGET) -> OracleReport:
    """Per-state value intervals from exhaustive pure stationary enumeration.

    lo[v]: the best mean payoff the row player can guarantee from v with a
    pure stationary strategy; hi[v]: the symmetric column-player bound.
    Always lo <= hi; the game value from v lies in [lo[v], hi[v]]. Raises
    OracleBudgetError when the two players have more than `budget` pure
    stationary strategies between them.
    """
    row_counts = [game.num_row_actions(v) for v in range(game.n)]
    col_counts = [game.num_col_actions(v) for v in range(game.n)]
    total = int(np.prod(row_counts)) + int(np.prod(col_counts))
    if total > budget:
        raise OracleBudgetError(
            f"instance too large for oracle: {total} pure profiles exceeds budget {budget}"
        )

    lo = np.full(game.n, -np.inf)
    lo_arg = [None] * game.n
    for choice in itertools.product(*[range(c) for c in row_counts]):
        fixed = tuple(np.eye(c)[k] for c, k in zip(row_counts, choice))
        gain, _ = best_response_value(game, fixed, "row")
        for v in range(game.n):
            if gain[v] > lo[v]:
                lo[v] = gain[v]
                lo_arg[v] = choice
    hi = np.full(game.n, np.inf)
    hi_arg = [None] * game.n
    for choice in itertools.product(*[range(c) for c in col_counts]):
        fixed = tuple(np.eye(c)[k] for c, k in zip(col_counts, choice))
        gain, _ = best_response_value(game, fixed, "col")
        for v in range(game.n):
            if gain[v] < hi[v]:
                hi[v] = gain[v]
                hi_arg[v] = choice
    return OracleReport(lo=lo, hi=hi, lo_profiles=tuple(lo_arg), hi_profiles=tuple(hi_arg),
                        enumerated=total)
