"""Small-instance ground truth: enumeration bounds and trajectory simulation.

Strategies are markov's: one flat array per player over its global actions.

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
from .markov import best_response_value, induced_chain, profile_step_reward, pure_strategy

DEFAULT_BUDGET = 10_000


class OracleBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleReport:
    lo: np.ndarray
    hi: np.ndarray
    lo_strategies: tuple  # per state, the row player's pure strategy attaining lo
    hi_strategies: tuple  # per state, the column player's attaining hi
    enumerated: int


def simulate_mean_payoff(game: GameSpec, alpha, beta, start: int, steps: int,
                         seed: int) -> float:
    """Empirical mean of the expected one-step payoffs along one trajectory
    that alpha and beta play from start."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rng = np.random.default_rng(seed)
    step_reward = profile_step_reward(game, alpha, beta).tolist()
    chain = induced_chain(game, alpha, beta)
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

    lo, hi = np.full(game.n, -np.inf), np.full(game.n, np.inf)
    lo_at, hi_at = [None] * game.n, [None] * game.n
    for bound, attained, player, counts, better in (
            (lo, lo_at, "row", row_counts, np.greater), (hi, hi_at, "col", col_counts, np.less)):
        for choice in itertools.product(*[range(c) for c in counts]):
            fixed = pure_strategy(game, player, choice)
            gain, _ = best_response_value(game, fixed, player)
            for v in better(gain, bound).nonzero()[0].tolist():
                bound[v], attained[v] = gain[v], fixed
    return OracleReport(lo=lo, hi=hi, lo_strategies=tuple(lo_at), hi_strategies=tuple(hi_at),
                        enumerated=total)
