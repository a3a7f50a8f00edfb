"""Two-player zero-sum stochastic game model.

A game is a finite set of positions; at each position the two players pick
actions (row player maximizes, column player minimizes), a transition reward
is paid, and the play moves to the next position according to the transition
probabilities. Probabilities are kept as exact rationals so that the
granularity parameter is well defined; all iterative numerics run on cached
float views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Potential = np.ndarray


def to_fraction(value) -> Fraction:
    """Coerce a probability-like value to an exact Fraction.

    Strings may be "a/b" or decimal; floats are read through their shortest
    decimal repr (so 0.1 means 1/10, not the binary double).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a probability")
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"probability must be finite, got {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a probability")


@dataclass(frozen=True)
class GameSpec:
    """Immutable stochastic game.

    prob[v][k][l][u] is the exact transition probability from position v to u
    when the players pick actions (k, l); reward[v][k][l][u] is the transition
    reward. Entries with zero probability carry reward 0 by convention.
    """

    states: tuple[str, ...]
    row_actions: tuple[tuple[str, ...], ...]
    col_actions: tuple[tuple[str, ...], ...]
    prob: tuple  # nested tuples of Fraction, indexed [v][k][l][u]
    reward: tuple  # nested tuples of float, same indexing

    _p: tuple = field(init=False, compare=False, repr=False, default=())
    _r: tuple = field(init=False, compare=False, repr=False, default=())
    _expected: tuple = field(init=False, compare=False, repr=False, default=())

    def __post_init__(self):
        p_arrays, r_arrays, expected = [], [], []
        for v in range(len(self.states)):
            p = np.array(
                [[[float(q) for q in row_u] for row_u in row_l] for row_l in self.prob[v]],
                dtype=np.float64,
            )
            r = np.array(self.reward[v], dtype=np.float64)
            p.setflags(write=False)
            r.setflags(write=False)
            e = np.einsum("klu,klu->kl", p, r)
            e.setflags(write=False)
            p_arrays.append(p)
            r_arrays.append(r)
            expected.append(e)
        object.__setattr__(self, "_p", tuple(p_arrays))
        object.__setattr__(self, "_r", tuple(r_arrays))
        object.__setattr__(self, "_expected", tuple(expected))

    @property
    def n(self) -> int:
        return len(self.states)

    def num_row_actions(self, v: int) -> int:
        return len(self.row_actions[v])

    def num_col_actions(self, v: int) -> int:
        return len(self.col_actions[v])

    def prob_array(self, v: int) -> np.ndarray:
        """Float view of the transition tensor at v, shape (|K|, |L|, n)."""
        return self._p[v]

    def reward_array(self, v: int) -> np.ndarray:
        return self._r[v]

    def expected_reward(self, v: int) -> np.ndarray:
        """One-step expected reward matrix at v: sum_u p*r, shape (|K|, |L|)."""
        return self._expected[v]

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None


@dataclass(frozen=True)
class GameParams:
    """Size and magnitude parameters of a normalized game."""

    n_states: int
    max_actions: int
    granularity: int  # every nonzero probability is >= 1/granularity
    reward_bound: float  # all rewards lie in [0, reward_bound]


@dataclass(frozen=True)
class LocalRewardMatrix:
    """Potential-adjusted one-shot reward matrix at a single position."""

    state: int
    entries: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def make_game(
    states: Sequence[str],
    row_actions: Sequence[Sequence[str]],
    col_actions: Sequence[Sequence[str]],
    transitions: Iterable[tuple],
) -> GameSpec:
    """Build a GameSpec from sparse transition records.

    Each record is (v, k, l, u, p, r) with states/actions given by name or
    index. Missing entries default to probability 0; records with p == 0 are
    dropped. Duplicate records for one (v, k, l, u) are rejected.
    """
    states = tuple(str(s) for s in states)
    row_actions = tuple(tuple(str(a) for a in acts) for acts in row_actions)
    col_actions = tuple(tuple(str(a) for a in acts) for acts in col_actions)
    if len(row_actions) != len(states) or len(col_actions) != len(states):
        raise ValueError("need one action set per state for each player")

    state_idx = {name: i for i, name in enumerate(states)}

    def _resolve(token, pool, what):
        if isinstance(token, int) and not isinstance(token, bool):
            if 0 <= token < len(pool):
                return token
            raise KeyError(f"{what} index {token} out of range")
        token = str(token)
        if what == "state":
            if token in state_idx:
                return state_idx[token]
            raise KeyError(f"unknown state {token!r}")
        try:
            return pool.index(token)
        except ValueError:
            raise KeyError(f"unknown {what} {token!r}") from None

    n = len(states)
    prob = [
        [[[Fraction(0)] * n for _ in col_actions[v]] for _ in row_actions[v]]
        for v in range(n)
    ]
    reward = [
        [[[0.0] * n for _ in col_actions[v]] for _ in row_actions[v]]
        for v in range(n)
    ]
    seen = set()
    for record in transitions:
        v_tok, k_tok, l_tok, u_tok, p_val, r_val = record
        v = _resolve(v_tok, states, "state")
        u = _resolve(u_tok, states, "state")
        k = _resolve(k_tok, row_actions[v], "row action")
        l = _resolve(l_tok, col_actions[v], "column action")
        p = to_fraction(p_val)
        if (v, k, l, u) in seen:
            raise ValueError(f"duplicate transition record for {(v, k, l, u)}")
        seen.add((v, k, l, u))
        if p == 0:
            continue
        prob[v][k][l][u] = p
        reward[v][k][l][u] = float(r_val)

    def _freeze(per_v):
        return tuple(tuple(tuple(row_u) for row_u in row_l) for row_l in per_v)

    return GameSpec(
        states=states,
        row_actions=row_actions,
        col_actions=col_actions,
        prob=tuple(_freeze(prob[v]) for v in range(n)),
        reward=tuple(_freeze(reward[v]) for v in range(n)),
    )


def validate(game: GameSpec) -> ValidationReport:
    """Check the structural invariants; every problem is reported, none raised."""
    problems = []
    for v, name in enumerate(game.states):
        if game.num_row_actions(v) == 0:
            problems.append(f"state {name!r}: row player has no actions")
        if game.num_col_actions(v) == 0:
            problems.append(f"state {name!r}: column player has no actions")
        for k in range(game.num_row_actions(v)):
            for l in range(game.num_col_actions(v)):
                total = Fraction(0)
                for u in range(game.n):
                    p = game.prob[v][k][l][u]
                    if p < 0 or p > 1:
                        problems.append(
                            f"probability out of range at ({name!r}, k={k}, l={l}, "
                            f"u={game.states[u]!r}): {p}"
                        )
                    total += p
                if total != 1:
                    problems.append(
                        f"non-stopping condition fails at ({name!r}, k={k}, l={l}): "
                        f"probabilities sum to {total}"
                    )
    return ValidationReport(problems=tuple(problems))


def _masked_rewards(game: GameSpec):
    """Yield (v, k, l, u, p, r) over entries with positive probability."""
    for v in range(game.n):
        for k in range(game.num_row_actions(v)):
            for l in range(game.num_col_actions(v)):
                for u in range(game.n):
                    p = game.prob[v][k][l][u]
                    if p > 0:
                        yield v, k, l, u, p, game.reward[v][k][l][u]


def normalize_rewards(game: GameSpec) -> tuple[GameSpec, float]:
    """Shift rewards so the smallest one is 0; returns (game, offset).

    Every mean payoff and local value of the shifted game exceeds the
    original by exactly the offset. Games already in [0, R] are returned
    unchanged with offset 0.
    """
    rewards = [r for *_ignored, r in _masked_rewards(game)]
    if not rewards:
        return game, 0.0
    offset = max(0.0, -min(rewards))
    if offset == 0.0:
        return game, 0.0
    new_reward = tuple(
        tuple(
            tuple(
                tuple(
                    game.reward[v][k][l][u] + offset if game.prob[v][k][l][u] > 0 else 0.0
                    for u in range(game.n)
                )
                for l in range(game.num_col_actions(v))
            )
            for k in range(game.num_row_actions(v))
        )
        for v in range(game.n)
    )
    shifted = GameSpec(
        states=game.states,
        row_actions=game.row_actions,
        col_actions=game.col_actions,
        prob=game.prob,
        reward=new_reward,
    )
    return shifted, offset


def game_params(game: GameSpec) -> GameParams:
    """Derive (n, N, W, R) from a normalized game."""
    n = game.n
    max_actions = max(
        max(game.num_row_actions(v), game.num_col_actions(v)) for v in range(n)
    )
    granularity = 1
    reward_bound = 0.0
    for _v, _k, _l, _u, p, r in _masked_rewards(game):
        # ceil(1/p) on exact rationals
        granularity = max(granularity, -((-p.denominator) // p.numerator))
        if r < 0:
            raise ValueError("game_params requires normalized (non-negative) rewards")
        reward_bound = max(reward_bound, r)
    return GameParams(
        n_states=n,
        max_actions=max_actions,
        granularity=granularity,
        reward_bound=reward_bound,
    )


def as_potential(x, n: int) -> Potential:
    """Coerce to a finite float vector of length n."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"potential must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("potential entries must be finite")
    return arr


def local_reward_matrix(game: GameSpec, v: int, x: Potential) -> LocalRewardMatrix:
    """Potential-adjusted reward matrix: entries sum_u p*(r + x[v] - x[u])."""
    x = as_potential(x, game.n)
    entries = game.expected_reward(v) + x[v] - game.prob_array(v) @ x
    return LocalRewardMatrix(state=v, entries=entries)


def apply_potential(game: GameSpec, x: Potential) -> GameSpec:
    """Transform every transition reward r -> r + x[v] - x[u].

    Mean payoffs of every stationary profile are unchanged by this transform.
    """
    x = as_potential(x, game.n)
    new_reward = tuple(
        tuple(
            tuple(
                tuple(
                    game.reward[v][k][l][u] + x[v] - x[u]
                    if game.prob[v][k][l][u] > 0
                    else 0.0
                    for u in range(game.n)
                )
                for l in range(game.num_col_actions(v))
            )
            for k in range(game.num_row_actions(v))
        )
        for v in range(game.n)
    )
    return GameSpec(
        states=game.states,
        row_actions=game.row_actions,
        col_actions=game.col_actions,
        prob=game.prob,
        reward=new_reward,
    )
