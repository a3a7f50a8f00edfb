"""Two-player zero-sum stochastic game model.

A game is a finite set of positions; at each position the two players pick
actions (row player maximizes, column player minimizes), a transition reward
is paid, and the play moves to the next position according to the transition
probabilities. Each transition is stored once, as a sparse record with an
exact rational probability, so the granularity parameter is well defined.
All float numerics read one flat view of the records (FlatView), and the
potential-adjusted local games of every state come from one mat-vec over it
(local_payoffs). The flat view also holds the game's constants, fixed when it
is built: the granularity W, from one pass over the distinct probabilities,
and the least and greatest reward, from the record table; game_params and
normalize_rewards read them instead of walking the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Potential = np.ndarray

MAX_REPORTED_ERRORS = 20


class DocumentError(ValueError):
    """An invalid game or document; problems lists up to 20 findings."""

    def __init__(self, problems):
        self.problems = tuple(problems)[:MAX_REPORTED_ERRORS]
        super().__init__("; ".join(self.problems))


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
class FlatView:
    """Read-only float view of a game's records, built once per GameSpec.

    A slot is one (v, k, l) action pair; state v owns the slots from
    first_slot[v] to first_slot[v + 1] in row-major (k, l) order, and its
    row and column actions are numbered from first_row[v] and first_col[v]
    (global rows and columns). row_start and col_order with col_start are the
    segment indices of per-row and per-column reductions over a per-slot
    array, as matrix_game's pure-saddle screen runs them. granularity is
    the largest ceil(1/p) over the records, exact on the rational p, and
    reward_low and reward_high are the least and greatest record reward.
    """

    slot_state: np.ndarray  # per slot: v
    slot_row: np.ndarray  # per slot: first_row[v] + k
    slot_col: np.ndarray  # per slot: first_col[v] + l
    slot_reward: np.ndarray  # per slot: sum_u p*r
    rec_slot: np.ndarray  # per record: its slot
    rec_state: np.ndarray  # per record: v, the state owning its slot
    rec_to: np.ndarray  # per record: the successor u
    rec_p: np.ndarray  # per record: float(p)
    first_slot: np.ndarray  # per state, plus the total at [n]
    first_row: np.ndarray  # per state, plus the total at [n]
    first_col: np.ndarray  # per state, plus the total at [n]
    row_count: np.ndarray  # per state: |K^v|
    col_count: np.ndarray  # per state: |L^v|
    row_start: np.ndarray  # per global row: its first slot (l = 0)
    col_order: np.ndarray  # slots grouped by global column, each column's by k
    col_start: np.ndarray  # per global column: its first position in col_order
    granularity: int  # W: every nonzero probability is >= 1/granularity
    reward_low: float
    reward_high: float

    def __setstate__(self, state):
        # a pickle restores the arrays writeable, e.g. in a solve worker
        _read_only(state)
        self.__dict__.update(state)


def _read_only(fields: dict):
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _flat_view(game) -> FlatView:
    rows = np.array([len(acts) for acts in game.row_actions], dtype=np.int64)
    cols = np.array([len(acts) for acts in game.col_actions], dtype=np.int64)
    first_slot, first_row, first_col = (np.concatenate(([0], np.cumsum(sizes)))
                                        for sizes in (rows * cols, rows, cols))
    slot_state = np.repeat(np.arange(game.n), rows * cols)
    row, col = np.divmod(np.arange(first_slot[-1]) - first_slot[slot_state], cols[slot_state])
    table = np.array([(v, k, l, u, float(p), r)
                      for v, records in enumerate(game.transitions)
                      for k, l, u, p, r in records], dtype=np.float64).reshape(-1, 6)
    v, k, l, u = table[:, :4].astype(np.int64).T
    rec_slot, rec_p = first_slot[v] + k * cols[v] + l, table[:, 4].copy()
    slot_col = first_col[slot_state] + col
    col_order = np.argsort(slot_col, kind="stable")
    # ceil(1/p) = ceil(b/a) for p = a/b in lowest terms; (a, b) pairs dedupe
    # far faster than Fractions, whose hash is computed in Python
    distinct = {(p.numerator, p.denominator) for records in game.transitions
                for _k, _l, _u, p, _r in records}
    view = FlatView(
        slot_state=slot_state, slot_row=first_row[slot_state] + row, slot_col=slot_col,
        slot_reward=np.bincount(rec_slot, weights=rec_p * table[:, 5], minlength=first_slot[-1]),
        rec_slot=rec_slot, rec_state=slot_state[rec_slot], rec_to=u, rec_p=rec_p,
        first_slot=first_slot, first_row=first_row, first_col=first_col,
        row_count=rows, col_count=cols, row_start=np.flatnonzero(col == 0),
        col_order=col_order, col_start=np.flatnonzero(row[col_order] == 0),
        granularity=max(-(-b // a) for a, b in distinct if a),
        reward_low=float(table[:, 5].min()), reward_high=float(table[:, 5].max()))
    _read_only(vars(view))
    return view


@dataclass(frozen=True)
class GameSpec:
    """Immutable stochastic game, valid by construction.

    transitions[v] holds one (k, l, u, p, r) record per transition out of
    position v, sorted by (k, l, u): under actions (k, l) the play moves to u
    with exact nonzero probability p and pays the float reward r. A missing
    triple has probability 0. Construction runs validate and raises
    DocumentError listing every problem it finds, then builds the flat view.
    """

    states: tuple[str, ...]
    row_actions: tuple[tuple[str, ...], ...]
    col_actions: tuple[tuple[str, ...], ...]
    transitions: tuple  # per state, a tuple of (k, l, u, p, r) records

    flat: FlatView = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        report = validate(self)
        if not report.ok:
            raise DocumentError(report.problems)
        object.__setattr__(self, "flat", _flat_view(self))

    @property
    def n(self) -> int:
        return len(self.states)

    def num_row_actions(self, v: int) -> int:
        return len(self.row_actions[v])

    def num_col_actions(self, v: int) -> int:
        return len(self.col_actions[v])

    def state_matrix(self, per_slot: np.ndarray, v: int) -> np.ndarray:
        """State v's entries of a per-slot array, shape (|K|, |L|)."""
        lo, hi = self.flat.first_slot[v], self.flat.first_slot[v + 1]
        return per_slot[lo:hi].reshape(self.num_row_actions(v), self.num_col_actions(v))


@dataclass(frozen=True)
class GameParams:
    """Magnitude parameters of a normalized game."""

    granularity: int  # every nonzero probability is >= 1/granularity
    reward_bound: float  # all rewards lie in [0, reward_bound]


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
    dropped. Every record is resolved before anything is built: each unknown
    name or index and each duplicate (v, k, l, u) is reported with its record
    index in one DocumentError.
    """
    states = tuple(str(s) for s in states)
    row_actions = tuple(tuple(str(a) for a in acts) for acts in row_actions)
    col_actions = tuple(tuple(str(a) for a in acts) for acts in col_actions)
    if len(row_actions) != len(states) or len(col_actions) != len(states):
        raise ValueError("need one action set per state for each player")

    state_idx = {name: i for i, name in enumerate(states)}
    problems = []

    def resolve(token, pool, what, where):
        if isinstance(token, int) and not isinstance(token, bool):
            if 0 <= token < len(pool):
                return token
            problems.append(f"{where}: {what} index {token} out of range")
            return None
        token = str(token)
        if what == "state":
            found = state_idx.get(token)
        else:
            found = pool.index(token) if token in pool else None
        if found is None:
            problems.append(f"{where}: unknown {what} {token!r}")
        return found

    records = [[] for _ in states]
    seen = set()
    for idx, (v_tok, k_tok, l_tok, u_tok, p_val, r_val) in enumerate(transitions):
        where = f"transition record {idx}"
        v = resolve(v_tok, states, "state", where)
        u = resolve(u_tok, states, "state", where)
        if v is None:
            continue
        k = resolve(k_tok, row_actions[v], "row action", where)
        l = resolve(l_tok, col_actions[v], "column action", where)
        if None in (u, k, l):
            continue
        if (v, k, l, u) in seen:
            problems.append(f"{where}: duplicate transition record for {(v, k, l, u)}")
            continue
        seen.add((v, k, l, u))
        p = to_fraction(p_val)
        if p != 0:
            records[v].append((k, l, u, p, float(r_val)))
    if problems:
        raise DocumentError(problems)

    return GameSpec(
        states=states,
        row_actions=row_actions,
        col_actions=col_actions,
        transitions=tuple(tuple(sorted(recs, key=lambda rec: rec[:3])) for recs in records),
    )


def validate(game: GameSpec) -> ValidationReport:
    """Check the structural invariants; every problem is reported, none raised."""
    problems = [] if game.n else ["game has no states"]
    for v, name in enumerate(game.states):
        if game.num_row_actions(v) == 0:
            problems.append(f"state {name!r}: row player has no actions")
        if game.num_col_actions(v) == 0:
            problems.append(f"state {name!r}: column player has no actions")
        totals = {}
        for k, l, u, p, r in game.transitions[v]:
            if p < 0 or p > 1:
                problems.append(
                    f"probability out of range at ({name!r}, k={k}, l={l}, "
                    f"u={game.states[u]!r}): {p}"
                )
            if not math.isfinite(r):
                problems.append(
                    f"reward is not finite at ({name!r}, k={k}, l={l}, "
                    f"u={game.states[u]!r}): {r}"
                )
            totals[k, l] = totals.get((k, l), 0) + p
        for k in range(game.num_row_actions(v)):
            for l in range(game.num_col_actions(v)):
                total = totals.get((k, l), 0)
                if total != 1:
                    problems.append(
                        f"non-stopping condition fails at ({name!r}, k={k}, l={l}): "
                        f"probabilities sum to {total}"
                    )
    return ValidationReport(problems=tuple(problems))


def _map_rewards(game: GameSpec, new_reward) -> GameSpec:
    """The same game with each record's reward r replaced by new_reward(v, u, r)."""
    return replace(game, transitions=tuple(
        tuple((k, l, u, p, new_reward(v, u, r)) for k, l, u, p, r in records)
        for v, records in enumerate(game.transitions)
    ))


def normalize_rewards(game: GameSpec) -> tuple[GameSpec, float]:
    """Shift rewards so the smallest one is 0; returns (game, offset).

    Every mean payoff and local value of the shifted game exceeds the
    original by exactly the offset. Games already in [0, R] are returned
    unchanged with offset 0.
    """
    offset = max(0.0, -game.flat.reward_low)
    if offset == 0.0:
        return game, 0.0
    return _map_rewards(game, lambda v, u, r: r + offset), offset


def game_params(game: GameSpec) -> GameParams:
    """(W, R) of a normalized game, as its flat view holds them."""
    flat = game.flat
    if flat.reward_low < 0:
        raise ValueError("game_params requires normalized (non-negative) rewards")
    return GameParams(granularity=flat.granularity, reward_bound=max(0.0, flat.reward_high))


def as_potential(x, n: int) -> Potential:
    """Coerce to a finite float vector of length n."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"potential must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("potential entries must be finite")
    return arr


def local_payoffs(game: GameSpec, x: Potential, successor=None) -> np.ndarray:
    """Every slot's potential-adjusted payoff sum_u p*(r + x[v] - x[u]); r_bounds
    passes per record the potential to charge in place of x[u]."""
    x = np.asarray(x, dtype=np.float64)
    flat = game.flat
    successor = x[flat.rec_to] if successor is None else successor
    moved = np.bincount(flat.rec_slot, flat.rec_p * successor, len(flat.slot_state))
    return flat.slot_reward + x[flat.slot_state] - moved


def local_reward_matrix(game: GameSpec, v: int, x: Potential) -> np.ndarray:
    """Potential-adjusted reward matrix at v: its slots of local_payoffs."""
    return game.state_matrix(local_payoffs(game, as_potential(x, game.n)), v)


def apply_potential(game: GameSpec, x: Potential) -> GameSpec:
    """Transform every transition reward r -> r + x[v] - x[u].

    Mean payoffs of every stationary profile are unchanged by this transform.
    """
    x = as_potential(x, game.n)
    return _map_rewards(game, lambda v, u, r: r + x[v] - x[u])
