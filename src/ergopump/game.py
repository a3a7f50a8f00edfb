"""Two-player zero-sum stochastic game model.

A game is a finite set of positions; at each position the two players pick
actions (row player maximizes, column player minimizes), a transition reward
is paid, and the play moves to the next position according to the transition
probabilities. A game is stored once, as the record columns of its flat view
(FlatView), each exact rational probability an index into a small table of
Fractions, so the granularity parameter is well defined. All numerics
read that view: the potential-adjusted local games of every state come from
one mat-vec over it (local_payoffs), and it holds the game's constants W and
reward range, fixed when it is built.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Potential = np.ndarray

MAX_REPORTED_ERRORS = 20


class DocumentError(ValueError):
    """An invalid game or document; problems lists up to 20 findings."""

    def __init__(self, problems):
        self.problems = tuple(problems)[:MAX_REPORTED_ERRORS]
        super().__init__("; ".join(self.problems))


def _fraction_of_text(text: str) -> Fraction:
    """Fraction(text), or ValueError before it is built when its numerator or
    denominator would pass Python's int string-conversion limit (an exponent
    can take them far past the length of text), and a zero denominator named
    as such."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.lower().partition("e")
    try:
        too_long = abs(int(exponent)) + len(mantissa) > limit if exponent else False
    except ValueError:  # not an exponent: Fraction reports the text
        too_long = False
    if too_long:
        raise ValueError(f"probability {text!r} has more than {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"probability {text!r} has a zero denominator") from None


def to_fraction(value) -> Fraction:
    """Coerce a probability-like value to an exact Fraction, or raise
    TypeError or ValueError, which make_game reports.

    Strings may be "a/b" or decimal; floats are read through their shortest
    decimal repr (so 0.1 means 1/10, not the binary double).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a probability")
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value := float(value)):
            raise ValueError(f"probability must be finite, got {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        return _fraction_of_text(value)
    raise TypeError(f"cannot interpret {value!r} as a probability")


_REAL_TYPES = frozenset([int, float, *(np.dtype(code).type  # and numpy's scalars of both
                                      for kind in ("AllInteger", "Float")
                                      for code in np.typecodes[kind])])


def _finite(values) -> bool:
    """Whether every entry is a finite int or float, numpy's included, checked
    by map and all in C. A float conversion would read True as 1, "2.5" as 2.5."""
    try:
        return _REAL_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the float range
        return False


class FlatView(NamedTuple):
    """A game's transition records, stored once as columns, and the float
    views of them that every solve reads; built once per GameSpec, its
    arrays read-only.

    A slot is one (v, k, l) action pair; state v owns the slots from
    first_slot[v] to first_slot[v + 1] in row-major (k, l) order, and its row
    and column actions are numbered from first_row[v] and first_col[v]
    (global rows and columns). row_start and col_order with col_start are
    the segment indices of per-row and per-column reductions over a per-slot
    array, as matrix_game's pure-saddle screen runs them on a game it does
    not read as a padded block (GameSpec.padded_view). granularity is the
    largest ceil(1/p) over the nonzero probabilities, exact on the rational
    p, and reward_low and reward_high are the least and greatest reward.
    """

    slot_state: np.ndarray  # per slot: v
    slot_row: np.ndarray  # per slot: first_row[v] + k
    slot_col: np.ndarray  # per slot: first_col[v] + l
    slot_reward: np.ndarray  # per slot: sum_u p*r
    rec_slot: np.ndarray  # per record: its slot
    rec_state: np.ndarray  # per record: v, the state owning its slot
    rec_to: np.ndarray  # per record: the successor u
    rec_prob: np.ndarray  # per record: the index of its p in probabilities
    rec_p: np.ndarray  # per record: float(p), or NaN for a p outside [0, 1]
    rec_reward: np.ndarray  # per record: r
    probabilities: np.ndarray  # the exact probabilities (Fractions) the records index
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

    def __reduce__(self):
        # a pickle restores the arrays writeable, e.g. in a solve worker
        return _read_only, (tuple(self),)


def _read_only(fields) -> FlatView:
    """The flat view of these fields, its arrays made read-only."""
    for value in fields:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return FlatView._make(fields)


class PaddedView(NamedTuple):
    """Each state's local game padded to 3x3, for a game whose every state
    has at most 3 actions per player (_padded_games): a per-slot array taken
    at slots is a (9, n) block, entry (i, j) of state v's game at [3i + j, v],
    its last row and column repeated into the padding. A minimum over each
    padded row, a (3, n) array, lists the global rows' minima at row_at, and
    a maximum over each padded column the global columns' maxima at col_at."""

    slots: np.ndarray  # (9, n)
    owns: np.ndarray  # (6, n): whether state v has row k, at [k, v], and column l, at [3 + l, v]
    row_at: np.ndarray  # per global row, row k of state v: k*n + v
    col_at: np.ndarray  # per global column, column l of state v: l*n + v


def _padded_games(flat: FlatView, states) -> tuple:
    """(slots, owns) of `states`, an index array or a slice, each state of at
    most 3 actions per player: slots (9, S), at [3i + j, s] the slot of entry
    (i, j) of the s-th state's game padded to 3x3, its last row and column
    repeated, and owns (6, S), whether that state has row k, at [k, s], and
    column l, at [3 + l, s]."""
    rows, cols, k = flat.row_count[states], flat.col_count[states], np.arange(3)[:, None]
    slots = ((flat.first_slot[:-1][states] + np.minimum(k, rows - 1) * cols)[:, None]
             + np.minimum(k, cols - 1)).reshape(9, -1)
    return slots, np.concatenate([k < rows, k < cols])


def _padded_view(flat: FlatView) -> PaddedView | None:
    """The PaddedView of a flat view, or None when some state has more than
    3 actions for a player."""
    rows, cols = flat.row_count, flat.col_count
    if rows.max() > 3 or cols.max() > 3:
        return None
    n = len(rows)
    row_state, col_state = np.repeat(np.arange(n), rows), np.repeat(np.arange(n), cols)
    padded = PaddedView(*_padded_games(flat, slice(None)),
                        row_at=(np.arange(flat.first_row[-1]) - flat.first_row[row_state]) * n
                        + row_state,
                        col_at=(np.arange(flat.first_col[-1]) - flat.first_col[col_state]) * n
                        + col_state)
    for array in padded:
        array.setflags(write=False)
    return padded


def _reward_fields(rec_slot, rec_p, reward, slots) -> dict:
    """The fields of a flat view that its per-record rewards fix."""
    return dict(rec_reward=reward,
                slot_reward=np.bincount(rec_slot, weights=rec_p * reward, minlength=slots),
                # + 0.0 makes a zero extreme +0.0, whichever zero numpy meets first
                reward_low=float(reward.min(initial=np.inf)) + 0.0,
                reward_high=float(reward.max(initial=-np.inf)) + 0.0)


def _shape(row_actions, col_actions) -> tuple:
    """(rows, cols, first_row, first_col, first_slot): per state its row and column
    counts, then its first global row, column and slot, with the total at [n]."""
    rows, cols = list(map(len, row_actions)), list(map(len, col_actions))
    sizes = rows, cols, list(map(mul, rows, cols))  # per state: rows, columns and slots
    firsts = np.array([[0, *accumulate(count)] for count in sizes], dtype=np.int64)
    return (*np.array(sizes[:2], dtype=np.int64).reshape(2, -1), *firsts)


def _flat_view(shape, rec_slot, u, probabilities, rec_prob, reward) -> FlatView:
    """The flat view, for the _shape of its actions, of records given as
    int64 columns rec_slot (first_slot[v] + k*cols[v] + l), u and rec_prob
    (an index into probabilities) and a float column reward, in that order."""
    rows, cols, first_row, first_col, first_slot = shape
    slot_state = np.repeat(np.arange(len(rows)), rows * cols)
    row, col = np.divmod(np.arange(first_slot[-1]) - first_slot[slot_state], cols[slot_state])
    # 0 <= p <= 1 on the exact p; its denominator is positive
    rec_p = np.array([p.numerator / p.denominator if 0 <= p.numerator <= p.denominator
                      else math.nan for p in probabilities], dtype=np.float64)[rec_prob]
    slot_col = first_col[slot_state] + col
    col_order = np.argsort(slot_col, kind="stable")
    return _read_only(FlatView(
        slot_state=slot_state, slot_row=first_row[slot_state] + row, slot_col=slot_col,
        rec_slot=rec_slot, rec_state=slot_state[rec_slot], rec_to=u, rec_prob=rec_prob,
        rec_p=rec_p, probabilities=np.array(probabilities, dtype=object),
        first_slot=first_slot, first_row=first_row, first_col=first_col,
        row_count=rows, col_count=cols, row_start=np.flatnonzero(col == 0),
        col_order=col_order, col_start=np.flatnonzero(row[col_order] == 0),
        # ceil(1/p) = ceil(b/a) for p = a/b in lowest terms
        granularity=max((-(-p.denominator // p.numerator) for p in probabilities if p.numerator),
                        default=1),
        **_reward_fields(rec_slot, rec_p, reward, first_slot[-1])))


class GameSpec:
    """Immutable stochastic game, valid by construction: construction runs
    validate and raises DocumentError listing every problem it finds. The
    flat view alone stores the records; make_game builds it to fit the names.
    Games with equal names and transitions are equal."""

    __slots__ = ("states", "row_actions", "col_actions", "flat", "_padded")

    def __init__(self, states: tuple[str, ...], row_actions: tuple[tuple[str, ...], ...],
                 col_actions: tuple[tuple[str, ...], ...], flat: FlatView):
        for name, value in zip(GameSpec.__slots__, (states, row_actions, col_actions, flat)):
            object.__setattr__(self, name, value)
        problems = validate(self)
        if problems:
            raise DocumentError(problems)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a GameSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a GameSpec is immutable")

    def __reduce__(self):
        # unpickling constructs the game again, from the same fields
        return GameSpec, (self.states, self.row_actions, self.col_actions, self.flat)

    def __repr__(self):
        return (f"GameSpec(states={self.states!r}, row_actions={self.row_actions!r}, "
                f"col_actions={self.col_actions!r})")

    def __eq__(self, other):
        fields = ("states", "row_actions", "col_actions", "transitions")
        return isinstance(other, GameSpec) and all(
            getattr(self, name) == getattr(other, name) for name in fields)

    @property
    def transitions(self) -> tuple:
        """Per state v, its (k, l, u, p, r) records, derived from the flat view:
        under actions (k, l) the play moves to u with exact nonzero
        probability p and pays the float reward r; sorted by (k, l, u)."""
        flat = self.flat
        k, l = np.divmod(flat.rec_slot - flat.first_slot[flat.rec_state],
                         flat.col_count[flat.rec_state])
        records = zip(k.tolist(), l.tolist(), flat.rec_to.tolist(),
                      flat.probabilities[flat.rec_prob].tolist(), flat.rec_reward.tolist())
        return tuple(tuple(islice(records, count))
                     for count in np.bincount(flat.rec_state, minlength=self.n).tolist())

    @property
    def n(self) -> int:
        return len(self.states)

    def num_row_actions(self, v: int) -> int:
        return len(self.row_actions[v])

    def num_col_actions(self, v: int) -> int:
        return len(self.col_actions[v])

    def padded_view(self) -> PaddedView | None:
        """The flat view's PaddedView, or None when some state has more than 3
        actions for a player; built on the first call and kept, so a game
        never asked for it, as parsing never asks, never builds it."""
        try:
            return self._padded
        except AttributeError:  # the slot is unset until the first call
            object.__setattr__(self, "_padded", _padded_view(self.flat))
            return self._padded

    def state_matrix(self, per_slot: np.ndarray, v: int) -> np.ndarray:
        """State v's entries of a per-slot array, shape (|K|, |L|)."""
        lo, hi = self.flat.first_slot[v], self.flat.first_slot[v + 1]
        return per_slot[lo:hi].reshape(self.num_row_actions(v), self.num_col_actions(v))


class GameParams(NamedTuple):
    """Magnitude parameters of a normalized game."""

    granularity: int  # every nonzero probability is >= 1/granularity
    reward_bound: float  # all rewards lie in [0, reward_bound]


def _token(token):
    """A state or action token as make_game reads it: an int or numpy
    integer, a bool aside, is an index, and anything else a name, its str."""
    if isinstance(token, (int, np.integer)) and not isinstance(token, bool):
        return int(token)
    return str(token)


def _action_index(actions) -> dict:
    """(v, name) -> k for every action k of every state v."""
    return {(v, name): k for v, acts in enumerate(actions) for k, name in enumerate(acts)}


def _resolve(tokens, state_index, row_index, col_index) -> tuple[tuple, bool]:
    """The v, k, l and u columns of the records whose tokens are the columns
    tokens, one dict lookup per token and None where a token names nothing;
    and whether every token resolved. An unhashable token (a JSON list, say)
    resolves nothing: no columns, and False."""
    v_tok, k_tok, l_tok, u_tok = tokens
    try:
        v = list(map(state_index.get, v_tok))
        columns = (v, list(map(row_index.get, zip(v, k_tok))),
                   list(map(col_index.get, zip(v, l_tok))), list(map(state_index.get, u_tok)))
    except TypeError:
        return None, False
    return columns, not any(None in column for column in columns)


def _name_problems(tokens, v, k, l, u) -> list:
    """The problems of the records whose names did not resolve or that
    repeat a resolved (v, k, l, u), in record order: each record's state,
    successor, row action and column action, the actions only when its
    state resolved, then its repetition."""
    problems, seen = [], set()
    checked = ((0, "state"), (3, "state"), (1, "row action"), (2, "column action"))
    for idx, key in enumerate(zip(v, k, l, u)):
        for i, what in checked if key[0] is not None else checked[:2]:
            if key[i] is None:
                token = tokens[i][idx]
                problems.append(f"transition record {idx}: " + (
                    f"{what} index {token} out of range"
                    if isinstance(token, int) else f"unknown {what} {token!r}"))
        if None not in key:
            if key in seen:
                problems.append(f"transition record {idx}: duplicate transition record for "
                                f"{key}")
            seen.add(key)
    return problems


def _probability_keys(values):
    """One key per record probability, equal for values that to_fraction
    reads alike: the values themselves when all are of one hashable type, as
    a document's strings are, else (type, text) pairs, which keep apart
    equal values of two types that to_fraction reads differently (True and
    1, 0.5 and Decimal("0.5")) and name an unhashable value by its text."""
    types = set(map(type, values))
    if len(types) == 1 and types.pop().__hash__ is not None:
        return values
    return list(zip(map(type, values), map(str, values)))


def make_game(
    states: Sequence[str],
    row_actions: Sequence[Sequence[str]],
    col_actions: Sequence[Sequence[str]],
    transitions: Iterable[tuple],
) -> GameSpec:
    """Build a GameSpec from sparse transition records; every caller's record
    values, a document's or a generator's, are checked here and only here.

    Each record is (v, k, l, u, p, r): states and actions by name or index
    (an int or numpy integer), p anything to_fraction reads (each distinct
    value converted once, see _probability_keys), r what _finite accepts.
    Missing entries default to probability 0; records with p == 0 are
    dropped. A repeated state name, or action name at one state, raises at
    once; otherwise one DocumentError lists, by record index, every unknown
    name or index and duplicate (v, k, l, u), then every bad p, then every
    bad r.

    Names resolve a column at a time, by one dict lookup per token in C: by
    name first, and when some token is no name, again with every token read
    as _token reads it. Only a token that still resolves to nothing, or a
    repeated record, sends the records through a loop, which words the
    problems.
    """
    states = tuple(map(str, states))
    row_actions = tuple(tuple(map(str, acts)) for acts in row_actions)
    col_actions = tuple(tuple(map(str, acts)) for acts in col_actions)
    n = len(states)
    if len(row_actions) != n or len(col_actions) != n:
        raise ValueError("need one action set per state for each player")
    state_index = dict(zip(states, range(n)))
    row_index, col_index = _action_index(row_actions), _action_index(col_actions)
    if (len(state_index) < n or len(row_index) < sum(map(len, row_actions))
            or len(col_index) < sum(map(len, col_actions))):
        problems = [f"duplicate state name {s!r}"
                    for s, count in Counter(states).items() if count > 1]
        problems += [f"state {states[v]!r}: duplicate {player} action name {a!r}"
                     for player, actions in (("row", row_actions), ("column", col_actions))
                     for v, acts in enumerate(actions) if len(set(acts)) < len(acts)
                     for a, count in Counter(acts).items() if count > 1]
        raise DocumentError(problems)

    v_tok, k_tok, l_tok, u_tok, p_val, r_val = list(zip(*transitions, strict=True)) or [()] * 6
    tokens = (v_tok, k_tok, l_tok, u_tok)
    columns, resolved = _resolve(tokens, state_index, row_index, col_index)
    if not resolved:  # a token that is no name
        tokens = [list(map(_token, column)) for column in tokens]
        state_index.update(zip(range(n), range(n)))
        for index, actions in ((row_index, row_actions), (col_index, col_actions)):
            index.update(((s, a), a) for s, acts in enumerate(actions) for a in range(len(acts)))
        columns, resolved = _resolve(tokens, state_index, row_index, col_index)
    shape = _shape(row_actions, col_actions)
    if resolved:  # sorted by (slot, u), i.e. (v, k, l, u), a repeat sits next to its first
        v, k, l, u = np.array(columns, dtype=np.int64)
        _rows, cols, _first_row, _first_col, first_slot = shape
        slot = first_slot[v] + k * cols[v] + l
        sort_key = slot * n + u
        order = np.argsort(sort_key, kind="stable")
        resolved = bool(np.diff(sort_key[order]).all())  # no two records share a key
    problems = [] if resolved else _name_problems(tokens, *columns)

    p_keys = _probability_keys(p_val)
    fractions, errors = {}, {}  # per distinct key: its Fraction, or why it has none
    for key, value in dict(zip(p_keys, p_val)).items():
        try:
            fractions[key] = to_fraction(value)
        except (TypeError, ValueError) as exc:
            errors[key] = exc
    if errors:
        problems += [f"transition record {idx}: {errors[key]}"
                     for idx, key in enumerate(p_keys) if key in errors]
    if not _finite(r_val):
        problems += [f"transition record {idx}: reward is not finite or not a number: {r!r}"
                     for idx, r in enumerate(r_val) if not _finite([r])]
    if problems:
        raise DocumentError(problems)
    # every record resolved to a key of its own, sorted by (v, k, l, u) in order
    slot, u = slot[order], u[order]
    probabilities = list(fractions.values())
    rec_prob = np.fromiter(map(dict(zip(fractions, range(len(fractions)))).__getitem__, p_keys),
                           np.int64, len(p_keys))[order]
    reward = np.array(r_val, dtype=np.float64)[order]
    if not all(p.numerator for p in probabilities):  # drop the p = 0 records
        nonzero = np.array([p.numerator != 0 for p in probabilities], dtype=bool)[rec_prob]
        slot, u, rec_prob, reward = slot[nonzero], u[nonzero], rec_prob[nonzero], reward[nonzero]
    return GameSpec(states, row_actions, col_actions,
                    _flat_view(shape, slot, u, probabilities, rec_prob, reward))


def validate(game: GameSpec) -> tuple[str, ...]:
    """The game's structural problems, state by state; every problem is
    reported, none raised. Slot sums are exact: int numerators over scale."""
    flat, states = game.flat, game.states
    found = [((v, side), f"state {states[v]!r}: {player} player has no actions")
             for side, (player, actions) in enumerate((("row", game.row_actions),
                                                       ("column", game.col_actions)))
             for v, acts in enumerate(actions) if not acts]
    # rec_p is NaN where p is outside [0, 1]; every reward is finite when their range is
    if np.isnan(flat.rec_p).any() or not math.isfinite(flat.reward_high - flat.reward_low):
        for v, records in enumerate(game.transitions):
            for i, (k, l, u, p, r) in enumerate(records):
                at = f"({states[v]!r}, k={k}, l={l}, u={states[u]!r})"
                if not 0 <= p <= 1:
                    found.append(((v, 2, i, 0), f"probability out of range at {at}: {p}"))
                if not math.isfinite(r):
                    found.append(((v, 2, i, 1), f"reward is not finite at {at}: {r}"))
    scale = math.lcm(*(p.denominator for p in flat.probabilities))
    numerators = [p.numerator * (scale // p.denominator) for p in flat.probabilities]
    sums = np.zeros(len(flat.slot_state), dtype=object)
    np.add.at(sums, flat.rec_slot, np.array(numerators, dtype=object)[flat.rec_prob])
    for s in np.flatnonzero(sums != scale).tolist():
        v = int(flat.slot_state[s])
        k, l = divmod(s - int(flat.first_slot[v]), int(flat.col_count[v]))
        try:
            total = str(Fraction(sums[s], scale))
        except ValueError:  # a term past the int string-conversion limit: str() refuses it
            total = f"a fraction with more than {sys.get_int_max_str_digits()} digits"
        found.append(((v, 3, s), f"non-stopping condition fails at ({states[v]!r}, k={k}, "
                                 f"l={l}): probabilities sum to {total}"))
    return ((() if game.n else ("game has no states",))
            + tuple(message for _key, message in sorted(found)))


def _map_rewards(game: GameSpec, reward: np.ndarray) -> GameSpec:
    """The same game with the per-record rewards replaced by reward."""
    flat = game.flat
    flat = flat._replace(**_reward_fields(flat.rec_slot, flat.rec_p, reward, len(flat.slot_state)))
    return GameSpec(game.states, game.row_actions, game.col_actions, _read_only(flat))


def normalize_rewards(game: GameSpec) -> tuple[GameSpec, float]:
    """Shift rewards so the smallest one is 0; returns (game, offset).

    Every mean payoff and local value of the shifted game exceeds the
    original by exactly the offset. Games already in [0, R] are returned
    unchanged with offset 0.
    """
    offset = max(0.0, -game.flat.reward_low)
    if offset == 0.0:
        return game, 0.0
    return _map_rewards(game, game.flat.rec_reward + offset), offset


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
    if np.count_nonzero(np.isfinite(arr)) < n:  # one C call; .all() wraps a reduction in Python
        raise ValueError("potential entries must be finite")
    return arr


def state_mask(n: int, states) -> np.ndarray:
    """A bool per state: states itself when it is already such a mask, else
    True at the state indices it lists."""
    if isinstance(states, np.ndarray) and states.dtype == bool and states.shape == (n,):
        return states
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(states, np.intp, len(states))] = True
    return mask


def covered_states(mix, first) -> np.ndarray:
    """Per state, whether mix, laid out from first[v], has no NaN at its actions.

    Each entry is tested for NaN, so a slice holding both inf and -inf, whose
    sum would be NaN, counts as covered."""
    return ~np.logical_or.reduceat(np.isnan(np.asarray(mix)), first[:-1])


class Strategy(np.ndarray):
    """One player's stationary strategy, a read-only float array over its
    global actions, state v's from first[v] (FlatView.first_row or first_col),
    NaN outside the states it covers, which it names; a slice does not."""

    def __new__(cls, values, first):
        out = np.asarray(values, dtype=np.float64).view(cls)
        out.first = first
        out.setflags(write=False)
        return out

    def __reduce__(self):  # a pickle keeps first, e.g. from a solve worker
        return Strategy, (np.asarray(self), self.first)

    @property
    def states(self) -> frozenset:
        return frozenset(covered_states(self, self.first).nonzero()[0].tolist())


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
    flat = game.flat
    return _map_rewards(game, flat.rec_reward + x[flat.rec_state] - x[flat.rec_to])
