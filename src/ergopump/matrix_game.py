"""Zero-sum matrix game solver.

Settles the local games of a stochastic game in three stages.

1. A screen over all states at once (local_solve): each state's pure
   maximin and minimax come from segmented numpy reductions over the flat
   view's slots, and every listed state whose two values are exactly equal
   is a pure saddle, settled by unit strategies at the first row and column
   attaining them.
2. Closed-form kernels: a pure saddle or, up to 3x3, the first Shapley-Snow
   kernel, a square submatrix whose adjugate gives the value and both
   strategies (Shapley and Snow, Basic solutions of discrete games, 1950),
   kept when its strategies are non-negative and pass the saddle check.
   Games the screen found mixed skip the saddle test, which they have
   already failed; a game with one row or one column is always a pure
   saddle, so the screen never forwards one. A call whose mixed games of at
   most 3x3 number _BATCH_MIN_GAMES or more settles those together in numpy
   (_batch_kernels): all nine 2x2 candidates and the full adjugate at once,
   in the scalar kernel's float operations and order, each game keeping its
   own saddle check and its first candidate that passes, so values and
   strategies keep the scalar kernel's bits. Smaller calls solve every
   mixed game with the scalar kernel, one at a time. A batched call then
   solves its games larger than 3x3 and those the batch left the same way;
   the scalar kernel rejects the latter's candidates again, as it computes
   them in the same float operations, and hands them to stage 3.
3. The classic value LP, for larger games and any small one no kernel
   settles: shift the matrix positive, maximize the column player's scaled
   mixed strategy against unit bounds, and solve the negated transpose the
   same way for the row player's, never reading it off the duals. The
   simplex is self-contained (Dantzig entering rule, switching to Bland's
   rule after a pivot budget to rule out cycling).

A LocalSolve is the one record of a potential and its local games: the
potential x, and what settling the games took, namely the screen's row
minima and column maxima, its per-state pure maximin and minimax, and its
mixed games' strategies, one MixedGames record of flat arrays, as the
batch or the scalar kernels left them. Its values serve the pump and the
band check, and its pure bounds the pump's witness check; the strategies
are laid out, one array per player, only when a certificate asks for
them, so no game is solved twice for them. The screen returns bit for bit
what the kernels return for the games it settles. Every stage is
deterministic, and every float sum in the scalar kernels adds left to
right from +0.0 (left_sum), as the batch does, so results are
bit-reproducible on every Python version. Every solve saddle-checks the
strategies it returns; a solve that stalls or fails that check raises
MatrixGameError.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .game import Strategy, local_payoffs, local_reward_matrix, state_mask

_PIVOT_EPS = 1e-11
_SADDLE_TOL = 1e-9  # largest duality gap a solve may return
_BLAND_AFTER = 200
_MAX_PIVOTS = 10_000


class MatrixGameError(RuntimeError):
    """A solve stalled or failed its saddle check; carries value bounds."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(f"{message} (best bounds: [{lower}, {upper}])")
        self.lower = lower
        self.upper = upper


class MatrixGameSolution(NamedTuple):
    """Minimax value and optimal mixed strategies of one matrix game."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float


def _simplex_max(tableau, basis, n_vars) -> bool:
    """In-place primal simplex on a maximization tableau.

    tableau rows: m constraint rows [coeffs | rhs] plus one objective row
    holding negated reduced costs. Returns True at an optimum, False when
    the pivot budget runs out or no row bounds the entering column.
    """
    m = len(basis)
    obj = tableau[m]
    pivots = 0
    while True:
        # entering column: Dantzig first, Bland once the budget is burned
        enter = -1
        if pivots < _BLAND_AFTER:
            best = 0.0
            for j in range(n_vars):
                if obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(n_vars):
                if obj[j] < 0.0:
                    enter = j
                    break
        if enter < 0:
            return True
        if pivots >= _MAX_PIVOTS:
            return False
        # leaving row: minimum ratio, ties broken by lowest basic variable
        leave = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > _PIVOT_EPS:
                ratio = tableau[i][n_vars] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return False  # unbounded: impossible for shifted games
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        inv = 1 / pivot
        for j in range(n_vars + 1):
            pivot_row[j] *= inv
        for i in range(m + 1):
            if i == leave:
                continue
            factor = tableau[i][enter]
            if factor != 0:
                row = tableau[i]
                for j in range(n_vars + 1):
                    row[j] -= factor * pivot_row[j]
        basis[leave] = enter
        pivots += 1


def left_sum(items):
    """The floats of items added left to right from +0.0, as builtin sum
    adds them up to Python 3.11; from 3.12 on, sum compensates its rounding,
    which would set the scalar kernels' bits apart from _batch_kernels'."""
    return reduce(add, items, 0.0)


def _saddle_bounds(rows, row_strategy, col):
    """(worst column payoff of row_strategy, best row payoff against col)."""
    best_row = max(left_sum(map(mul, row, col)) for row in rows)
    worst_col = min(left_sum(map(mul, row_strategy, column)) for column in zip(*rows))
    return worst_col, best_row


def _kernel_solve(a, screened=False):
    """Closed-form solve of a float row-list matrix, or None if none settles it.

    A game whose maximin equals its minimax exactly is a pure saddle: unit
    strategies at the first row and column attaining them, gap 0. A single
    row or column always is one: its row minima and column maxima are that
    row or column. A game the screen found mixed (screened) is not, so that
    test is skipped. Otherwise, up to 3x3, each square
    submatrix B is a Shapley-Snow kernel candidate, the 2x2 ones in
    lexicographic (row pair, column pair) order, then the full 3x3. With C
    the cofactor matrix of B and s the sum of its entries (1' adj B 1), the
    candidate's row strategy is C's row sums over s, its column strategy
    C's column sums over s and its value det B / s; candidates with s
    exactly 0.0 are skipped. B is shifted by its corner entry first, which
    leaves C's sums unchanged and keeps det B from cancelling a large common
    offset. A 2x2 candidate's weights are sign-tested before anything is
    allocated, and its saddle bounds read only its two rows and two
    columns, where the strategies have their mass.
    """
    m, n = len(a), len(a[0])
    if not screened:
        row_mins = [min(row) for row in a]
        col_maxs = [max(column) for column in zip(*a)]
        lower, upper = max(row_mins), min(col_maxs)
        if lower == upper:
            return (lower, _unit(m, row_mins.index(lower)),
                    _unit(n, col_maxs.index(upper)), 0.0)
    if m > 3 or n > 3:
        return None
    for k1, k2 in combinations(range(m), 2):
        top, bottom = a[k1], a[k2]
        for l1, l2 in combinations(range(n), 2):
            corner = top[l1]
            b01, b10, b11 = top[l2] - corner, bottom[l1] - corner, bottom[l2] - corner
            s = b11 - b10 - b01
            if s == 0.0:
                continue
            p1, p2, q1, q2 = (b11 - b10) / s, -b01 / s, (b11 - b01) / s, -b10 / s
            if p1 < 0.0 or p2 < 0.0 or q1 < 0.0 or q2 < 0.0:
                continue
            gap = (max(row[l1] * q1 + row[l2] * q2 for row in a)
                   - min(p1 * x + p2 * y for x, y in zip(top, bottom)))
            if gap <= _SADDLE_TOL:
                row_strategy, col = [0.0] * m, [0.0] * n
                row_strategy[k1], row_strategy[k2] = p1, p2
                col[l1], col[l2] = q1, q2
                return corner - b01 * b10 / s, row_strategy, col, gap
    if m == n == 3:
        corner = a[0][0]
        b = [[x - corner for x in row] for row in a]
        cof = [[b[(i + 1) % 3][(j + 1) % 3] * b[(i + 2) % 3][(j + 2) % 3]
                - b[(i + 1) % 3][(j + 2) % 3] * b[(i + 2) % 3][(j + 1) % 3]
                for j in range(3)] for i in range(3)]
        row_weights = [left_sum(row) for row in cof]
        s = left_sum(row_weights)
        if s != 0.0:
            return _settles(a, corner + left_sum(map(mul, b[0], cof[0])) / s,
                            [w / s for w in row_weights],
                            [left_sum(column) / s for column in zip(*cof)])
    return None


def _settles(a, value, row_strategy, col):
    """(value, row_strategy, col, gap) if both strategies are non-negative
    and their gap on a is at most _SADDLE_TOL, else None."""
    if min(row_strategy) < 0.0 or min(col) < 0.0:
        return None
    worst_col, best_row = _saddle_bounds(a, row_strategy, col)
    gap = best_row - worst_col
    return (value, row_strategy, col, gap) if gap <= _SADDLE_TOL else None


def _unit(size, index):
    out = [0.0] * size
    out[index] = 1.0
    return out


def _lp_column(rows):
    """(column strategy, value) of a matrix game by the value LP, or None
    when the simplex stalls: shift the matrix positive, maximize sum(w)
    s.t. shifted @ w <= 1, w >= 0, and scale w to a distribution."""
    m, n = len(rows), len(rows[0])
    lowest = min(min(row) for row in rows)
    shift = 1.0 - lowest if lowest < 1.0 else 0.0
    n_vars = n + m  # slacks start basic
    tableau = []
    for i in range(m):
        row = [x + shift for x in rows[i]] + [0.0] * m + [1.0]
        row[n + i] = 1.0
        tableau.append(row)
    tableau.append([-1.0] * n + [0.0] * m + [0.0])
    basis = list(range(n, n + m))
    optimal = _simplex_max(tableau, basis, n_vars)
    w = [0.0] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] = tableau[i][n_vars]
    total = left_sum(w)
    if not optimal or total <= 0.0:
        return None
    return [x / total for x in w], 1.0 / total - shift


def _solve(rows, screened=False):
    """Solve a matrix game, given as lists of Python floats, and
    saddle-check the result.

    Returns (value, row strategy, col strategy, duality gap). Games that
    _kernel_solve settles need no pivot; the rest run the value LP twice,
    for the column strategy and value of rows and for the row strategy as
    the column strategy of -rows', each a primal solution: the duals read
    off the first LP's objective row can carry a pivot's rounding that the
    primal does not. screened says the screen found the game mixed (see
    _kernel_solve). Raises MatrixGameError when the simplex stalls,
    bounded by the pure maximin and minimax, or when the gap exceeds
    _SADDLE_TOL, bounded by the worst column payoff and the best row
    payoff of the strategies found.
    """
    settled = _kernel_solve(rows, screened)
    if settled is not None:
        return settled
    primal = _lp_column(rows)
    dual = _lp_column([[-x for x in column] for column in zip(*rows)])
    if primal is None or dual is None:
        raise MatrixGameError(
            "simplex did not reach an optimum",
            max(min(row) for row in rows), min(max(col) for col in zip(*rows)),
        )
    (col, value), (row_strategy, _) = primal, dual

    worst_col, best_row = _saddle_bounds(rows, row_strategy, col)
    gap = best_row - worst_col
    if gap > _SADDLE_TOL:
        raise MatrixGameError(f"duality gap {gap} above {_SADDLE_TOL}",
                              worst_col, best_row)
    return value, row_strategy, col, gap


def solve_value(rows: list) -> float:
    """Value-only solve on lists of Python floats; still saddle-checks the result.

    The same closed forms and LP as solve_matrix_game, minus the array
    packaging. local_solve does not call it: it keeps each game's strategies.
    """
    return _solve(rows)[0]


def solve_matrix_game(matrix) -> MatrixGameSolution:
    """Solve max_row min_col of a finite real matrix.

    Returns value and one optimal mixed strategy per player with duality gap
    at most _SADDLE_TOL. Output is deterministic for identical input.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")

    value, row_list, col_list, gap = _solve(arr.tolist())
    row = np.clip(np.array(row_list), 0.0, None)
    row /= row.sum()
    col = np.clip(np.array(col_list), 0.0, None)
    col /= col.sum()
    row.setflags(write=False)
    col.setflags(write=False)
    return MatrixGameSolution(
        value=value,
        row_strategy=row,
        col_strategy=col,
        duality_gap=max(gap, 0.0),
    )


def local_value(game, v: int, x) -> MatrixGameSolution:
    """Value and optimal strategies of the potential-adjusted game at v."""
    return solve_matrix_game(local_reward_matrix(game, v, x))


class MixedGames(NamedTuple):
    """The strategies of a solve's mixed games: states lists each once, and
    rows and cols hold their row and column strategies, one game after
    another in that order, each over its own actions."""

    states: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


# the record of every solve without a mixed game; nothing writes into it
_NO_MIXED = MixedGames(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


class LocalSolve(NamedTuple):
    """The listed states' local games at one potential x, each settled once.

    values holds each listed state's local value and NaN elsewhere. The
    solve keeps what settling took: each global row's minimum and column's
    maximum from the screen, and its mixed games' strategies as solved, so
    strategies() reads them and solves nothing. maximin and minimax are
    every state's pure maximin and minimax from the screen, listed or not:
    entries of its local game, which the pump's witness check reads as
    bounds on the payoffs of that game (pump._first_hop_threshold).
    """

    game: object
    x: np.ndarray
    values: np.ndarray
    row_min: np.ndarray
    col_max: np.ndarray
    maximin: np.ndarray
    minimax: np.ndarray
    mixed: MixedGames

    def strategies(self) -> tuple:
        """(row strategy, column strategy), each a Strategy covering the
        listed states, clipped at 0, built as one list. A pure saddle's are
        unit vectors at the first row and column attaining its value, as
        _kernel_solve picks them; a mixed game's are its solve's, read from
        the MixedGames record in the record's order."""
        flat = self.game.flat
        values = self.values.tolist()
        mixed = self.mixed.states.tolist()
        pure = [value == value for value in values]  # NaN: v is not listed
        for v in mixed:
            pure[v] = False
        out = []
        for first, extreme, played in ((flat.first_row, self.row_min, self.mixed.rows),
                                       (flat.first_col, self.col_max, self.mixed.cols)):
            starts, extreme, played = first.tolist(), extreme.tolist(), played.tolist()
            mix = [0.0] * starts[-1]
            for v, (value, start, stop) in enumerate(zip(values, starts, starts[1:])):
                if pure[v]:
                    mix[extreme.index(value, start, stop)] = 1.0
                elif value != value:
                    mix[start:stop] = [np.nan] * (stop - start)
            offset = 0
            for v in mixed:
                start, stop = starts[v], starts[v + 1]
                mix[start:stop] = played[offset:offset + stop - start]
                offset += stop - start
            out.append(Strategy(np.maximum(mix, 0.0), first))
        return tuple(out)


# Calls with fewer mixed games of at most 3x3 than this settle them one at a
# time; from this many on, the batch is the faster (timeit table in CHANGES.md)
_BATCH_MIN_GAMES = 16

_AR3 = np.arange(3)
_PAIRS = np.array(list(combinations(range(3), 2)))  # (0, 1), (0, 2), (1, 2)
_FIRST, _SECOND = _PAIRS[:, 0], _PAIRS[:, 1]
_LAST = _SECOND[:, None]  # a pair (i, j), i < j, is a game's iff j < its size
# per candidate c = 3 * row pair + column pair: its (first, second) row and column
_CAND_ROW, _CAND_COL = _PAIRS[_AR3.repeat(3)].T, _PAIRS[np.tile(_AR3, 3)].T
# a[_SUB_ROWS, _SUB_COLS] is (2, 2, row pair, column pair, G): the entries of
# the nine 2x2 candidates, in lexicographic (row pair, column pair) order
_SUB_ROWS = _PAIRS.T[:, None, :, None]
_SUB_COLS = _PAIRS.T[None, :, None, :]
# b[_COF_ROWS, _COF_COLS] stacks the four factor matrices of the cofactors
# C[i][j] = b[i+1][j+1] * b[i+2][j+2] - b[i+1][j+2] * b[i+2][j+1], indices mod 3
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])
_COF_ROWS = np.stack([_NEXT, _AFTER, _NEXT, _AFTER])[:, :, None]
_COF_COLS = np.stack([_NEXT, _AFTER, _AFTER, _NEXT])[:, None, :]


def _batch_kernels(payoffs, flat, games, values):
    """Settle the mixed games of `games`, each at most 3x3, by their kernels
    together: the nine 2x2 candidates, then for a 3x3 that none settles its
    full adjugate, each in the float operations and order _kernel_solve
    uses, so values and strategies keep its bits, zero signs included.

    The games are gathered into a (3, 3, G) array, games last, so that each
    operation's inner loop runs over the games. Each game's last row and
    column are repeated into its padding, which changes no maximum over
    rows or minimum over columns, so each saddle check reads the game's own
    rows and columns; candidates that use a padding row or column are
    masked. Writes the value of every settled game into values and returns
    (settled, rows, cols): per game whether a kernel settled it, and the
    settled games' row and column strategies, one game after another in
    order, each over its own actions.

    A weight is NaN only where a quantity overflows. _kernel_solve's sign
    test, Python's min, lets a NaN through, but then every saddle sum of
    that candidate is NaN and its check fails, so it rejects the candidate
    as the batch's sign test does. Weights that pass are finite, so no
    saddle sum is NaN and numpy's max and min agree with Python's.
    """
    count = len(games)
    m, n = flat.row_count[games], flat.col_count[games]
    row_slot = flat.first_slot[games] + np.minimum(_AR3[:, None], m - 1) * n
    a = payoffs[row_slot[:, None] + np.minimum(_AR3[:, None], n - 1)]
    each = np.arange(count)
    with np.errstate(all="ignore"):
        sub = a[_SUB_ROWS, _SUB_COLS]
        corner = sub[0, 0]
        b = sub - corner
        b01, b10, b11 = b[0, 1], b[1, 0], b[1, 1]
        s = b11 - b10 - b01
        # per candidate: p1, p2, q1, q2 and its value
        solved = np.empty((5, 3, 3, count))
        p1, p2, q1, q2, value = solved
        np.divide(b11 - b10, s, out=p1)
        np.divide(-b01, s, out=p2)
        np.divide(b11 - b01, s, out=q1)
        np.divide(-b10, s, out=q2)
        np.subtract(corner, b01 * b10 / s, out=value)
        ok = (solved[:4] >= 0.0).all(0) & (s != 0.0)
        ok &= (_LAST < m)[:, None] & (_LAST < n)
        best_row = (a[:, None, _FIRST] * q1 + a[:, None, _SECOND] * q2).max(0)
        columns = a.transpose(1, 0, 2)
        worst_col = (p1 * columns[:, _FIRST, None] + p2 * columns[:, _SECOND, None]).min(0)
        ok &= best_row - worst_col <= _SADDLE_TOL
        ok = ok.reshape(9, count)
        first = ok.argmax(0)  # each game's first candidate that settles it
        settled = ok[first, each]
        p1, p2, q1, q2, value = solved.reshape(5, 9, count)[:, first, each]
        values[games[settled]] = value[settled]
        rows, cols = np.zeros((3, count)), np.zeros((3, count))
        pair_row, pair_col = _CAND_ROW[:, first], _CAND_COL[:, first]
        rows[pair_row[0], each], rows[pair_row[1], each] = p1, p2
        cols[pair_col[0], each], cols[pair_col[1], each] = q1, q2

        square = (~settled & (m == 3) & (n == 3)).nonzero()[0]
        if square.size:
            a = a[:, :, square]
            corner = a[0, 0]
            b = a - corner
            f = b[_COF_ROWS, _COF_COLS]
            cof = f[0] * f[1] - f[2] * f[3]
            # every sum left to right from +0.0, as left_sum adds floats
            sums = np.concatenate([cof, cof.transpose(1, 0, 2)])
            weights = 0.0 + sums[:, 0] + sums[:, 1] + sums[:, 2]  # row sums, column sums
            s = 0.0 + weights[0] + weights[1] + weights[2]
            det = b[0] * cof[0]
            value = corner + (0.0 + det[0] + det[1] + det[2]) / s
            weights /= s
            row, col = weights[:3], weights[3:]
            against = a * col
            mixed_by = row[:, None] * a
            gap = ((0.0 + against[:, 0] + against[:, 1] + against[:, 2]).max(0)
                   - (0.0 + mixed_by[0] + mixed_by[1] + mixed_by[2]).min(0))
            fit = (s != 0.0) & (weights >= 0.0).all(0) & (gap <= _SADDLE_TOL)
            square = square[fit]
            settled[square] = True
            values[games[square]] = value[fit]
            rows[:, square], cols[:, square] = row[:, fit], col[:, fit]
    keep = settled[:, None]
    return settled, rows.T[keep & (_AR3 < m[:, None])], cols.T[keep & (_AR3 < n[:, None])]


def _solve_each(flat, payoffs, values, games):
    """Solve the games of `games` one at a time, writing their values;
    returns their row and column strategies, each as one array in order.
    Only the games' own slots and sizes are converted to Python objects."""
    first, width = flat.first_slot, flat.col_count
    rows, cols = [], []
    for v in games.tolist():
        slots, step = payoffs[first[v]:first[v + 1]].tolist(), int(width[v])
        matrix = [slots[s:s + step] for s in range(0, len(slots), step)]
        values[v], row, col, _ = _solve(matrix, screened=True)
        rows += row
        cols += col
    return np.array(rows), np.array(cols)


def _settle_mixed(flat, payoffs, values, mixed) -> MixedGames:
    """Settle the games the screen found mixed, writing their values. With
    fewer than _BATCH_MIN_GAMES games of at most 3x3, every game is solved
    one at a time. With more, _batch_kernels settles those, and the games
    it leaves and the larger ones are solved one at a time after them."""
    if (mixed.size < _BATCH_MIN_GAMES  # too few for a batch: no mask is built
            or np.count_nonzero(small := (flat.row_count[mixed] <= 3)
                                & (flat.col_count[mixed] <= 3)) < _BATCH_MIN_GAMES):
        if not mixed.size:
            return _NO_MIXED
        return MixedGames(mixed, *_solve_each(flat, payoffs, values, mixed))
    settled, rows, cols = _batch_kernels(payoffs, flat, mixed[small], values)
    batched = small.copy()
    batched[small] = settled
    rest = mixed[~batched]
    more_rows, more_cols = _solve_each(flat, payoffs, values, rest)
    return MixedGames(np.concatenate([mixed[batched], rest]), np.concatenate([rows, more_rows]),
                      np.concatenate([cols, more_cols]))


def local_solve(game, x, states=None) -> LocalSolve:
    """Settle the local games of `states` at x: all states when None, else
    the state indices it lists or, as the pump passes them, a bool mask per
    state.

    First the pure-saddle screen over every state's local game at once:
    segmented reductions give each global row's minimum, each global
    column's maximum (over the flat view's column order), then each state's
    pure maximin and minimax, listed or not. Each listed state whose two
    values are exactly equal is a pure saddle, and its value is bit for bit
    the entry _kernel_solve returns: the reductions return entries, and
    equal entries are equal bits, as local_payoffs never returns -0.0 (its
    first term, a bincount total, is not -0.0, and a float sum or difference
    is -0.0 only if its first term is). The listed states that are not pure
    saddles, ascending, are mixed, settled by _settle_mixed.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = game.flat
    payoffs = local_payoffs(game, x)
    row_min = np.minimum.reduceat(payoffs, flat.row_start)
    col_max = np.maximum.reduceat(payoffs[flat.col_order], flat.col_start)
    maximin = np.maximum.reduceat(row_min, flat.first_row[:-1])
    minimax = np.minimum.reduceat(col_max, flat.first_col[:-1])
    listed = np.ones(game.n, dtype=bool) if states is None else state_mask(game.n, states)
    saddle = listed & (maximin == minimax)
    values = np.where(saddle, maximin, np.nan)
    # saddle is a subset of listed, so listed ^ saddle is listed & ~saddle
    mixed = _settle_mixed(flat, payoffs, values, (listed ^ saddle).nonzero()[0])
    return LocalSolve(game=game, x=x, values=values, row_min=row_min, col_max=col_max,
                      maximin=maximin, minimax=minimax, mixed=mixed)


def local_values(game, x, states=None) -> np.ndarray:
    """Vector of local values; entries outside `states` are NaN."""
    return local_solve(game, x, states).values
