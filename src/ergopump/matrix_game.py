"""Zero-sum matrix game solver.

Settles the local games of a stochastic game in three stages.

1. A screen over all states at once (local_solve) takes each state's pure
   maximin and minimax; every listed state whose two values are exactly
   equal is a pure saddle, settled by unit strategies at the first row and
   column attaining them. A game of _NUMPY_MIN_STATES states
   or more whose every state has at most 3 actions per player is read once
   as a (9, n) block of its local games padded to 3x3, and the screen is
   four axis reductions of it; any other game's screen is segmented
   reductions over the flat view's slots. Both return the same bits.
2. Closed-form kernels: a pure saddle or, up to 3x3, the first Shapley-Snow
   kernel, a square submatrix whose adjugate gives the value and both
   strategies (Shapley and Snow, Basic solutions of discrete games, 1950),
   kept when its strategies are non-negative and pass the saddle check.
   Games the screen found mixed skip the saddle test, which they have
   already failed; a game with one row or one column is always a pure
   saddle, so the screen never forwards one. A call whose mixed games of at
   most 3x3 number _BATCH_MIN_GAMES or more settles those together in numpy
   (_batch_kernels): each game a column of 9 entries, (i, j) at 3i + j,
   taken from the screen's block where it read one and gathered from the
   payoffs otherwise, which constant index tables read; ten candidates at
   once, the nine 2x2s and then the full 3x3 adjugate, in one table, in the
   scalar kernel's float operations and order, each game keeping its own
   saddle check and its first candidate that passes, so values and
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
mixed games' strategies, which the batch and the scalar kernels write in
place, one array over the global actions per player, as a Strategy holds
them. Its values serve the pump and the band check, and its pure bounds
the pump's witness check; a player's strategy is laid out only when a
certificate asks for it, so no game is solved twice for it. The screen
returns bit for bit what the kernels return for the games it settles.
Every stage is deterministic, and every float sum in the scalar kernels
adds left to right from +0.0 (left_sum), as the batch does, so results
are bit-reproducible on every Python version. Every solve saddle-checks
the strategies it returns; a solve that stalls or fails that check raises
MatrixGameError.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .game import Strategy, _padded_games, local_payoffs, local_reward_matrix, state_mask

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


class LocalSolve(NamedTuple):
    """The listed states' local games at one potential x, each settled once.

    values holds each listed state's local value and NaN elsewhere. The
    solve keeps what settling took: each global row's minimum and column's
    maximum from the screen, and its mixed games' strategies as solved, in
    row_mix and col_mix, arrays over the global rows and columns, NaN
    outside the mixed games (None when no game was mixed), so strategy()
    reads them and solves nothing. maximin and minimax are every state's
    pure maximin and minimax from the screen, listed or not: entries of its
    local game, which the pump's witness check reads as bounds on the
    payoffs of that game (pump._first_hop_threshold).
    """

    game: object
    x: np.ndarray
    values: np.ndarray
    row_min: np.ndarray
    col_max: np.ndarray
    maximin: np.ndarray
    minimax: np.ndarray
    row_mix: np.ndarray | None
    col_mix: np.ndarray | None

    def strategy(self, player: str) -> Strategy:
        """The row ("row") or column ("col") player's strategy, covering
        exactly the states values lists, clipped at 0. A pure saddle, a
        listed state whose maximin equals its minimax, plays the unit vector
        at its first row (column) whose minimum (maximum) is its value, as
        _kernel_solve picks it; any other listed state's game is mixed and
        plays its slice of row_mix (col_mix).

        Below _NUMPY_MIN_STATES states a Python loop lays out one state at a
        time; from there on numpy lays out all of them at once, each pure
        saddle's unit entry at the least action of its state whose extreme
        is its value (a segmented minimum), bit for bit the loop's array."""
        if player not in ("row", "col"):
            raise ValueError("player must be 'row' or 'col'")
        flat = self.game.flat
        first, count, extreme, mix = (
            (flat.first_row, flat.row_count, self.row_min, self.row_mix) if player == "row"
            else (flat.first_col, flat.col_count, self.col_max, self.col_mix))
        if self.game.n >= _NUMPY_MIN_STATES:
            values = self.values
            listed = values == values  # NaN: not listed
            pure = listed & (self.maximin == self.minimax)
            out = np.repeat(np.where(listed, 0.0, np.nan), count)
            if mix is not None:  # pure is a subset of listed: listed ^ pure is mixed
                np.copyto(out, mix, where=np.repeat(listed ^ pure, count))
            hits = np.where(extreme == np.repeat(values, count), np.arange(out.size), out.size)
            out[np.minimum.reduceat(hits, first[:-1])[pure]] = 1.0
            return Strategy(np.maximum(out, 0.0), first)
        starts, extreme, values = first.tolist(), extreme.tolist(), self.values.tolist()
        mix = [] if mix is None else mix.tolist()  # None: no game was mixed
        pure = (self.maximin == self.minimax).tolist()
        out = [0.0] * starts[-1]
        for v, (value, start, stop) in enumerate(zip(values, starts, starts[1:])):
            if value != value:  # NaN: v is not listed
                out[start:stop] = [np.nan] * (stop - start)
            elif pure[v]:
                out[extreme.index(value, start, stop)] = 1.0
            else:
                out[start:stop] = mix[start:stop]
        return Strategy(np.maximum(out, 0.0), first)


# Below this many states, LocalSolve.strategy, pump.partition and the
# extremes of pump._first_hop_leaks walk the states in Python, and
# local_solve screens by segmented reductions; from this many on they run in
# numpy and local_solve reads a game of at most 3 actions per player as one
# padded block, which costs more per call on the corpus's 2 to 5 states and
# less at the ladder's 128 and 256 (timeit tables in CHANGES.md)
_NUMPY_MIN_STATES = 64

# Calls with fewer mixed games of at most 3x3 than this settle them one at a
# time; from this many on, the batch is the faster (timeit table in CHANGES.md)
_BATCH_MIN_GAMES = 16

# The batch reads each game as a flat (9, G) block, entry (i, j) of its padded
# 3x3 matrix at 3i + j. Candidate c < 9, c = 3 * row pair + column pair, the
# pairs in lexicographic order, is the 2x2 on rows _R1[c] < _R2[c] and columns
# _C1[c] < _C2[c]; candidate 9 is the full 3x3, on rows and columns 0 and 1 and
# then 2.
_PAIRS = np.array(list(combinations(range(3), 2)))  # (0, 1), (0, 2), (1, 2)
(_R1, _R2), (_C1, _C2) = (np.append(pairs, [[0], [1]], 1) for pairs in
                          (_PAIRS.repeat(3, 0).T, np.tile(_PAIRS, (3, 1)).T))
_K = np.arange(3)[:, None]  # an action index k, down a table's first axis
# per 2x2 candidate: its corner (r1, c1), then the entries its b10, b01 and b11 shift
_ENTRIES = np.stack([3 * _R1 + _C1, 3 * _R2 + _C1, 3 * _R1 + _C2, 3 * _R2 + _C2])[:, :9]
# per weight p1, q1, p2, q2, k and candidate: the entry the weight multiplies
# in the saddle check, column k of row r1, row k of column c1, column k of row
# r2, row k of column c2; the full 3x3's third weights, p3 and q3, multiply
# column k of row 2 and row k of column 2 (_THIRD)
_SADDLE = np.stack([3 * _R1 + _K, 3 * _K + _C1, 3 * _R2 + _K, 3 * _K + _C2])
_THIRD = np.stack([6 + _K[:, 0], 3 * _K[:, 0] + 2])
# per candidate c: its value, then each row action's weight, then each column
# action's, as the index 10 * row + c of the solved table's (row, candidate)
# pair, its rows p1, q1, p2, q2, p3, q3, value; a 2x2's p3 and q3 are 0.0
_PICK = 10 * np.concatenate([np.full((1, 10), 6),
                             np.where(_K == _R1, 0, np.where(_K == _R2, 2, 4)),
                             np.where(_K == _C1, 1, np.where(_K == _C2, 3, 5))]) + np.arange(10)
# b.take(_COF) stacks the four factor matrices of the cofactors
# C[i][j] = b[i+1][j+1] * b[i+2][j+2] - b[i+1][j+2] * b[i+2][j+1], indices mod 3
_COF = np.stack([3 * ((_K + di) % 3) + (_K.T + dj) % 3
                 for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))])
# cof.take(_SUMS) stacks, per term t, the cofactors each of the 3x3's weights
# p1, q1, p2, q2, p3, q3 sums: C[i][t] for p at row i, C[t][j] for q at column j
_SUMS = np.stack([3 * _K.T + _K, 3 * _K + _K.T], -1).reshape(3, 6)


def _batch_kernels(a, flat, games, own, values, mix):
    """Settle the mixed games of `games`, each at most 3x3, by their kernels
    together: ten candidates, the nine 2x2s and then the full 3x3 adjugate,
    each in the float operations and order _kernel_solve uses, so values and
    strategies keep its bits, zero signs included.

    a is the games' (9, G) block, games last, entry (i, j) at 3i + j, so
    that each operation's inner loop runs over the games, and own (6, G)
    whether each game has row k, at [k], and column l, at [3 + l]
    (game._padded_games gives both). A game's last row and column
    are repeated into its padding, which changes no maximum over rows or
    minimum over columns, so each saddle check reads the game's own rows and
    columns. A candidate that uses a padding row (column) needs no mask:
    with the game's last row (column) a 2x2 repeats, bit for bit, a
    candidate that comes earlier, and with two equal rows (columns) its s is
    0.0; the 3x3 of a game with two equal rows (columns), whose cofactors
    then cancel in pairs bit for bit, has an s of 0.0 or NaN and a first row
    weight (every row weight) of NaN, so it fails the sign test.

    Constant tables index the block: the 2x2s' corners and the entries
    their b10, b01 and b11 shift (_ENTRIES), the 3x3's cofactor factors and
    the cofactors each of its weights sums (_COF, _SUMS), the entries each
    weight multiplies in the saddle check (_SADDLE, _THIRD), and where each
    game's value and strategies lie once its first settling candidate is
    known (_PICK). All ten candidates' weights are one (6, 10, G) table,
    p1, q1, p2, q2, p3, q3, where a 2x2's p3 and q3 are 0.0, with one
    division and one sign test; one saddle check adds each line's two
    products, then the 3x3's third, which gives the values of _kernel_solve's
    left sums from +0.0, up to the signs of zeros, which no comparison reads. One gather picks each
    game's first settling candidate and one scatter writes its strategies
    at the actions the game owns.

    Writes a value into values for every game and its strategies into mix,
    the global rows' strategies followed by the global columns', at the
    game's own actions, and returns per game whether a kernel settled it;
    a game it leaves gets its first candidate's numbers, which its solve
    one at a time then overwrites.

    A weight is NaN only where a quantity overflows. _kernel_solve's sign
    test, Python's min, lets a NaN through, but then every saddle sum of
    that candidate is NaN and its check fails, so it rejects the candidate
    as the batch's sign test does. Weights that pass are finite, so no
    saddle sum is NaN and numpy's max and min agree with Python's. A
    candidate whose s is 0.0, which _kernel_solve skips, fails the sign
    test: a 2x2's b11 - b10 is then exactly b01, so p1 and p2 are b01 / s
    and -b01 / s, of opposite signs or NaN; a 3x3's s, a left sum from
    +0.0, is then +0.0, and its row sums are all zero (NaN weights) or
    some row sum is negative (a weight of -inf).
    """
    count = len(games)
    with np.errstate(all="ignore"):
        solved = np.empty((7, 10, count))  # per candidate: p1, q1, p2, q2, p3, q3, value
        weights, s = solved[:6], np.empty((10, count))
        entries = a.take(_ENTRIES, 0)
        corner = entries[0]
        b = entries[1:] - corner  # b10, b01, b11
        b10, b01, b11 = b
        np.subtract(b11, b[:2], out=weights[:2, :9])
        np.negative(b[1::-1], out=weights[2:4, :9])
        np.subtract(weights[0, :9], b01, out=s[:9])
        np.subtract(corner, b01 * b10 / s[:9], out=solved[6, :9])
        # the 3x3's cofactors of a shifted by its corner; every sum left to
        # right from +0.0, as left_sum adds floats
        b = a - a[0]
        f = b.take(_COF, 0)
        cof = (f[0] * f[1] - f[2] * f[3]).reshape(9, count)
        terms = cof.take(_SUMS, 0)
        np.add(0.0 + terms[0] + terms[1], terms[2], out=weights[:, 9])
        np.add(0.0 + weights[0, 9] + weights[2, 9], weights[4, 9], out=s[9])
        det = b[:3] * cof[:3]
        solved[6, 9] = a[0] + (0.0 + det[0] + det[1] + det[2]) / s[9]
        weights /= s
        weights[4:, :9] = 0.0
        ok = (weights >= 0.0).all(0)
        # p1 and p2 times rows r1 and r2, q1 and q2 times columns c1 and c2
        products = a.take(_SADDLE, 0)
        products *= weights[:4, None]
        # (2, 3, 10, G): each column's payoff against p, each row's against q
        payoff = products[:2] + products[2:]
        payoff[:, :, 9] += a.take(_THIRD, 0) * weights[4:, None, 9]
        ok &= payoff[1].max(0) - payoff[0].min(0) <= _SADDLE_TOL
        first = ok.argmax(0)  # each game's first candidate that settles it
        # value, row weights, column weights of each game's first candidate
        picked = solved.take(_PICK.take(first, 1) * count + np.arange(count))
    values[games] = picked[0]
    start = np.concatenate((flat.first_row[games], flat.first_col[games] + len(flat.row_start)))
    mix[(start.reshape(2, 1, count) + _K).reshape(6, count)[own]] = picked[1:][own]
    return ok.any(0)


def _solve_each(flat, payoffs, values, games, row_mix, col_mix):
    """Solve the games of `games` one at a time, writing their values into
    values and their strategies into row_mix and col_mix. Only the games'
    own slots and sizes are converted to Python objects."""
    first, width = flat.first_slot, flat.col_count
    first_row, first_col = flat.first_row, flat.first_col
    for v in games.tolist():
        slots, step = payoffs[first[v]:first[v + 1]].tolist(), int(width[v])
        matrix = [slots[s:s + step] for s in range(0, len(slots), step)]
        (values[v], row_mix[first_row[v]:first_row[v + 1]],
         col_mix[first_col[v]:first_col[v + 1]], _) = _solve(matrix, screened=True)


def _settle_mixed(flat, payoffs, values, mixed, padded, block):
    """Settle the games the screen found mixed, writing their values, and
    return (row_mix, col_mix), their strategies over the global rows and
    columns, NaN elsewhere, two views of one buffer; (None, None) when no
    game is mixed. With fewer than _BATCH_MIN_GAMES games of at most 3x3,
    every game is solved one at a time. With more, _batch_kernels settles
    those, writing into the one buffer, and the games it leaves and the
    larger ones are solved one at a time after them. Where the screen read
    the game's padded view and (9, n) block (else both are None), every game
    is at most 3x3: the batch takes the mixed indices as they are, their
    columns of the block and the actions they own from the view. Otherwise,
    when every mixed game is at most 3x3, the batch still takes the mixed
    indices as they are, with no mask of the small ones to build and copy,
    and gathers their blocks from payoffs by the same padding
    (game._padded_games)."""
    if not mixed.size:
        return None, None
    rows = len(flat.row_start)
    both = np.empty(rows + len(flat.col_start))
    both.fill(np.nan)  # empty and fill: np.full runs in Python and is 2.5x as slow
    if mixed.size >= _BATCH_MIN_GAMES:  # else too few for a batch: no mask is built
        if block is not None:  # the screen's block: every game is at most 3x3
            mixed = mixed[~_batch_kernels(block.take(mixed, 1), flat, mixed,
                                          padded.owns.take(mixed, 1), values, both)]
        else:
            small = (flat.row_count[mixed] <= 3) & (flat.col_count[mixed] <= 3)
            fits = np.count_nonzero(small)
            if fits == mixed.size:
                slots, own = _padded_games(flat, mixed)
                mixed = mixed[~_batch_kernels(payoffs.take(slots), flat, mixed, own, values, both)]
            elif fits >= _BATCH_MIN_GAMES:
                batched, games = small.copy(), mixed[small]
                slots, own = _padded_games(flat, games)
                batched[small] = _batch_kernels(payoffs.take(slots), flat, games, own, values, both)
                mixed = mixed[~batched]
    mix = both[:rows], both[rows:]
    _solve_each(flat, payoffs, values, mixed, *mix)
    return mix


def local_solve(game, x, states=None) -> LocalSolve:
    """Settle the local games of `states` at x: all states when None, else
    the state indices it lists or, as the pump passes them, a bool mask per
    state.

    First the pure-saddle screen over every state's local game at once:
    each global row's minimum, each global column's maximum, then each
    state's pure maximin and minimax, listed or not. A game of at least
    _NUMPY_MIN_STATES states whose every state has at most 3 actions per
    player is read as one (9, n) block of its games padded to 3x3 (its
    GameSpec's padded_view, built once per game), and the screen is four
    axis reductions of that block: padding repeats a game's last row and
    column, which changes no row minimum, column maximum, maximin or
    minimax, and min and max are exact, so they return the segmented
    reductions' bits. Any other game runs segmented reductions over the
    flat view's slots (and its column order). Each listed state whose two
    values are exactly equal is a pure saddle, and its value is bit for bit
    the entry _kernel_solve returns: the reductions return entries, and
    equal entries are equal bits, as local_payoffs never returns -0.0 (its
    first term, a bincount total, is not -0.0, and a float sum or difference
    is -0.0 only if its first term is). The listed states that are not pure
    saddles, ascending, are mixed, settled by _settle_mixed, which takes the
    block's columns for its batch where the block was read.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = game.flat
    payoffs = local_payoffs(game, x)
    padded = game.padded_view() if game.n >= _NUMPY_MIN_STATES else None
    if padded is None:
        block = None
        row_min = np.minimum.reduceat(payoffs, flat.row_start)
        col_max = np.maximum.reduceat(payoffs[flat.col_order], flat.col_start)
        maximin = np.maximum.reduceat(row_min, flat.first_row[:-1])
        minimax = np.minimum.reduceat(col_max, flat.first_col[:-1])
    else:
        block = payoffs.take(padded.slots)
        grid = block.reshape(3, 3, -1)  # [i, j, v]: entry (i, j) of v's padded game
        lows, highs = grid.min(1), grid.max(0)  # each padded row's minimum, column's maximum
        row_min, col_max = lows.take(padded.row_at), highs.take(padded.col_at)
        maximin, minimax = lows.max(0), highs.min(0)
    listed = np.ones(game.n, dtype=bool) if states is None else state_mask(game.n, states)
    saddle = listed & (maximin == minimax)
    values = np.where(saddle, maximin, np.nan)
    # saddle is a subset of listed, so listed ^ saddle is listed & ~saddle
    row_mix, col_mix = _settle_mixed(flat, payoffs, values, (listed ^ saddle).nonzero()[0],
                                     padded, block)
    return LocalSolve(game=game, x=x, values=values, row_min=row_min, col_max=col_max,
                      maximin=maximin, minimax=minimax, row_mix=row_mix, col_mix=col_mix)


def local_values(game, x, states=None) -> np.ndarray:
    """Vector of local values; entries outside `states` are NaN."""
    return local_solve(game, x, states).values
