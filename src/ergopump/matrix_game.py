"""Zero-sum matrix game solver.

Settles the local games of a stochastic game in three stages.

1. A screen over all states at once (local_solve): each state's pure
   maximin and minimax come from segmented numpy reductions over the flat
   view's slots, and every listed state whose two values are exactly equal
   is a pure saddle, settled by unit strategies at the first row and column
   attaining them.
2. Closed-form kernels, per remaining game: a pure saddle or, up to 3x3,
   the first Shapley-Snow kernel, a square submatrix whose adjugate gives
   the value and both strategies (Shapley and Snow, Basic solutions of
   discrete games, 1950), kept when its strategies are non-negative and
   pass the saddle check. Games the screen found mixed skip the saddle
   test, which they have already failed; a game with one row or one column
   is always a pure saddle, so the screen never forwards one.
3. The classic value LP, for larger games and any small one no kernel
   settles: shift the matrix positive, maximize the column player's scaled
   mixed strategy against unit bounds, and read the row player's strategy
   off the duals. The simplex is self-contained (Dantzig entering rule,
   switching to Bland's rule after a pivot budget to rule out cycling).

A LocalSolve is the one record of a potential and its local games: the
potential x, and what settling the games took, namely the screen's row
minima and column maxima and each mixed game's strategies. Its values serve
the pump and the band check; the strategies are laid out per state only
when a certificate asks for them, so no game is solved twice for them. The
screen returns bit for bit what the kernels return for the games it settles.
Every stage is deterministic, so results are bit-reproducible. Every solve
saddle-checks the strategies it returns; a solve that stalls or fails that
check raises MatrixGameError.
"""

from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import NamedTuple

import numpy as np

from .game import local_payoffs, local_reward_matrix, state_mask

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


def _saddle_bounds(rows, row_strategy, col):
    """(worst column payoff of row_strategy, best row payoff against col)."""
    best_row = max(sum(map(mul, row, col)) for row in rows)
    worst_col = min(sum(map(mul, row_strategy, column)) for column in zip(*rows))
    return worst_col, best_row


def _kernel_solve(a, screened=False):
    """Closed-form solve of a float row-list matrix, or None if none settles it.

    A game whose maximin equals its minimax exactly is a pure saddle: unit
    strategies at the first row and column attaining them, gap 0. A single
    row or column always is one: its row minima and column maxima are that
    row or column. A game the screen found mixed (screened) is not, so that
    test is skipped. Otherwise, up to 3x3, each square submatrix B is a
    Shapley-Snow kernel candidate, the 2x2 ones in lexicographic (row pair,
    column pair) order, then the full 3x3. With C the cofactor matrix of B
    and s the sum of its entries (1' adj B 1), the candidate's row strategy
    is C's row sums over s, its column strategy C's column sums over s and
    its value det B / s; candidates with s exactly 0.0 are skipped. B is
    shifted by its corner entry first, which leaves C's sums unchanged and
    keeps det B from cancelling a large common offset. A 2x2 candidate's
    weights are sign-tested before anything is allocated, and its saddle
    bounds read only its two rows and two columns, where the strategies
    have their mass.
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
        row_weights = [sum(row) for row in cof]
        s = sum(row_weights)
        if s != 0.0:
            return _settles(a, corner + sum(map(mul, b[0], cof[0])) / s,
                            [w / s for w in row_weights],
                            [sum(column) / s for column in zip(*cof)])
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


def _solve(rows, screened=False):
    """Solve a matrix game, given as lists of Python floats, and
    saddle-check the result.

    Returns (value, row strategy, col strategy, duality gap). Games that
    _kernel_solve settles need no pivot; the rest run the value LP.
    screened says the screen found the game mixed (see _kernel_solve). Raises
    MatrixGameError when the simplex stalls, bounded by the pure maximin
    and minimax, or when the gap exceeds _SADDLE_TOL, bounded by the worst
    column payoff and the best row payoff of the strategies found.
    """
    settled = _kernel_solve(rows, screened)
    if settled is not None:
        return settled
    m = len(rows)
    n = len(rows[0])

    lowest = min(min(row) for row in rows)
    shift = 1.0 - lowest if lowest < 1.0 else 0.0

    # maximize sum(w) s.t. shifted @ w <= 1, w >= 0; slacks start basic
    n_vars = n + m
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
    total = sum(w)
    # duals live in the objective row under the slack columns
    y = [x if x > 0.0 else 0.0 for x in tableau[m][n:n_vars]]
    y_total = sum(y)
    if not optimal or total <= 0.0 or y_total <= 0.0:
        raise MatrixGameError(
            "simplex did not reach an optimum",
            max(min(row) for row in rows), min(max(col) for col in zip(*rows)),
        )
    col = [x / total for x in w]
    row_strategy = [x / y_total for x in y]
    value = 1.0 / total - shift

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


def _screen(game, x, states):
    """The pure-saddle screen over every state's local game at x at once.

    Segmented reductions give each global row's minimum, each global
    column's maximum (over the flat view's column order), then each state's
    pure maximin and minimax. Returns (payoffs, values, mixed, row_min,
    col_max): every slot's payoff; per state, the value of each listed pure
    saddle, whose two values are exactly equal, NaN elsewhere; the listed
    states that are not pure saddles, ascending; and each global row's
    minimum and column's maximum. A value is bit for bit the entry
    _kernel_solve returns: the reductions return entries, and equal entries
    are equal bits, as local_payoffs never returns -0.0 (its first term, a
    bincount total, is not -0.0, and a float sum or difference is -0.0 only
    if its first term is).
    """
    flat = game.flat
    payoffs = local_payoffs(game, x)
    row_min = np.minimum.reduceat(payoffs, flat.row_start)
    col_max = np.maximum.reduceat(payoffs[flat.col_order], flat.col_start)
    lower = np.maximum.reduceat(row_min, flat.first_row[:-1])
    listed = np.ones(game.n, dtype=bool) if states is None else state_mask(game.n, states)
    saddle = listed & (lower == np.minimum.reduceat(col_max, flat.first_col[:-1]))
    values = np.where(saddle, lower, np.nan)
    # saddle is a subset of listed, so listed ^ saddle is listed & ~saddle
    return payoffs, values, (listed ^ saddle).nonzero()[0], row_min, col_max


class LocalSolve(NamedTuple):
    """The listed states' local games at one potential x, each settled once.

    values holds each listed state's local value and NaN elsewhere. The
    solve keeps what settling took: each global row's minimum and column's
    maximum from the screen, and each mixed game's (row, column) strategy
    lists from its kernel or LP, so strategies() reads them and solves
    nothing.
    """

    game: object
    x: np.ndarray
    values: np.ndarray
    row_min: np.ndarray
    col_max: np.ndarray
    mixed: dict  # state -> (row strategy, column strategy) of its solve

    def strategies(self) -> tuple[dict, dict]:
        """(row strategies, column strategies): each listed state, ascending,
        to its vector, clipped at 0. A pure saddle's are unit vectors at the
        first row and column attaining its value, as _kernel_solve picks
        them; a mixed game's are its solve's."""
        flat = self.game.flat
        first_row, first_col = flat.first_row.tolist(), flat.first_col.tolist()
        row_min, col_max = self.row_min.tolist(), self.col_max.tolist()
        values = self.values.tolist()
        rows, cols = {}, {}
        for v in (~np.isnan(self.values)).nonzero()[0].tolist():
            if v in self.mixed:
                row, col = self.mixed[v]
                rows[v], cols[v] = np.maximum(row, 0.0), np.maximum(col, 0.0)
                continue
            for out, first, extreme in ((rows, first_row, row_min), (cols, first_col, col_max)):
                start, stop = first[v], first[v + 1]
                out[v] = np.array(_unit(stop - start, extreme.index(values[v], start, stop) - start))
        return rows, cols


def local_solve(game, x, states=None) -> LocalSolve:
    """Settle the local games of `states` at x: all states when None, else
    the state indices it lists or, as the pump passes them, a bool mask per
    state. The screen settles the pure saddles, and each other game takes
    one solve."""
    x = np.asarray(x, dtype=np.float64)
    payoffs, values, mixed, row_min, col_max = _screen(game, x, states)
    solved = {}
    if mixed.size:
        payoffs = payoffs.tolist()
        first, width = game.flat.first_slot.tolist(), game.flat.col_count.tolist()
        for v in mixed.tolist():
            rows = [payoffs[s:s + width[v]] for s in range(first[v], first[v + 1], width[v])]
            values[v], row, col, _ = _solve(rows, screened=True)
            solved[v] = row, col
    return LocalSolve(game=game, x=x, values=values, row_min=row_min, col_max=col_max,
                      mixed=solved)


def local_values(game, x, states=None) -> np.ndarray:
    """Vector of local values; entries outside `states` are NaN."""
    return local_solve(game, x, states).values

