"""Zero-sum matrix game solver.

Solves small dense matrix games by the classic value LP: shift the matrix
positive, maximize the column player's scaled mixed strategy against unit
bounds, and read the row player's strategy off the duals. The simplex is
self-contained (Dantzig entering rule, switching to Bland's rule after a
pivot budget to rule out cycling) so results are bit-reproducible.

An exact mode runs the same pivoting over Fractions for paranoid
verification at tiny sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_PIVOT_EPS = 1e-11
_SADDLE_TOL = 1e-9  # largest duality gap a float solve may return
_BLAND_AFTER = 200
_MAX_PIVOTS = 10_000


class MatrixGameError(RuntimeError):
    """LP did not converge; carries the best value bounds found so far."""

    def __init__(self, message: str, lower: float, upper: float):
        super().__init__(f"{message} (best bounds: [{lower}, {upper}])")
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class MatrixGameSolution:
    """Minimax value and optimal mixed strategies of one matrix game."""

    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray
    duality_gap: float
    value_exact: Fraction | None = None
    row_exact: tuple[Fraction, ...] | None = None
    col_exact: tuple[Fraction, ...] | None = None


def _simplex_max(tableau, basis, n_vars, *, zero, pos_tol):
    """In-place primal simplex on a maximization tableau.

    tableau rows: m constraint rows [coeffs | rhs] plus one objective row
    holding negated reduced costs. Returns the number of pivots performed.
    """
    m = len(basis)
    obj = tableau[m]
    pivots = 0
    while True:
        # entering column: Dantzig first, Bland once the budget is burned
        enter = -1
        if pivots < _BLAND_AFTER:
            best = zero
            for j in range(n_vars):
                if obj[j] < best:
                    best = obj[j]
                    enter = j
        else:
            for j in range(n_vars):
                if obj[j] < zero:
                    enter = j
                    break
        if enter < 0:
            return pivots
        if pivots >= _MAX_PIVOTS:
            raise _PivotBudgetExceeded()
        # leaving row: minimum ratio, ties broken by lowest basic variable
        leave = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > pos_tol:
                ratio = tableau[i][n_vars] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise _PivotBudgetExceeded()  # unbounded: impossible for shifted games
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


class _PivotBudgetExceeded(Exception):
    pass


def _saddle_gap(rows, row_strategy, col_strategy):
    """Duality gap: best pure-row payoff against col minus worst column
    payoff against row."""
    m, n = len(rows), len(rows[0])
    best_row = max(
        sum(rows[k][l] * col_strategy[l] for l in range(n)) for k in range(m)
    )
    worst_col = min(
        sum(row_strategy[k] * rows[k][l] for k in range(m)) for l in range(n)
    )
    return best_row - worst_col


def solve_value(rows: list) -> float:
    """Value-only solve on a row-list matrix; still saddle-checks the result.

    This is the pump loop's hot path: same LP as solve_matrix_game, minus
    the array packaging.
    """
    value, row_strategy, col_strategy = _solve_core(rows, exact=False)
    gap = _saddle_gap(rows, row_strategy, col_strategy)
    if gap > _SADDLE_TOL:
        raise MatrixGameError(
            "LP did not converge", value - gap, value + gap
        )
    return value


def _solve_core(matrix, *, exact: bool):
    """Run the value LP; returns (value, row, col) in the input arithmetic."""
    if exact:
        rows = [[Fraction(x) for x in row] for row in matrix]
        zero, one, pos_tol = Fraction(0), Fraction(1), Fraction(0)
    else:
        rows = [[float(x) for x in row] for row in matrix]
        zero, one, pos_tol = 0.0, 1.0, _PIVOT_EPS
    m = len(rows)
    n = len(rows[0])

    lowest = min(min(row) for row in rows)
    shift = one - lowest if lowest < one else zero
    shifted = [[x + shift for x in row] for row in rows]

    # maximize sum(w) s.t. shifted @ w <= 1, w >= 0; slacks start basic
    n_vars = n + m
    tableau = []
    for i in range(m):
        row = shifted[i] + [zero] * m + [one]
        row[n + i] = one
        tableau.append(row)
    obj = [-one] * n + [zero] * m + [zero]
    tableau.append(obj)
    basis = list(range(n, n + m))

    _simplex_max(tableau, basis, n_vars, zero=zero, pos_tol=pos_tol)

    w = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] = tableau[i][n_vars]
    total = sum(w)
    if total <= zero:
        raise MatrixGameError("LP did not converge", float("-inf"), float("inf"))
    col = [x / total for x in w]
    # duals live in the objective row under the slack columns
    y = [tableau[m][n + i] for i in range(m)]
    y = [x if x > zero else zero for x in y]
    y_total = sum(y)
    if y_total <= zero:
        raise MatrixGameError("LP did not converge", float("-inf"), float("inf"))
    row_strategy = [x / y_total for x in y]
    value = one / total - shift
    return value, row_strategy, col


def solve_matrix_game(matrix, exact: bool = False) -> MatrixGameSolution:
    """Solve max_row min_col of a finite real matrix.

    Returns value and one optimal mixed strategy per player with duality gap
    at most _SADDLE_TOL. Output is deterministic for identical input. In
    exact mode the same pivoting runs over Fractions and the exact solution
    is attached.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("matrix must be 2-dimensional and non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")

    exact_fields = {}
    try:
        if exact:
            val_x, row_x, col_x = _solve_core(
                [[Fraction(float(x)) for x in row] for row in arr], exact=True
            )
            exact_fields = dict(
                value_exact=val_x,
                row_exact=tuple(row_x),
                col_exact=tuple(col_x),
            )
            value = float(val_x)
            row = np.array([float(x) for x in row_x])
            col = np.array([float(x) for x in col_x])
        else:
            value, row_list, col_list = _solve_core(arr.tolist(), exact=False)
            row = np.array(row_list)
            col = np.array(col_list)
    except _PivotBudgetExceeded:
        raise MatrixGameError(
            "LP did not converge", float(np.max(np.min(arr, axis=1))),
            float(np.min(np.max(arr, axis=0))),
        ) from None

    row = np.clip(row, 0.0, None)
    row /= row.sum()
    col = np.clip(col, 0.0, None)
    col /= col.sum()
    row.setflags(write=False)
    col.setflags(write=False)

    col_payoffs = arr @ col  # row player's payoffs against col strategy
    row_payoffs = row @ arr
    gap = float(np.max(col_payoffs) - np.min(row_payoffs))
    if not exact and gap > _SADDLE_TOL:
        raise MatrixGameError("LP did not converge", float(np.min(row_payoffs)),
                              float(np.max(col_payoffs)))
    return MatrixGameSolution(
        value=float(value),
        row_strategy=row,
        col_strategy=col,
        duality_gap=max(gap, 0.0),
        **exact_fields,
    )


def local_value(game, v: int, x, exact: bool = False) -> MatrixGameSolution:
    """Value and optimal strategies of the potential-adjusted game at v."""
    from .game import local_reward_matrix

    return solve_matrix_game(local_reward_matrix(game, v, x), exact=exact)


def local_values(game, x, states=None) -> np.ndarray:
    """Vector of local values; entries outside `states` are NaN."""
    n = game.n
    x = np.asarray(x, dtype=np.float64)
    out = np.full(n, np.nan)
    indices = range(n) if states is None else states
    for v in indices:
        entries = game.expected_reward(v) + x[v] - game.prob_array(v) @ x
        out[v] = solve_value(entries.tolist())
    return out
