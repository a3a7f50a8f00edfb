"""Zero-sum matrix game solver.

Solves small dense matrix games by the classic value LP: shift the matrix
positive, maximize the column player's scaled mixed strategy against unit
bounds, and read the row player's strategy off the duals. The simplex is
self-contained (Dantzig entering rule, switching to Bland's rule after a
pivot budget to rule out cycling) so results are bit-reproducible. Every
solve saddle-checks the strategies it returns; a solve that stalls or fails
that check raises MatrixGameError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import local_payoffs, local_reward_matrix

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


@dataclass(frozen=True)
class MatrixGameSolution:
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


def _solve(rows):
    """Run the value LP on a row-list matrix and saddle-check its result.

    Returns (value, row strategy, col strategy, duality gap). Raises
    MatrixGameError when the simplex stalls, bounded by the pure maximin
    and minimax, or when the gap exceeds _SADDLE_TOL, bounded by the worst
    column payoff and the best row payoff of the strategies found.
    """
    floats = [[float(x) for x in row] for row in rows]
    m = len(floats)
    n = len(floats[0])

    lowest = min(min(row) for row in floats)
    shift = 1.0 - lowest if lowest < 1.0 else 0.0

    # maximize sum(w) s.t. shifted @ w <= 1, w >= 0; slacks start basic
    n_vars = n + m
    tableau = []
    for i in range(m):
        row = [x + shift for x in floats[i]] + [0.0] * m + [1.0]
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

    best_row = max(sum(rows[k][l] * col[l] for l in range(n)) for k in range(m))
    worst_col = min(
        sum(row_strategy[k] * rows[k][l] for k in range(m)) for l in range(n)
    )
    gap = best_row - worst_col
    if gap > _SADDLE_TOL:
        raise MatrixGameError(f"duality gap {gap} above {_SADDLE_TOL}",
                              worst_col, best_row)
    return value, row_strategy, col, gap


def solve_value(rows: list) -> float:
    """Value-only solve on a row-list matrix; still saddle-checks the result.

    This is the pump loop's hot path: same LP as solve_matrix_game, minus
    the array packaging.
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


def _local_games(game, x, states):
    """(v, row-list matrix) of each listed state's potential-adjusted game."""
    payoffs = local_payoffs(game, x).tolist()
    first = game.flat.first_slot.tolist()
    for v in states:
        width = game.num_col_actions(v)
        yield v, [payoffs[s:s + width] for s in range(first[v], first[v + 1], width)]


def local_values(game, x, states=None) -> np.ndarray:
    """Vector of local values; entries outside `states` are NaN."""
    out = np.full(game.n, np.nan)
    for v, rows in _local_games(game, x, range(game.n) if states is None else states):
        out[v] = solve_value(rows)
    return out


def local_solutions(game, x) -> tuple[np.ndarray, list, list]:
    """Every state's local value with one optimal strategy per player, from
    one LP per state: (values, row strategies, column strategies), the
    strategies as the simplex's lists."""
    solved = [_solve(rows) for _, rows in _local_games(game, x, range(game.n))]
    return (np.array([value for value, *_ in solved]),
            [row for _, row, _, _ in solved], [col for _, _, col, _ in solved])
