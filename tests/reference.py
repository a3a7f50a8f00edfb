"""Independent oracles the production code is checked against.

Nothing here may import from ergopump.matrix_game's solver internals: the
2x2 closed form is hand-derived, the general LP goes through scipy, and the
support enumeration solves equalization systems directly. kernel_solve is
the scalar closed-form kernel as it settled every local game before the
package's vectorised pure-saddle screen, its cheaper 2x2 candidate test
and its batch of a call's mixed games, kept unchanged as the bitwise
oracle of all three. The dense
per-state tables, the oracle of the package's flat view, come from a plain
loop over the transition records. The single-step pump reuses the
package's local values, bands and payoff bounds but none of the pump loop,
and builds its own gap thresholds, dense arc matrix and breadth-first
closures, so it checks the event-driven loop's step selection, counts and
outcome rules as well as the package's sorted-sweep closure. The global
bounds of a strategy certificate come from policy iteration over mean
payoffs, and its one-shot bounds from the dense tables, so neither shares
the verifier's vectorised pass. layout is the per-state loop that laid a
player's strategies out over its global actions before every stage kept
one flat array per player, and per_state its inverse. bar_actions_per_state
reads one state's leaking actions off its transition records, truncate
renormalises a strategy over them one state at a time, and closure_failures
words the leaks of a verdict one record at a time: the oracles of the
witness module's one-pass leak rule, truncation and closure check.
strategies_per_state is LocalSolve.strategy as it built one vector per
state and player, the bitwise oracle of the flat arrays, and
document_strategies reads a
certificate's tables through layout, the oracle of parse_certificate's.
The paper's pump-step bound is evaluated as written, to check the driver's
constant step cap against it. The game constants W and R come from a
per-record loop over the exact probabilities,
the oracle of the constants the flat view is built with, and the problems
game validation reports come from a per-record loop that sums each slot's
probabilities as Fractions. make_game and parse_game are the package's
record-tuple construction path as it was before games were built straight
into columns: per-record name resolution, one to_fraction per record,
(k, l, u, p, r) tuples per state, and a flat view read back from those
tuples one record at a time; they check in the package's stages (parse_game
the document's shape, make_game the records' values) and are the oracle of
the column-built flat view, its exact probabilities and the problems
construction reports.
"""

import itertools
import json
import math
from collections import deque
from itertools import combinations
from operator import mul
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from ergopump.documents import GAME_FORMAT, _load
from ergopump.game import MAX_REPORTED_ERRORS, DocumentError, GameParams, _finite, to_fraction
from ergopump.markov import best_response_value, uniform_strategy
from ergopump.matrix_game import local_values
from ergopump.pump import partition, r_bounds


def game_params(game):
    """(W, R) of a normalized game by one loop over its records: W the largest
    ceil(1/p), exact on the rational p, and R the largest reward (at least
    0). Raises ValueError on a negative reward."""
    granularity = 1
    reward_bound = 0.0
    for records in game.transitions:
        for _k, _l, _u, p, r in records:
            # ceil(1/p) on exact rationals
            granularity = max(granularity, -((-p.denominator) // p.numerator))
            if r < 0:
                raise ValueError("game_params requires normalized (non-negative) rewards")
            reward_bound = max(reward_bound, r)
    return GameParams(granularity=granularity, reward_bound=reward_bound)


def validate_problems(game):
    """The problems game.validate must report, in its order, from a per-record
    loop that sums each slot's probabilities as Fractions."""
    problems = [] if game.n else ["game has no states"]
    transitions = game.transitions  # derived from the flat view: read it once
    for v, name in enumerate(game.states):
        if game.num_row_actions(v) == 0:
            problems.append(f"state {name!r}: row player has no actions")
        if game.num_col_actions(v) == 0:
            problems.append(f"state {name!r}: column player has no actions")
        totals = {}
        for k, l, u, p, r in transitions[v]:
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
    return tuple(problems)


class RecordGame:
    """A game held as per-state tuples of (k, l, u, p, r) records, sorted by
    (k, l, u), with the float view of them read back one record at a time."""

    def __init__(self, states, row_actions, col_actions, transitions):
        self.states, self.row_actions, self.col_actions = states, row_actions, col_actions
        self.transitions = transitions
        problems = validate_problems(self)
        if problems:
            raise DocumentError(problems)
        self.flat = _record_flat_view(self)

    @property
    def n(self):
        return len(self.states)

    def num_row_actions(self, v):
        return len(self.row_actions[v])

    def num_col_actions(self, v):
        return len(self.col_actions[v])


def _record_flat_view(game):
    """The flat view's fields, from one table row per record."""
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
    return dict(
        slot_state=slot_state, slot_row=first_row[slot_state] + row, slot_col=slot_col,
        slot_reward=np.bincount(rec_slot, weights=rec_p * table[:, 5], minlength=first_slot[-1]),
        rec_slot=rec_slot, rec_state=slot_state[rec_slot], rec_to=u, rec_p=rec_p,
        rec_reward=table[:, 5].copy(), first_slot=first_slot, first_row=first_row,
        first_col=first_col, row_count=rows, col_count=cols,
        row_start=np.flatnonzero(col == 0), col_order=col_order,
        col_start=np.flatnonzero(row[col_order] == 0),
        granularity=max(-(-p.denominator // p.numerator)
                        for records in game.transitions for _k, _l, _u, p, _r in records),
        # + 0.0: a zero extreme is +0.0, whichever zero the reduction meets first
        reward_low=float(table[:, 5].min()) + 0.0, reward_high=float(table[:, 5].max()) + 0.0)


def make_game(states, row_actions, col_actions, transitions):
    """A RecordGame from sparse (v, k, l, u, p, r) records, resolving each
    record's names with a search of its pool and converting each record's
    probability on its own; problems as game.make_game reports them for
    names that are unique: names and duplicates, then probabilities, then
    rewards, each in record order."""
    states = tuple(str(s) for s in states)
    row_actions = tuple(tuple(str(a) for a in acts) for acts in row_actions)
    col_actions = tuple(tuple(str(a) for a in acts) for acts in col_actions)
    if len(row_actions) != len(states) or len(col_actions) != len(states):
        raise ValueError("need one action set per state for each player")
    problems = []

    def resolve(token, pool, what, where):
        if isinstance(token, (int, np.integer)) and not isinstance(token, bool):
            if 0 <= token < len(pool):
                return int(token)
            problems.append(f"{where}: {what} index {token} out of range")
            return None
        token = str(token)
        if token in pool:
            return pool.index(token)
        problems.append(f"{where}: unknown {what} {token!r}")
        return None

    transitions = list(transitions)
    resolved, seen = [], set()
    for idx, (v_tok, k_tok, l_tok, u_tok, _p, _r) in enumerate(transitions):
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
        seen.add((v, k, l, u))
        resolved.append((v, k, l, u))
    # every record's values are checked, whether or not its names resolved
    fractions = []
    for idx, (*_names, p_val, _r) in enumerate(transitions):
        try:
            fractions.append(to_fraction(p_val))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"transition record {idx}: {exc}")
    problems += [f"transition record {idx}: reward is not finite or not a number: {r_val!r}"
                 for idx, (*_names, r_val) in enumerate(transitions) if not _finite([r_val])]
    if problems:
        raise DocumentError(problems)
    records = [[] for _ in states]  # every record resolved, to a (v, k, l, u) of its own
    for (v, k, l, u), p, (*_fields, r_val) in zip(resolved, fractions, transitions):
        if p != 0:
            records[v].append((k, l, u, p, float(r_val)))
    return RecordGame(states, row_actions, col_actions,
                      tuple(tuple(sorted(recs, key=lambda rec: rec[:3])) for recs in records))


def parse_game(text):
    """A RecordGame from a game document, whose shape is checked here and its
    records' values by make_game; problems as documents.parse_game reports
    them."""
    doc = _load(text, GAME_FORMAT)
    problems = []
    states = doc.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise DocumentError(["'states' must be a non-empty list of names"])
    actions = doc.get("actions", {})
    if not isinstance(actions, dict):
        raise DocumentError(["'actions' must map each state to its action lists"])
    row_actions, col_actions = [], []
    for s in states:
        entry = actions.get(s)
        if not isinstance(entry, dict) or "row" not in entry or "col" not in entry:
            problems.append(f"state {s!r}: missing action declaration")
            row_actions.append(("a0",))
            col_actions.append(("b0",))
            continue
        for player, out in (("row", row_actions), ("col", col_actions)):
            names = entry[player]
            if not isinstance(names, list) or not all(isinstance(a, str) for a in names):
                problems.append(f"state {s!r}: {player!r} actions must be a list of names")
                names = []
            out.append(tuple(names))
    records = doc.get("transitions")
    if not isinstance(records, list):
        raise DocumentError(problems + ["'transitions' must be a list"])
    triples = []
    for idx, rec in enumerate(records):
        if len(problems) >= MAX_REPORTED_ERRORS:
            break
        try:
            triples.append((rec["from"], rec["row"], rec["col"], rec["to"], rec["p"], rec["r"]))
        except KeyError as exc:
            problems.append(f"transition record {idx}: missing field {exc.args[0]!r}")
        except TypeError:
            problems.append(f"transition record {idx}: the record is not an object")
    if problems:
        raise DocumentError(problems)
    return make_game(states, row_actions, col_actions, triples)


def value_2x2(matrix):
    """Closed-form value of a 2x2 game: saddle point or equalization mix."""
    (a, b), (c, d) = np.asarray(matrix, dtype=float)
    row_mins = [min(a, b), min(c, d)]
    col_maxs = [max(a, c), max(b, d)]
    maximin = max(row_mins)
    minimax = min(col_maxs)
    if maximin == minimax:
        return maximin
    denom = a - b - c + d
    return (a * d - b * c) / denom


def strategies_2x2(matrix):
    """Optimal strategies of a 2x2 game without a pure saddle point."""
    (a, b), (c, d) = np.asarray(matrix, dtype=float)
    denom = a - b - c + d
    p = (d - c) / denom
    q = (d - b) / denom
    return np.array([p, 1 - p]), np.array([q, 1 - q])


KERNEL_SADDLE_TOL = 1e-9


def left_sum(items):
    """The floats of items added left to right from +0.0, on every Python:
    builtin sum compensates its rounding from 3.12 on."""
    total = 0.0
    for item in items:
        total += item
    return total


def _saddle_bounds(rows, row_strategy, col):
    """(worst column payoff of row_strategy, best row payoff against col)."""
    best_row = max(left_sum(map(mul, row, col)) for row in rows)
    worst_col = min(left_sum(map(mul, row_strategy, column)) for column in zip(*rows))
    return worst_col, best_row


def kernel_solve(a):
    """Closed-form solve of a float row-list matrix, or None if none settles it.

    A single row or column, or any game whose maximin equals its minimax
    exactly, is a pure saddle: unit strategies at the first row and column
    attaining them, gap 0. Otherwise, up to 3x3, each square submatrix B is a
    Shapley-Snow kernel candidate, the 2x2 ones in lexicographic (row pair,
    column pair) order, then the full 3x3. With C the cofactor matrix of B
    and s the sum of its entries (1' adj B 1), the candidate's row strategy
    is C's row sums over s, its column strategy C's column sums over s and
    its value det B / s; candidates with s exactly 0.0 are skipped. B is
    shifted by its corner entry first, which leaves C's sums unchanged and
    keeps det B from cancelling a large common offset.
    """
    m, n = len(a), len(a[0])
    if m == 1:
        lower = min(a[0])
        return lower, [1.0], _unit(n, a[0].index(lower)), 0.0
    if n == 1:
        column = [row[0] for row in a]
        upper = max(column)
        return upper, _unit(m, column.index(upper)), [1.0], 0.0
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
            row_strategy, col = [0.0] * m, [0.0] * n
            row_strategy[k1], row_strategy[k2] = (b11 - b10) / s, -b01 / s
            col[l1], col[l2] = (b11 - b01) / s, -b10 / s
            settled = _settles(a, corner - b01 * b10 / s, row_strategy, col)
            if settled is not None:
                return settled
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
    and their gap on a is at most KERNEL_SADDLE_TOL, else None."""
    if min(row_strategy) < 0.0 or min(col) < 0.0:
        return None
    worst_col, best_row = _saddle_bounds(a, row_strategy, col)
    gap = best_row - worst_col
    return (value, row_strategy, col, gap) if gap <= KERNEL_SADDLE_TOL else None


def _unit(size, index):
    out = [0.0] * size
    out[index] = 1.0
    return out


def value_lp(matrix):
    """Game value via scipy's LP solver (independent of the package simplex).

    max v s.t. A^T alpha >= v, sum alpha = 1, alpha >= 0, written as a
    minimization over (alpha, v).
    """
    A = np.asarray(matrix, dtype=float)
    m, n = A.shape
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    A_ub = np.hstack([-A.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0, None)] * m + [(None, None)]
    # HiGHS's default feasibility tolerance, 1e-7, would let v stand up to
    # 1e-7 off the value: a pure saddle at -2.6e-8 came back as 0. At these
    # tolerances its default solver can end with model status Unknown on a
    # nearly degenerate game (entries 1.4e-9 beside 8.25); its interior
    # point method, at the same tolerances, then solves it
    for method in ("highs", "highs-ipm"):
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=bounds, method=method,
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        if res.success:
            return -res.fun
    raise AssertionError(f"no HiGHS method solved the value LP: {res.message}")


def value_support_enum(matrix, tol=1e-10):
    """Value by enumerating support patterns and solving equalization systems."""
    A = np.asarray(matrix, dtype=float)
    m, n = A.shape
    for rows in _supports(m):
        for cols in _supports(n):
            sol = _try_support(A, rows, cols, tol)
            if sol is not None:
                return sol
    raise AssertionError("no equilibrium support found")


def _supports(size):
    for r in range(1, size + 1):
        yield from itertools.combinations(range(size), r)


def _try_support(A, rows, cols, tol):
    m, n = A.shape
    k, l = len(rows), len(cols)
    # unknowns: alpha on rows, beta on cols, value v
    # equalization: alpha^T A[:, c] = v for c in cols; A[r, :] beta = v for r in rows
    sys_a = np.zeros((l + 1, k + 1))
    rhs_a = np.zeros(l + 1)
    for i, c in enumerate(cols):
        sys_a[i, :k] = A[np.array(rows), c]
        sys_a[i, k] = -1.0
    sys_a[l, :k] = 1.0
    rhs_a[l] = 1.0
    sys_b = np.zeros((k + 1, l + 1))
    rhs_b = np.zeros(k + 1)
    for i, r in enumerate(rows):
        sys_b[i, :l] = A[r, np.array(cols)]
        sys_b[i, l] = -1.0
    sys_b[k, :l] = 1.0
    rhs_b[k] = 1.0
    try:
        alpha_v, *_ = np.linalg.lstsq(sys_a, rhs_a, rcond=None)
        beta_v, *_ = np.linalg.lstsq(sys_b, rhs_b, rcond=None)
    except np.linalg.LinAlgError:
        return None
    if (np.abs(sys_a @ alpha_v - rhs_a).max() > tol
            or np.abs(sys_b @ beta_v - rhs_b).max() > tol):
        return None
    alpha = np.zeros(m)
    alpha[np.array(rows)] = alpha_v[:k]
    beta = np.zeros(n)
    beta[np.array(cols)] = beta_v[:l]
    va, vb = alpha_v[k], beta_v[l]
    if abs(va - vb) > 1e-8 or alpha.min() < -tol or beta.min() < -tol:
        return None
    # optimality: no profitable pure deviation
    if (A @ beta).max() > va + 1e-8 or (alpha @ A).min() < va - 1e-8:
        return None
    return va


def dense_tables(game):
    """Per state, the (K, L, n) float transition tensor and the (K, L)
    expected-reward matrix sum_u p*r, built one record at a time."""
    tables = []
    for v, records in enumerate(game.transitions):
        p = np.zeros((game.num_row_actions(v), game.num_col_actions(v), game.n))
        e = np.zeros(p.shape[:2])
        for k, l, u, q, r in records:
            p[k, l, u] += float(q)
            e[k, l] += float(q) * r
        tables.append((p, e))
    return tables


def gap_thresholds(game, pumped, bounds, eps, granularity):
    """Per-state gap threshold |L^v| (pumped v) or |K^v| times W * R_v^2 / eps,
    with R_v the payoff bound bounds[v]."""
    out = np.empty(game.n)
    for v in range(game.n):
        width = game.num_col_actions(v) if v in pumped else game.num_row_actions(v)
        out[v] = width * granularity * bounds[v] ** 2 / eps
    return out


def arc_matrix(x, thresholds, pumped):
    """Dense gap-graph arcs: v -> u (u != v) when x[u] - x[v] is below v's
    threshold for pumped v, and when x[v] - x[u] is otherwise."""
    x = np.asarray(x, dtype=np.float64)
    arcs = np.zeros((len(x), len(x)), dtype=bool)
    for v in range(len(x)):
        gaps = x - x[v] if v in pumped else x[v] - x
        arcs[v] = gaps < thresholds[v]
        arcs[v, v] = False
    return arcs


def closure_bfs(arcs, seeds):
    """Every state reachable from the seeds along the arcs, by breadth-first search."""
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in np.flatnonzero(arcs[v]):
            if int(u) not in seen:
                seen.add(int(u))
                queue.append(int(u))
    return frozenset(seen)


def closed_sets_bfs(x, thresholds, pumped, top, bottom):
    """(high, low) closures of the top and bottom bands when the first stays
    inside pumped and the second outside it, else None."""
    if not top or not bottom:
        return None
    arcs = arc_matrix(x, thresholds, pumped)
    high = closure_bfs(arcs, top)
    if not high <= set(pumped):
        return None
    low = closure_bfs(arcs, bottom)
    if low & set(pumped):
        return None
    return high, low


def partition_sets(m_values, m_minus, m_plus, slack):
    """(top, bottom, pumped) of the finite local values, one comprehension
    over the states per band."""
    states = [v for v in range(len(m_values)) if math.isfinite(m_values[v])]
    delta = (m_plus - m_minus) / 4.0
    t1, t2, t3 = (m_minus + i * delta - slack for i in (1, 2, 3))
    top = frozenset(v for v in states if m_values[v] >= t3)
    bottom = frozenset(v for v in states if m_values[v] < t1)
    pumped = frozenset(v for v in states if m_values[v] >= t2)
    return top, bottom, pumped


def step_invariant_failure(tau, prev_m, m, pumped, states, delta, steps, slack):
    """The message of the first state, in the order of `states`, whose value
    drift over a jump breaks the drift bound or the pumped set's sign, and
    of its first broken condition; None if every state keeps both."""
    for v in states:
        drift = m[v] - prev_m[v]
        if abs(drift) > steps * delta + slack:
            return (f"iteration {tau}: local value at state {v} moved by {drift}, "
                    f"more than {steps} pump steps of {delta}")
        if v in pumped:
            if drift > slack:
                return f"iteration {tau}: pumped state {v} increased its local value by {drift}"
        elif drift < -slack:
            return f"iteration {tau}: unpumped state {v} decreased its local value by {drift}"
    return None


def single_step_pump(game, x0, states, m_minus, m_plus, eps, cap):
    """The pump taken one step at a time, with one full evaluation per step.

    The potential is x0 - delta * counts with integer per-state pump counts.
    Each step bands the local values, stops on an empty top or bottom band,
    then on closed witness sets, then on reaching the cap, and otherwise
    pumps the upper half once more.
    """
    x_entry = np.asarray(x0, dtype=np.float64).copy()
    states = sorted(int(v) for v in states)
    delta = (m_plus - m_minus) / 4.0
    granularity = game_params(game).granularity
    counts = np.zeros(game.n, dtype=np.int64)
    tau = 0
    while True:
        x = x_entry - delta * counts
        m = local_values(game, x, states)
        part = partition(m, m_minus, m_plus)
        closed = None
        if not part.top or not part.bottom:
            kind = "band-collapsed"
        else:
            bounds = r_bounds(game, x, np.isin(np.arange(game.n), list(part.pumped)), m_plus)
            thresholds = gap_thresholds(game, part.pumped, bounds, eps, granularity)
            closed = closed_sets_bfs(x, thresholds, part.pumped, part.top, part.bottom)
            if closed is not None:
                kind = "witness-sets"
            elif tau >= cap:
                kind = "cap-exceeded"
            else:
                counts[sorted(part.pumped)] += 1
                tau += 1
                continue
        return SimpleNamespace(kind=kind, iterations=tau, pump_counts=counts,
                               closed=closed, x=x, m_values=m)


def one_shot_bounds(game, alpha, beta, x):
    """(worst payoff of alpha against a pure column, best payoff of a pure
    row against beta) over the states each covers, from the dense tables."""
    worst, best = np.inf, -np.inf
    for v, (p, e) in enumerate(dense_tables(game)):
        adjusted = e + x[v] - p @ np.asarray(x, dtype=np.float64)
        if v in alpha:
            worst = min(worst, float(np.min(np.asarray(alpha[v]) @ adjusted)))
        if v in beta:
            best = max(best, float(np.max(adjusted @ np.asarray(beta[v]))))
    return worst, best


def global_bounds(game, cert):
    """(worst gain over the alpha states, best gain over the beta states) when
    the opponent best-responds over mean payoffs to the certificate's
    strategies, uniform at the states they do not cover (their NaN entries)."""
    gains = []
    for mix, player in ((cert.alpha, "row"), (cert.beta, "col")):
        uncovered = np.isnan(mix)
        gain, _ = best_response_value(
            game, np.where(uncovered, uniform_strategy(game, player), mix), player)
        gains.append(gain[~np.logical_or.reduceat(uncovered, _first(game, player)[:-1])])
    return float(gains[0].min()), float(gains[1].max())


def _first(game, player):
    return game.flat.first_row if player == "row" else game.flat.first_col


def layout(game, tables, player):
    """One player's per-state strategy vectors {state: vector} laid out over
    that player's global actions, NaN at the states tables does not list,
    one state at a time."""
    first = _first(game, player)
    mix = np.full(int(first[-1]), np.nan)
    for v, vec in tables.items():
        mix[first[v]:first[v + 1]] = vec
    return mix


def per_state(game, mix, player):
    """The inverse of layout: {state: vector} for every state at which no
    entry of mix is NaN, each vector a copy."""
    first = _first(game, player)
    vectors = {v: np.array(mix[first[v]:first[v + 1]], dtype=np.float64)
               for v in range(game.n)}
    return {v: vec for v, vec in vectors.items() if not np.isnan(vec).any()}


def bar_actions_per_state(game, v, inside, player):
    """The actions at a state v of the set inside that keep all transition
    mass in it, from v's (k, l, u, p, r) records: an action leaks when, with
    any opponent action, it reaches a state outside the set."""
    inside = set(inside)
    size = game.num_row_actions(v) if player == "row" else game.num_col_actions(v)
    return frozenset(range(size)) - {k if player == "row" else l
                                     for k, l, u, _p, _r in game.transitions[v]
                                     if u not in inside}


def truncate(game, strategy, states, player):
    """witness._truncate one state at a time: at each state of states, the
    actions bar_actions_per_state keeps, divided by their mass, summed by
    left_sum in ascending action order; 0.0 at the other actions there, NaN
    outside states. Raises ValueError(v) at the first state v whose kept
    mass is not positive."""
    first, mix = _first(game, player), np.asarray(strategy, dtype=np.float64)
    out = np.full(len(mix), np.nan)
    for v in sorted(states):
        keep = sorted(bar_actions_per_state(game, v, states, player))
        mass = left_sum(mix[first[v] + k] for k in keep)
        if mass <= 0.0:
            raise ValueError(v)
        out[first[v]:first[v + 1]] = 0.0
        for k in keep:
            out[first[v] + k] = mix[first[v] + k] / mass
    return out


def closure_failures(game, verdict):
    """verify_witness's closure failures, worded one record at a time from
    game.transitions: every record of an action with positive mass that
    leaves the states its strategy covers, alpha's then beta's, in record
    order."""
    failures = []
    for player, mix in (("row", verdict.alpha), ("col", verdict.beta)):
        tables = per_state(game, mix, player)
        for v in sorted(tables):
            for k, l, u, p, _r in game.transitions[v]:
                action = k if player == "row" else l
                if u not in tables and tables[v][action] > 0.0:
                    failures.append(f"closure: {player} action {action} at state "
                                    f"{game.states[v]!r} leaks to {game.states[u]!r} "
                                    f"with probability {float(p)}")
    return failures


def document_strategies(game, text):
    """(alpha, beta) as a certificate document's tables give them: each row
    as written, laid out by layout."""
    doc = json.loads(text)
    index = {s: v for v, s in enumerate(game.states)}
    return tuple(layout(game, {index[s]: np.array(row, dtype=np.float64)
                               for s, row in doc[key].items()}, player)
                 for key, player in (("alpha", "row"), ("beta", "col")))


def strategies_per_state(solve):
    """(row strategies, column strategies) of a LocalSolve, one vector per
    listed state, clipped at 0: a mixed game's are its slices of the
    solve's row_mix and col_mix, where its settler wrote them, and a pure
    saddle's unit vectors at the first row and column attaining its value."""
    flat = solve.game.flat
    first_row, first_col = flat.first_row.tolist(), flat.first_col.tolist()
    row_min, col_max = solve.row_min.tolist(), solve.col_max.tolist()
    values = solve.values.tolist()
    rows, cols = {}, {}
    for v in (~np.isnan(solve.values)).nonzero()[0].tolist():
        for out, first, extreme, mix in ((rows, first_row, row_min, solve.row_mix),
                                         (cols, first_col, col_max, solve.col_mix)):
            start, stop = first[v], first[v + 1]
            if mix is not None and not np.isnan(mix[start:stop]).all():
                out[v] = np.maximum(mix[start:stop], 0.0)
            else:
                out[v] = np.array(_unit(stop - start,
                                        extreme.index(values[v], start, stop) - start))
    return rows, cols


def paper_step_bound(n, max_actions, granularity, reward_bound, eps, delta):
    """The paper's per-phase pump-step bound 2*n*kappa + 1, with
    kappa = base**(2**n - 1) * n*n*R/delta and base = n*N*W*R/eps; inf when
    it overflows a float."""
    base = n * max_actions * granularity * reward_bound / eps
    try:
        kappa = base ** (2 ** n - 1) * (n * n * reward_bound / delta)
    except OverflowError:
        return math.inf
    return 2 * n * kappa + 1
