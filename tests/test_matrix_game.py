"""Matrix game solver against closed forms, independent LPs, and properties."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from builders import (
    count_calls,
    count_local_games,
    matrix_as_game,
    on_both_forms,
    one_state,
    random_dense_game,
)
from ergopump import matrix_game, witness
from ergopump.driver import decide_ergodicity
from ergopump.game import GameSpec, Strategy, local_payoffs, make_game, normalize_rewards
from ergopump.generators import random_game
from ergopump.matrix_game import (
    MatrixGameError,
    local_solve,
    local_value,
    local_values,
    solve_matrix_game,
    solve_value,
)
from ergopump.witness import _truncate


def _assert_saddle(matrix, sol, tol=1e-9):
    matrix = np.asarray(matrix, dtype=float)
    assert np.min(sol.row_strategy @ matrix) >= sol.value - tol
    assert np.max(matrix @ sol.col_strategy) <= sol.value + tol
    assert sol.duality_gap <= tol
    for strategy in (sol.row_strategy, sol.col_strategy):
        assert strategy.min() >= 0.0
        assert abs(strategy.sum() - 1.0) <= 1e-12


class TestKnownGames:
    def test_one_by_one(self):
        sol = solve_matrix_game([[4.25]])
        assert sol.value == pytest.approx(4.25)
        assert sol.row_strategy.tolist() == [1.0]
        assert sol.col_strategy.tolist() == [1.0]

    def test_matching_pennies(self):
        sol = solve_matrix_game([[1, -1], [-1, 1]])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.row_strategy, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.col_strategy, [0.5, 0.5], atol=1e-12)

    def test_mixed_2x2_against_closed_form(self):
        A = [[3.0, 1.0], [0.0, 2.0]]
        sol = solve_matrix_game(A)
        assert sol.value == pytest.approx(1.5, abs=1e-12)
        row, col = reference.strategies_2x2(A)
        assert np.allclose(sol.row_strategy, row, atol=1e-10)
        assert np.allclose(sol.col_strategy, col, atol=1e-10)
        assert reference.value_support_enum(A) == pytest.approx(1.5, abs=1e-9)


class TestRandomMatrices:
    @pytest.mark.parametrize("seed", range(10))
    def test_saddle_and_oracles(self, seed):
        rng = np.random.default_rng(seed)
        matrices = [rng.uniform(-10, 10, size=rng.integers(1, 7, size=2)) for _ in range(20)]
        # small integers: tied entries and degenerate pivots
        matrices += [rng.integers(-5, 6, size=(3, 3)).astype(float) for _ in range(2)]
        for A in matrices:
            sol = solve_matrix_game(A)
            _assert_saddle(A, sol)
            assert sol.value == pytest.approx(reference.value_lp(A), abs=1e-8)
            if A.shape == (2, 2):
                assert sol.value == pytest.approx(reference.value_2x2(A), abs=1e-10)

    @pytest.mark.parametrize("matrix", [
        # after a pivot on 6.8e-8 the objective row's duals were 4.6e-9 off
        # a row strategy, while the column strategy was within 6e-16
        [[1.0, 2.2408659172643248e-21, 1.0, 0.0], [0.9999999403953552, 0.0, -1.0, 0.0],
         [0.0, 0.0, 0.0, 0.0], [2.0, -6.996803497233518, -8.875, 3.0]],
        # a largest-pivot tie-break in the ratio test, which settles the
        # game above, fails this one
        [[1.0, 2.2408659172643248e-21, 1.0, 0.0], [0.9999999403953552, 0.0, 0.0, 1.0],
         [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, -8.75, 0.0]],
    ])
    def test_value_lp_settles_games_with_tiny_pivots(self, matrix, monkeypatch):
        # both games have value 0 and reach the simplex; each strategy is
        # read as an LP primal, so the saddle check holds at _SADDLE_TOL
        calls = count_calls(monkeypatch, ("_simplex_max",))
        sol = solve_matrix_game(matrix)
        assert calls["_simplex_max"] > 0
        _assert_saddle(matrix, sol)
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(99)
        A = rng.uniform(-5, 5, size=(4, 5))
        first = solve_matrix_game(A)
        second = solve_matrix_game(A)
        assert first.value == second.value
        assert first.row_strategy.tobytes() == second.row_strategy.tobytes()
        assert first.col_strategy.tobytes() == second.col_strategy.tobytes()


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=4, max_size=4),
           st.floats(-100, 100))
    def test_shift_equivariance(self, entries, shift):
        A = np.array(entries).reshape(2, 2)
        base = solve_matrix_game(A).value
        shifted = solve_matrix_game(A + shift).value
        assert shifted == pytest.approx(base + shift, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_negation_transpose_duality(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.uniform(-10, 10, size=(rng.integers(1, 5), rng.integers(1, 5)))
        sol = solve_matrix_game(A)
        dual = solve_matrix_game(-A.T)
        assert dual.value == pytest.approx(-sol.value, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        shape = (rng.integers(1, 5), rng.integers(1, 5))
        A = rng.uniform(-10, 10, size=shape)
        B = A + rng.uniform(0, 5, size=shape)
        assert solve_matrix_game(A).value <= solve_matrix_game(B).value + 1e-9


def _games(entries):
    """Matrices of every shape up to 3x3 with entries drawn from `entries`."""
    return st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


def _with_copy(matrix, index, of_column):
    """matrix with one row (or column) repeated, while it has fewer than 3."""
    A = np.array(matrix).T if of_column else np.array(matrix)
    if len(A) < 3:
        A = np.vstack([A, A[index % len(A)]])
    return (A.T if of_column else A).tolist()


_SMALL_GAMES = st.one_of(
    _games(st.floats(-10, 10)),
    # ties, zero 2x2 denominators and pure saddles
    _games(st.integers(-2, 2).map(float)),
    st.builds(_with_copy, _games(st.integers(-2, 2).map(float)),
              st.integers(0, 2), st.booleans()),
    st.builds(_with_copy, _games(st.floats(-10, 10)), st.integers(0, 2), st.booleans()),
)


class TestClosedForms:
    """Games up to 3x3, which the pure-saddle and Shapley-Snow kernel stage
    settles before any pivot, against the independent oracles."""

    @settings(max_examples=400, deadline=None)
    @given(_SMALL_GAMES)
    # HiGHS's default solver ends this one with model status Unknown at the
    # oracle's tolerances; the game is a pure saddle at 0.25
    @example([[8.188191789437656, 0.25, 3.75],
              [1.3672766542217793e-09, 1.3672766542217793e-09, 8.25],
              [1.3672766542217793e-09, -3.0, 0.0]])
    def test_against_oracles(self, matrix):
        sol = solve_matrix_game(matrix)
        _assert_saddle(matrix, sol)
        assert sol.value == pytest.approx(reference.value_lp(matrix), abs=1e-8)
        assert sol.value == pytest.approx(reference.value_support_enum(matrix), abs=1e-8)
        again = solve_matrix_game(matrix)
        assert again.value == sol.value
        assert again.row_strategy.tobytes() == sol.row_strategy.tobytes()
        assert again.col_strategy.tobytes() == sol.col_strategy.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_SMALL_GAMES)
    def test_pure_saddles_are_exact(self, matrix):
        A = np.array(matrix)
        maximin, minimax = A.min(axis=1).max(), A.max(axis=0).min()
        assume(maximin == minimax)  # every single row or column passes
        sol = solve_matrix_game(matrix)
        assert sol.value == maximin
        assert sol.duality_gap == 0.0
        for strategy in (sol.row_strategy, sol.col_strategy):
            assert sorted(strategy.tolist()) == [0.0] * (len(strategy) - 1) + [1.0]
        k, l = sol.row_strategy.argmax(), sol.col_strategy.argmax()
        assert A[k].min() == maximin and A[:, l].max() == minimax

    @pytest.mark.parametrize("matrix, row, col", [
        ([[4.0, 2.0, 2.0]], [1.0], [0.0, 1.0, 0.0]),
        ([[1.0], [3.0], [3.0]], [0.0, 1.0, 0.0], [1.0]),
        ([[5.0, 1.0], [2.0, 2.0]], [0.0, 1.0], [0.0, 1.0]),
        ([[3.0, 2.0, 2.0], [0.0, 2.0, 2.0]], [1.0, 0.0], [0.0, 1.0, 0.0]),
    ])
    def test_unit_strategies_at_first_attaining_index(self, matrix, row, col):
        sol = solve_matrix_game(matrix)
        assert sol.row_strategy.tolist() == row
        assert sol.col_strategy.tolist() == col
        assert sol.duality_gap == 0.0

    @pytest.mark.parametrize("matrix", [
        [[3.0, 1.0], [0.0, 2.0]],
        [[3.0, 1.0, 0.5], [0.0, 2.0, 1.0], [1.0, 0.2, 2.5]],  # settled by its 3x3 kernel
    ])
    def test_common_offset_keeps_the_value_digits(self, matrix, monkeypatch):
        # the saddle check bounds the strategies, not the value: det / s on
        # the raw entries of these games plus 1e6 cancels to an error near
        # 1e-5, and their raw cofactors fail the saddle check
        base = solve_value(matrix)
        calls = count_calls(monkeypatch, ("_simplex_max",))
        moved = solve_value((np.array(matrix) + 1e6).tolist())
        assert moved - 1e6 == pytest.approx(base, abs=1e-9)
        assert calls["_simplex_max"] == 0

    def test_simplex_is_rare(self, monkeypatch):
        # every local game of this run is at most 3x3, and the screen and
        # the closed forms settle all but degenerate ones
        calls = count_calls(monkeypatch, ("_simplex_max",))
        settled = count_local_games(monkeypatch)
        decide_ergodicity(random_game(128, max_actions=3, seed=0), 0.05)
        assert settled.total() > 1000
        assert calls["_simplex_max"] < 0.01 * settled.total()


def _bits(numbers):
    return np.asarray(numbers, dtype=np.float64).tobytes()


def _solution_bits(solved):
    """The bits of a (value, row strategy, col strategy, gap) solve, gap aside."""
    value, row, col, _ = solved
    return _bits([value, *row, *col])


@st.composite
def _stacked_games(draw, most=4):
    """(game, x, states): 1-5 states of 1-3 actions per player, now and
    then `most`, one record per action pair to a drawn successor with a reward
    in {-2..2} or a float, at a potential of small integers (so integer
    rewards keep exact ties in the payoffs) or floats, with every state
    listed (None) or a drawn subset. The block is stacked once or
    _BATCH_MIN_GAMES times, each copy's records to its own states and x
    repeated, so that a stacked call with a mixed game of at most 3x3 has
    the crossover count of them, and a larger one beside them."""
    entries = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-10, 10)]))
    n = draw(st.integers(1, 5))
    actions = st.integers(1, 3) | st.just(most)
    shapes = draw(st.lists(st.tuples(actions, actions), min_size=n, max_size=n))
    block = [(v, k, l, draw(st.integers(0, n - 1)), 1, draw(entries))
             for v, (rows, cols) in enumerate(shapes)
             for k in range(rows) for l in range(cols)]
    x = draw(st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10)),
                      min_size=n, max_size=n))
    states = draw(st.none() | st.sets(st.integers(0, n - 1)).map(sorted))
    copies = draw(st.sampled_from([1, matrix_game._BATCH_MIN_GAMES]))
    game = make_game([f"s{v}" for v in range(n * copies)],
                     [[f"a{k}" for k in range(rows)] for rows, _ in shapes] * copies,
                     [[f"b{l}" for l in range(cols)] for _, cols in shapes] * copies,
                     [(v + c * n, k, l, u + c * n, p, r)
                      for c in range(copies) for v, k, l, u, p, r in block])
    if states is not None:
        states = [v + c * n for c in range(copies) for v in states]
    return game, np.array(x * copies), states


def _expected_solves(game, x, states):
    """{state: (value, row, col, gap)} of each listed state's local game, by
    the scalar kernel kept in reference.kernel_solve, else the value LP."""
    payoffs = local_payoffs(game, x)
    expected = {}
    for v in range(game.n) if states is None else states:
        rows = game.state_matrix(payoffs, v).tolist()
        expected[v] = reference.kernel_solve(rows) or matrix_game._solve(rows)
    return expected


def _assert_solve_matches(game, x, states, expected):
    """local_values and local_solve give each listed state's expected value,
    and strategy() one array per player, in numpy form and in the Python
    loop: each listed state's vector from its own solve, clipped at 0, and
    NaN at the states not listed, as the per-state build lays them out,
    signs of zeros included."""
    values = np.full(game.n, np.nan)
    values[list(expected)] = [solved[0] for solved in expected.values()]
    assert _bits(local_values(game, x, states)) == _bits(values)
    solve = local_solve(game, x, states)
    assert _bits(solve.values) == _bits(values)
    per_state = reference.strategies_per_state(solve)
    for side, vectors, player in zip((1, 2), per_state, ("row", "col")):
        solved = {v: np.maximum(out[side], 0.0) for v, out in expected.items()}
        for mix in on_both_forms(lambda: solve.strategy(player), game.n):
            assert _bits(mix) == _bits(reference.layout(game, solved, player))
            assert _bits(mix) == _bits(reference.layout(game, vectors, player))


def _assert_matches_on_its_path(drawn, batch_min):
    """_assert_solve_matches with _BATCH_MIN_GAMES set to batch_min, and
    the batch run exactly when the call lists that many mixed games of at
    most 3x3."""
    game, x, states = drawn
    expected = _expected_solves(game, x, states)
    crossover = mock.patch.object(matrix_game, "_BATCH_MIN_GAMES", batch_min)
    kernels = mock.patch.object(matrix_game, "_batch_kernels", wraps=matrix_game._batch_kernels)
    with crossover, kernels as batched:
        _assert_solve_matches(game, x, states, expected)
    assert batched.called == (_mixed_small(game, x, states) >= batch_min)


def _mixed_small(game, x, states):
    """How many listed states' local games are mixed and at most 3x3."""
    payoffs = local_payoffs(game, x)
    count = 0
    for v in range(game.n) if states is None else states:
        A = game.state_matrix(payoffs, v)
        count += A.min(1).max() != A.max(0).min() and max(A.shape) <= 3
    return count


def _repeated(*matrices, copies=1):
    """A game of one state per matrix, the list repeated `copies` times, each
    state's local game its matrix (all self-loops, so its payoffs at x = 0
    are the matrix's entries)."""
    matrices = matrices * copies
    return make_game([f"s{v}" for v in range(len(matrices))],
                     [[f"a{k}" for k in range(len(A))] for A in matrices],
                     [[f"b{l}" for l in range(len(A[0]))] for A in matrices],
                     [(v, k, l, v, 1, entry) for v, A in enumerate(matrices)
                      for k, row in enumerate(A) for l, entry in enumerate(row)])


def _first_candidate(rows):
    """(s, (p1, p2, q1, q2)) of a game's first 2x2 candidate, rows 0 and 1
    and columns 0 and 1, as _kernel_solve computes them; no weights when s
    is 0.0."""
    corner = rows[0][0]
    b01, b10, b11 = rows[0][1] - corner, rows[1][0] - corner, rows[1][1] - corner
    s = b11 - b10 - b01
    return s, ((b11 - b10) / s, -b01 / s, (b11 - b01) / s, -b10 / s) if s else None


def _adjugate(rows):
    """(row strategy, column strategy) of a 3x3 game's full adjugate, as
    _kernel_solve computes them, as numpy arrays: where its s is 0.0 they
    hold what the batch's division gives, NaN or an infinity."""
    corner = rows[0][0]
    b = [[x - corner for x in row] for row in rows]
    cof = [[b[(i + 1) % 3][(j + 1) % 3] * b[(i + 2) % 3][(j + 2) % 3]
            - b[(i + 1) % 3][(j + 2) % 3] * b[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    row_sums = [reference.left_sum(row) for row in cof]
    s = reference.left_sum(row_sums)
    with np.errstate(all="ignore"):
        return (np.divide(row_sums, s),
                np.divide([reference.left_sum(column) for column in zip(*cof)], s))


def _padded(rows):
    """A game of at most 3x3 padded to 3x3, its last row and column repeated."""
    m, n = len(rows), len(rows[0])
    return [[rows[min(i, m - 1)][min(j, n - 1)] for j in range(3)] for i in range(3)]


def _adjugate_only(count, seed):
    """count 3x3 games with entries uniform in [-10, 10] that only the full
    adjugate settles: the scalar kernel settles each with every weight
    positive, and a 2x2 candidate gives its third row and column 0.0."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        rows = rng.uniform(-10, 10, (3, 3)).tolist()
        settled = reference.kernel_solve(rows)
        if settled is not None and min(settled[1]) > 0.0 and min(settled[2]) > 0.0:
            found.append(rows)
    return found


def _screen_bits(solve):
    return [_bits(getattr(solve, name))
            for name in ("row_min", "col_max", "maximin", "minimax", "values")]


def _on_both_screens(game, x, states):
    """[local_solve(game, x, states) on the block screen, on the segmented
    screen]: on_both_forms, the first reading the game's padded view."""
    with mock.patch.object(GameSpec, "padded_view", autospec=True,
                           side_effect=GameSpec.padded_view) as read:
        solves = on_both_forms(lambda: local_solve(game, x, states), game.n)
    assert read.call_count == 1
    return solves


_TOL = matrix_game._SADDLE_TOL
_ABOVE = float(np.nextafter(2 * _TOL, 1.0))
# mixed games, each meeting the branch of the kernels its name gives, as
# test_degenerate_games_meet_their_branch checks at offset 0
_DEGENERATE = {
    # the first candidate has s == 0.0
    "zero s": [[0.0, 1.0, 3.0], [1.0, 2.0, -1.0]],
    # the first candidate has s != 0 and a negative weight
    "negative weight": [[2.0, -2.0, -3.0], [3.0, -3.0, 0.0]],
    # the first candidate settles with a gap of exactly _SADDLE_TOL ...
    "gap at tolerance": [[2 * _TOL, 0.0, 4 * _TOL], [0.0, 2 * _TOL, -4 * _TOL]],
    # ... and fails with the third column's payoff a few ulps lower
    "gap above tolerance": [[2 * _TOL, 0.0, 4 * _TOL], [0.0, 2 * _TOL, -2 * _ABOVE]],
    # the first candidate's entries overflow, so its s and weights are NaN:
    # _kernel_solve's sign test passes them and its saddle check fails them
    "overflow": [[1.7e308, -1.7e308, -1e308], [-1e308, -1e308, -1.7e308]],
    # the first candidate settles it with a zero weight
    "zero weight": [[1.0, 1.0], [2.0, 0.0], [0.0, 2.0]],
    # no 2x2 candidate settles it, its 3x3 adjugate does
    "adjugate only": [[-2.0, -2.0, 2.0], [1.0, 2.0, 0.0], [2.0, -1.0, 0.0]],
    # no 2x2 candidate settles it, and its adjugate's weights are non-negative
    # but miss the saddle check by a few ulps; the value LP settles it
    "adjugate above tolerance": [[-39999999.0, -30000004.0, -89999995.0],
                                 [40000005.0, -79999995.0, -30000000.0],
                                 [-79999998.0, -30000002.0, 29999999.0]],
    # at this scale no kernel passes the saddle check; the value LP does
    "needs the simplex": [[8814194.0, 5394566.0, -4976244.0],
                          [9704495.0, 8453080.0, -3132186.0],
                          [1235916.0, 4775544.0, 8368012.0]],
}


class TestScreenAgainstScalarKernel:
    """The pure-saddle screen, the cheaper 2x2 candidates and the batch of
    a call's mixed games return bit for bit what the scalar kernel, kept
    unchanged in reference.kernel_solve, returns for each local game."""

    @settings(max_examples=300, deadline=None)
    @given(_stacked_games())
    def test_local_games_match_a_per_state_solve(self, drawn):
        # a stacked call with a mixed game takes the batch, a single block
        # the scalar kernels
        _assert_matches_on_its_path(drawn, matrix_game._BATCH_MIN_GAMES)

    @settings(max_examples=200, deadline=None)
    @given(_stacked_games())
    def test_batch_matches_a_per_state_solve_from_one_game(self, drawn):
        # with the crossover count set to 1, every call with a mixed game
        # of at most 3x3 takes the batch, whatever its count
        _assert_matches_on_its_path(drawn, 1)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("case", sorted(_DEGENERATE))
    def test_degenerate_games_on_both_paths(self, case, offset, monkeypatch):
        # one at a time and in the batch, which reads the stacked games from
        # the screen's block and, below _NUMPY_MIN_STATES, from the payoffs
        matrix = (np.array(_DEGENERATE[case]) + offset).tolist()
        kernels = count_calls(monkeypatch, ("_batch_kernels", "_simplex_max"))
        for copies in (1, matrix_game._BATCH_MIN_GAMES):
            game = _repeated(matrix, copies=copies)
            x = np.zeros(copies)
            expected = _expected_solves(game, x, None)
            for threshold in (1, copies + 1):
                with mock.patch.object(matrix_game, "_NUMPY_MIN_STATES", threshold):
                    _assert_solve_matches(game, x, None, expected)
        # local_values and local_solve, stacked, on each screen
        assert kernels["_batch_kernels"] == 4
        assert (kernels["_simplex_max"] > 0) == (
            case in ("needs the simplex", "adjugate above tolerance"))

    def test_adjugate_only_games_take_the_tenth_candidate(self, monkeypatch):
        # 3x3 games that no 2x2 candidate settles, among 2x2 and 2x3 games a
        # 2x2 candidate settles: the batch settles each by its first
        # settling candidate, the 3x3's by the full adjugate, bit for bit as
        # the scalar kernel, from the block and from the payoffs, and no
        # game is left to a solve one at a time
        mixed = [[[3.0, 1.0], [0.0, 2.0]], [[1.0, -1.0, 0.5], [-1.0, 1.0, 0.5]]]
        game = _repeated(*_adjugate_only(24, seed=5), *mixed * 8)
        x = np.zeros(game.n)
        expected = _expected_solves(game, x, None)
        kernels = count_calls(monkeypatch, ("_batch_kernels", "_kernel_solve"))
        for threshold in (1, game.n + 1):
            with mock.patch.object(matrix_game, "_NUMPY_MIN_STATES", threshold):
                _assert_solve_matches(game, x, None, expected)
        assert kernels == {"_batch_kernels": 4}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_games(st.integers(-2, 2).map(float)), _games(st.floats(-10, 10)),
                     _games(st.floats(-1.7e308, 1.7e308))))
    def test_a_padded_adjugate_fails_the_sign_test(self, matrix):
        # the batch's tenth candidate, the full adjugate, is computed for
        # every game and needs no mask of the 3x3 ones: padding repeats a
        # smaller game's last row (column), so its cofactors cancel in pairs
        # bit for bit, s is 0.0 or NaN and some weight is NaN
        assume(len(matrix) < 3 or len(matrix[0]) < 3)
        row, col = _adjugate(_padded(matrix))
        assert not (np.concatenate([row, col]) >= 0.0).all()

    def test_larger_games_beside_the_batch(self, monkeypatch):
        # a call that batches its mixed 2x2 games solves its mixed 4x4 ones
        # one at a time, and keeps their strategies after the batch's, out
        # of state order
        kernels = count_calls(monkeypatch, ("_batch_kernels", "_simplex_max"))
        game = _repeated(np.eye(4).tolist(), [[3.0, 1.0], [0.0, 2.0]],
                         copies=matrix_game._BATCH_MIN_GAMES)
        x = np.zeros(game.n)
        _assert_solve_matches(game, x, None, _expected_solves(game, x, None))
        assert kernels["_batch_kernels"] == 2 and kernels["_simplex_max"] > 0

    def test_degenerate_games_meet_their_branch(self):
        cases = _DEGENERATE
        assert _first_candidate(cases["zero s"])[0] == 0.0
        s, weights = _first_candidate(cases["negative weight"])
        assert s != 0.0 and min(weights) < 0.0
        assert reference.kernel_solve(cases["gap at tolerance"])[3] == _TOL
        # the first candidate, which settles the game above at the tolerance
        assert _first_candidate(cases["gap above tolerance"])[1] == (0.5, 0.5, 0.5, 0.5)
        assert reference.kernel_solve(cases["gap above tolerance"])[2] != [0.5, 0.5, 0.0]
        s, weights = _first_candidate(cases["overflow"])
        assert s != s and reference.kernel_solve(cases["overflow"]) is not None
        s, weights = _first_candidate(cases["zero weight"])
        assert min(weights) == 0.0
        assert reference.kernel_solve(cases["zero weight"])[1] == [1.0, 0.0, 0.0]
        row, col = reference.kernel_solve(cases["adjugate only"])[1:3]
        assert min(row) > 0.0 and min(col) > 0.0
        case = cases["adjugate above tolerance"]
        row, col = _adjugate(case)
        worst_col, best_row = reference._saddle_bounds(case, row, col)
        assert min(row) >= 0.0 and min(col) >= 0.0 and best_row - worst_col > _TOL
        assert reference.kernel_solve(case) is None
        assert reference.kernel_solve(cases["needs the simplex"]) is None
        for matrix in cases.values():
            A = np.array(matrix)
            assert A.min(1).max() != A.max(0).min()  # mixed: the screen forwards it

    @pytest.mark.parametrize("n", [128, 256])
    def test_ladder_exit_strategies_match_the_per_state_build(self, n):
        # the benchmark ladder's games exit ergodic, each verdict's arrays
        # laid out by the solve at its potential
        game = random_game(n, max_actions=3, seed=0)
        verdict, _ = decide_ergodicity(game, 0.05)
        assert verdict.kind == "ergodic-24eps"
        solve = local_solve(normalize_rewards(game)[0], verdict.potential)
        for mix, vectors, player in zip((verdict.alpha, verdict.beta),
                                        reference.strategies_per_state(solve), ("row", "col")):
            assert _bits(mix) == _bits(reference.layout(game, vectors, player))

    @settings(max_examples=400, deadline=None)
    @given(_SMALL_GAMES, st.sampled_from([0.0, 1e6]))
    def test_kernel_matches_the_scalar_kernel(self, matrix, offset):
        rows = (np.array(matrix) + offset).tolist()
        expected = reference.kernel_solve(rows)
        settled = matrix_game._kernel_solve(rows)
        if expected is None:
            assert settled is None
            return
        assert _solution_bits(settled) == _solution_bits(expected)
        assert settled[3] == expected[3]  # the gap, equal up to the sign of a zero

    @pytest.mark.parametrize("matrix", [
        [[3.0, 1.0], [0.0, 2.0]],
        [[1.0, -1.0, 0.5], [-1.0, 1.0, 0.5]],
        [[2.0, -1.0], [-1.0, 1.0], [0.0, 0.0]],
    ])
    def test_mixed_games_take_a_2x2_kernel(self, matrix):
        for offset in (0.0, 1e6):
            rows = (np.array(matrix) + offset).tolist()
            expected = reference.kernel_solve(rows)
            assert expected is not None and 0.0 < max(expected[1]) < 1.0
            assert _solution_bits(matrix_game._kernel_solve(rows)) == _solution_bits(expected)


class TestBlockScreen:
    """From _NUMPY_MIN_STATES states on, a game whose every state has at
    most 3 actions per player is screened as one padded 3x3 block: its row
    minima, column maxima, pure maximin and minimax, and so its values, are
    bit for bit those of the segmented reductions."""

    @settings(max_examples=300, deadline=None)
    @given(_stacked_games(most=3))
    def test_block_screen_matches_the_segmented_screen(self, drawn):
        # 1xk and kx1 states, ties among integer payoffs, unlisted states
        block, segmented = _on_both_screens(*drawn)
        assert _screen_bits(block) == _screen_bits(segmented)

    def test_lines_ties_and_an_unlisted_state(self):
        # a 1x3 and a 3x1 state, a state whose rows share their minimum, one
        # whose columns share their maximum, a mixed state and an unlisted one
        game = _repeated([[4.0, 2.0, 2.0]], [[1.0], [3.0], [3.0]], [[1.0, 2.0], [1.0, 3.0]],
                         [[2.0, 2.0], [1.0, 0.0]], [[3.0, 1.0], [0.0, 2.0]], [[0.0]])
        block, segmented = _on_both_screens(game, np.zeros(game.n), [0, 1, 2, 3, 4])
        assert _screen_bits(block) == _screen_bits(segmented)
        expected = {"row_min": [2.0, 1.0, 3.0, 3.0, 1.0, 1.0, 2.0, 0.0, 1.0, 0.0, 0.0],
                    "col_max": [4.0, 2.0, 2.0, 3.0, 1.0, 3.0, 2.0, 2.0, 3.0, 2.0, 0.0],
                    "maximin": [2.0, 3.0, 1.0, 2.0, 1.0, 0.0],
                    "minimax": [2.0, 3.0, 1.0, 2.0, 2.0, 0.0],
                    "values": [2.0, 3.0, 1.0, 2.0, 1.5, np.nan]}
        for name, numbers in expected.items():
            assert _bits(getattr(block, name)) == _bits(numbers), name

    def test_a_larger_state_keeps_the_segmented_screen(self):
        # one state of 4 actions sends the whole game to the segmented screen
        game = _repeated(np.eye(4).tolist(), [[3.0, 1.0], [0.0, 2.0]])
        assert game.padded_view() is None
        block, segmented = on_both_forms(lambda: local_solve(game, np.zeros(2)), game.n)
        assert _screen_bits(block) == _screen_bits(segmented)


class TestLocalValue:
    def test_self_loop_constant(self):
        g = one_state(2.5)
        for c in (0.0, 100.0):
            assert local_value(g, 0, np.array([c])).value == pytest.approx(2.5)

    def test_uniform_shift_invariance(self):
        rng = np.random.default_rng(21)
        g = random_dense_game(rng, n=3)
        x = rng.normal(size=3)
        for v in range(3):
            assert local_value(g, v, x).value == pytest.approx(
                local_value(g, v, x + 42.0).value, abs=1e-9)

    def test_single_state_pump_is_lipschitz(self):
        # lowering one state's potential by delta moves each local value
        # by at most delta
        rng = np.random.default_rng(13)
        for trial in range(10):
            g = random_dense_game(rng, n=3)
            x = rng.normal(size=3) * 5
            delta = float(rng.uniform(0, 3))
            target = int(rng.integers(0, 3))
            bumped = x.copy()
            bumped[target] -= delta
            for v in range(3):
                before = local_value(g, v, x).value
                after = local_value(g, v, bumped).value
                assert abs(after - before) <= delta + 1e-9

    def test_local_values_vector_matches(self):
        rng = np.random.default_rng(2)
        g = random_dense_game(rng, n=4)
        x = rng.normal(size=4)
        vec = local_values(g, x)
        for v in range(4):
            assert vec[v] == pytest.approx(local_value(g, v, x).value, abs=1e-12)

    @pytest.mark.parametrize("unlisted", [[0], [0, 3], [1, 2, 4, 5]])
    def test_strategy_covers_exactly_the_listed_states(self, unlisted):
        # the driver's phase-2 entry NaNs states of a solve's values; a
        # state so unlisted, mixed state 0 among them, is covered by neither
        # player's strategy
        g = random_game(6, max_actions=3, seed=3)
        solve = local_solve(g, np.zeros(6))
        assert solve.maximin[0] != solve.minimax[0]  # state 0's game is mixed
        values = solve.values.copy()
        values[unlisted] = np.nan
        narrowed = solve._replace(values=values)
        for player in ("row", "col"):
            numpy_form, loop = on_both_forms(lambda: narrowed.strategy(player), 6)
            assert numpy_form.tobytes() == loop.tobytes()
            assert numpy_form.states == loop.states == set(range(6)) - set(unlisted)
        with pytest.raises(ValueError, match="player must be 'row' or 'col'"):
            narrowed.strategy("column")

    def test_numpy_layout_takes_the_first_tied_action(self):
        # state 0's value is the minimum of both its rows, state 1's the
        # maximum of both its columns, and each plays its first; state 2 is
        # mixed and state 3 not listed
        game = _repeated([[1.0, 2.0], [1.0, 3.0]], [[2.0, 2.0], [1.0, 0.0]],
                         [[3.0, 1.0], [0.0, 2.0]], [[0.0]])
        solve = local_solve(game, np.zeros(4), [0, 1, 2])
        expected = {"row": [1.0, 0.0, 1.0, 0.0, 0.5, 0.5, np.nan],
                    "col": [1.0, 0.0, 1.0, 0.0, 0.25, 0.75, np.nan]}
        for player, laid_out in expected.items():
            for mix in on_both_forms(lambda: solve.strategy(player), game.n):
                assert mix.tobytes() == np.array(laid_out).tobytes()


class TestErrors:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve_matrix_game([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            solve_matrix_game(np.zeros((0, 2)))

    def test_solve_value_matches_full_solver(self):
        rng = np.random.default_rng(17)
        A = rng.uniform(-3, 3, size=(4, 4))
        assert solve_value(A.tolist()) == pytest.approx(
            solve_matrix_game(A).value, abs=1e-12)

    def test_stalled_simplex_raises_matrix_game_error(self, monkeypatch):
        # both entry points fail the same way, with the pure maximin and
        # minimax as bounds; a mixed 4x4 game is beyond the closed forms, so
        # it reaches the simplex
        monkeypatch.setattr(matrix_game, "_MAX_PIVOTS", 0)
        identity = np.eye(4).tolist()
        for solve in (solve_value, solve_matrix_game):
            with pytest.raises(MatrixGameError) as info:
                solve(identity)
            assert (info.value.lower, info.value.upper) == (0.0, 1.0)


def _compensated_sum(items, start=0):
    """builtin sum as Python 3.12 and later add floats, with their rounding
    compensated (here exactly rounded)."""
    return math.fsum([start, *items])


def test_sums_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # Python 3.12 made builtin sum compensate float rounding. The kernels'
    # adjugate sums and saddle bounds, the value LP's totals, witness
    # truncation's mass and their reference copies add left to right from
    # +0.0 on every version: with sum shadowed by a compensated one in
    # those modules, no value, strategy or truncation changes a bit
    rng = np.random.default_rng(8)
    games = [rng.uniform(-10, 10, shape).tolist()
             for shape in [(3, 3)] * 100 + [(4, 4), (2, 5), (5, 3)] * 20]
    g = matrix_as_game(np.ones((4, 1)))
    mixes = [Strategy(rng.random(4) * rng.integers(0, 2, 4), g.flat.first_row)
             for _ in range(50)]
    mixes = [mix for mix in mixes if mix.any()]

    def solved():
        kernels = [reference.kernel_solve(rows) for rows in games]
        return ([_bits(np.hstack(matrix_game._solve(rows))) for rows in games]
                + [_bits(np.hstack(settled)) for settled in kernels if settled is not None]
                + [_truncate(g, mix, frozenset({0}), "row").tobytes() for mix in mixes])

    expected = solved()
    for module in (matrix_game, witness, reference):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert solved() == expected
