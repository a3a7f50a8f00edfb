"""Matrix game solver against closed forms, independent LPs, and properties."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from builders import count_calls, count_local_games, one_state, random_dense_game
from ergopump import matrix_game
from ergopump.driver import decide_ergodicity
from ergopump.game import local_payoffs, make_game, normalize_rewards
from ergopump.generators import random_game
from ergopump.matrix_game import (
    MatrixGameError,
    local_solve,
    local_value,
    local_values,
    solve_matrix_game,
    solve_value,
)


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
def _stacked_games(draw):
    """(game, x, states): 1-5 states of 1-3 actions per player, one record
    per action pair to a drawn successor with a reward in {-2..2} or a
    float, at a potential of small integers (so integer rewards keep exact
    ties in the payoffs) or floats, with every state listed (None) or a
    drawn subset."""
    entries = draw(st.sampled_from([st.integers(-2, 2).map(float), st.floats(-10, 10)]))
    n = draw(st.integers(1, 5))
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=n, max_size=n))
    records = [(v, k, l, draw(st.integers(0, n - 1)), 1, draw(entries))
               for v, (rows, cols) in enumerate(shapes)
               for k in range(rows) for l in range(cols)]
    game = make_game([f"s{v}" for v in range(n)],
                     [[f"a{k}" for k in range(rows)] for rows, _ in shapes],
                     [[f"b{l}" for l in range(cols)] for _, cols in shapes], records)
    x = draw(st.lists(st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10)),
                      min_size=n, max_size=n))
    states = draw(st.none() | st.sets(st.integers(0, n - 1)).map(sorted))
    return game, np.array(x), states


class TestScreenAgainstScalarKernel:
    """The pure-saddle screen and the cheaper 2x2 candidates return bit for
    bit what the scalar kernel, kept unchanged in reference.kernel_solve,
    returns for each local game."""

    @settings(max_examples=300, deadline=None)
    @given(_stacked_games())
    def test_local_games_match_a_per_state_solve(self, drawn):
        game, x, states = drawn
        payoffs = local_payoffs(game, x)
        listed = range(game.n) if states is None else states
        expected = {}
        for v in listed:
            rows = game.state_matrix(payoffs, v).tolist()
            expected[v] = reference.kernel_solve(rows) or matrix_game._solve(rows)
        values = np.full(game.n, np.nan)
        values[list(expected)] = [solved[0] for solved in expected.values()]

        assert _bits(local_values(game, x, states)) == _bits(values)
        solve = local_solve(game, x, states)
        assert _bits(solve.values) == _bits(values)
        # one array per player: each listed state's vector from its own
        # solve, clipped at 0, and NaN at the states not listed, as the
        # per-state build lays them out, signs of zeros included
        per_state = reference.strategies_per_state(solve)
        for mix, side, vectors, player in zip(solve.strategies(), (1, 2), per_state,
                                              ("row", "col")):
            solved = {v: np.maximum(out[side], 0.0) for v, out in expected.items()}
            assert _bits(mix) == _bits(reference.layout(game, solved, player))
            assert _bits(mix) == _bits(reference.layout(game, vectors, player))

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
