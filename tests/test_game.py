"""Game model: validation, normalization, parameters, potential transforms."""

import pickle
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from builders import disconnected, one_state, random_dense_game, two_cycle
from ergopump.game import (
    DocumentError,
    GameParams,
    GameSpec,
    apply_potential,
    game_params,
    local_reward_matrix,
    make_game,
    normalize_rewards,
    to_fraction,
    validate,
)
from ergopump.generators import random_game
from ergopump.markov import (
    best_response_value,
    evaluate_stationary_pair,
    induced_chain,
    limiting_matrix,
    make_profile,
    profile_step_reward,
    uniform_profile,
)
from ergopump.matrix_game import local_values
from ergopump.pump import r_bounds


class TestValidate:
    """Construction validates: an invalid game raises DocumentError listing
    every problem, so no GameSpec exists that fails validate."""

    def test_self_loop_game_is_valid(self):
        assert validate(one_state()).ok

    def test_substochastic_row_reported(self):
        with pytest.raises(DocumentError) as err:
            make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "t", "9/10", 1.0),
                       ("t", "a", "x", "t", 1, 0.0)])
        assert any("non-stopping" in p for p in err.value.problems)

    def test_negative_probability_reported(self):
        # an out-of-range entry: 11/10 on the only transition
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]],
                      [("s", "a", "x", "s", Fraction(11, 10), 1.0)])
        assert any("out of range" in p for p in err.value.problems)

    def test_no_states_reported(self):
        with pytest.raises(DocumentError) as err:
            make_game([], [], [], [])
        assert err.value.problems == ("game has no states",)

    def test_all_problems_listed(self):
        with pytest.raises(DocumentError) as err:
            make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "t", "1/2", 1.0)])
        assert len(err.value.problems) == 2  # two rows fail the sum condition

    def test_every_bad_record_reported_by_index(self):
        with pytest.raises(DocumentError) as err:
            make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "t", 1, 0.0),
                       ("s", "a", "x", "t", 1, 0.0),
                       ("ghost", "a", "x", "t", 1, 0.0),
                       ("t", "b", "x", "ghost", 1, 0.0),
                       ("t", "a", "x", 7, 1, 0.0)])
        assert err.value.problems == (
            "transition record 1: duplicate transition record for (0, 0, 0, 1)",
            "transition record 2: unknown state 'ghost'",
            "transition record 3: unknown state 'ghost'",
            "transition record 3: unknown row action 'b'",
            "transition record 4: state index 7 out of range",
        )

    def test_mapped_games_are_validated(self):
        with np.errstate(over="ignore"), pytest.raises(DocumentError,
                                                        match="reward is not finite"):
            apply_potential(two_cycle(), np.array([1e308, -1e308]))


def _unvalidated(states, row_actions, col_actions, transitions):
    """A GameSpec with these fields that construction has not validated."""
    game = object.__new__(GameSpec)
    for name, value in (("states", states), ("row_actions", row_actions),
                        ("col_actions", col_actions), ("transitions", transitions)):
        object.__setattr__(game, name, value)
    return game


@st.composite
def _probability_tables(draw):
    """0-3 states of 0-2 actions per player; each action pair has 0-3
    records, whose probabilities split 1 (written "a/b" with denominators up
    to 2**64, or as decimals), miss it by a tiny fraction such as 1/2**64,
    or include a negative value or one above 1; a few rewards are NaN or
    infinite."""
    n = draw(st.integers(0, 3))
    shapes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           min_size=n, max_size=n))
    reward = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf]))
    transitions = []
    for rows, cols in shapes:
        records = []
        for k in range(rows):
            for l in range(cols):
                successors = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
                denominator = draw(st.one_of(st.integers(1, 12), st.integers(2**53, 2**64),
                                             st.sampled_from([10, 100, 10**20])))
                cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=len(successors),
                                            max_size=len(successors))))
                parts = [Fraction(hi - lo, denominator)
                         for lo, hi in zip([0, *cuts[:-1]], [*cuts[:-1], denominator])]
                off = draw(st.sampled_from([0, 0, Fraction(1, 2**64), -Fraction(1, 2**64),
                                            Fraction(3, 2), -Fraction(1, 7)]))
                for i, u in enumerate(successors):
                    p = parts[i] + (off if i == 0 else 0)
                    text = (_decimal(p) if p >= 0 and 10**20 % p.denominator == 0
                            and draw(st.booleans()) else f"{p.numerator}/{p.denominator}")
                    records.append((k, l, u, to_fraction(text), draw(reward)))
        transitions.append(tuple(draw(st.permutations(records))))
    return _unvalidated(tuple(f"s{v}" for v in range(n)),
                        tuple(tuple(f"a{k}" for k in range(rows)) for rows, _ in shapes),
                        tuple(tuple(f"b{l}" for l in range(cols)) for _, cols in shapes),
                        tuple(transitions))


class TestValidateAgainstFractionSums:
    @settings(max_examples=300, deadline=None)
    @given(_probability_tables())
    def test_same_problems_in_the_same_order(self, game):
        assert validate(game).problems == reference.validate_problems(game)

    def test_sum_short_by_two_to_the_minus_64(self):
        short = Fraction(1, 2) - Fraction(1, 2**64)
        game = _unvalidated(("s",), (("a",),), (("x",),),
                            (((0, 0, 0, short, 0.0), (0, 0, 0, Fraction(1, 2), 0.0)),))
        assert validate(game).problems == (
            "non-stopping condition fails at ('s', k=0, l=0): probabilities sum to "
            f"{1 - Fraction(1, 2**64)}",)


class TestToFraction:
    @pytest.mark.parametrize("raw, expected", [
        ("1/3", Fraction(1, 3)),
        ("0.25", Fraction(1, 4)),
        (0.1, Fraction(1, 10)),
        (1, Fraction(1)),
        (np.float64(0.5), Fraction(1, 2)),
    ])
    def test_coercions(self, raw, expected):
        assert to_fraction(raw) == expected

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            to_fraction(True)


class TestNormalizeRewards:
    def test_mixed_signs(self):
        g = make_game(["s"], [["a", "b"]], [["x"]],
                      [("s", "a", "x", "s", 1, -3.0), ("s", "b", "x", "s", 1, 5.0)])
        shifted, offset = normalize_rewards(g)
        assert offset == 3.0
        assert [rec[4] for rec in shifted.transitions[0]] == [0.0, 8.0]
        assert game_params(shifted).reward_bound == 8.0

    def test_already_normalized_unchanged(self):
        g = one_state(5.0)
        shifted, offset = normalize_rewards(g)
        assert offset == 0.0
        assert shifted == g

    def test_constant_negative_game(self):
        g = one_state(-2.5)
        shifted, offset = normalize_rewards(g)
        assert offset == 2.5
        assert local_values(shifted, np.zeros(1))[0] == pytest.approx(0.0)

    def test_local_values_shift_by_offset(self):
        rng = np.random.default_rng(3)
        g = random_dense_game(rng, n=3, reward_lo=-5.0, reward_hi=5.0)
        shifted, offset = normalize_rewards(g)
        x = rng.normal(size=3)
        before = local_values(g, x)
        after = local_values(shifted, x)
        assert np.allclose(after - offset, before, atol=1e-12)


class TestGameParams:
    def test_granularity_from_thirds(self):
        g = make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "s", "1/3", 1.0), ("s", "a", "x", "t", "2/3", 1.0),
                       ("t", "a", "x", "t", 1, 0.0)])
        assert game_params(g).granularity == 3

    def test_deterministic_game(self):
        assert game_params(two_cycle()).granularity == 1

    def test_counts(self):
        # W and R are the only parameters; action counts do not enter them
        g = make_game(
            ["s", "t"],
            [["a", "b", "c"], ["a", "b", "c"]],
            [["x", "y"], ["x", "y"]],
            [("s", a, b, "t", 1, 0.5) for a in "abc" for b in "xy"]
            + [("t", a, b, "s", 1, 2.0 if a + b == "cy" else 0.0) for a in "abc" for b in "xy"],
        )
        assert game_params(g) == GameParams(granularity=1, reward_bound=2.0)

    def test_granularity_is_exact_beyond_doubles(self):
        # 1/(2**60 + 1) rounds to the double 2**-60, whose ceil(1/p) is 2**60
        tiny = Fraction(1, 2**60 + 1)
        g = make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "s", str(tiny), 1.0), ("s", "a", "x", "t", str(1 - tiny), 1.0),
                       ("t", "a", "x", "t", 1, 0.0)])
        assert game_params(g).granularity == 2**60 + 1 == reference.game_params(g).granularity

    def test_negative_reward_raises(self):
        with pytest.raises(ValueError, match="normalized"):
            game_params(disconnected(-1.0, 2.0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_built_constants_match_the_record_loop(self, data):
        game = data.draw(_rational_games())
        normalized, _ = normalize_rewards(game)
        for g in (game, normalized):
            try:
                expected = reference.game_params(g)
            except ValueError:
                with pytest.raises(ValueError, match="normalized"):
                    game_params(g)
                continue
            got = game_params(g)
            assert got == expected
            assert type(got.granularity) is int
            assert np.float64(got.reward_bound).tobytes() == np.float64(
                expected.reward_bound).tobytes()


def _decimal(p: Fraction) -> str:
    """p, whose denominator divides a power of 10, as a decimal string."""
    digits = 0
    while (p * 10**digits).denominator != 1:
        digits += 1
    text = str(int(p * 10**digits)).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


@st.composite
def _rational_games(draw):
    """1-3 states of 1-2 actions per player; each action pair splits 1 over
    1-3 successors, written "a/b" with a drawn denominator (some above
    2**53) or as decimals, with rewards all zero, all non-negative or of
    both signs."""
    n = draw(st.integers(1, 3))
    shapes = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                           min_size=n, max_size=n))
    reward = draw(st.sampled_from([st.just(0.0), st.floats(0.0, 1e3),
                                   st.floats(-1e3, 1e3)]))
    records = []
    for v, (rows, cols) in enumerate(shapes):
        for k in range(rows):
            for l in range(cols):
                successors = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                           unique=True))
                decimal = draw(st.booleans())
                denominator = 10 ** draw(st.integers(0, 20)) if decimal else draw(
                    st.one_of(st.integers(1, 12), st.integers(2**53, 2**64)))
                cuts = sorted(draw(st.lists(st.integers(1, denominator - 1),
                                            min_size=len(successors) - 1,
                                            max_size=len(successors) - 1, unique=True))
                              if denominator > len(successors) else [])
                bounds = [0, *cuts, denominator]
                parts = [Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]
                for u, p in zip(successors, parts):
                    records.append((v, k, l, u, _decimal(p) if decimal else f"{p.numerator}/"
                                    f"{p.denominator}", draw(reward)))
    return make_game([f"s{v}" for v in range(n)],
                     [[f"a{k}" for k in range(rows)] for rows, _ in shapes],
                     [[f"b{l}" for l in range(cols)] for _, cols in shapes], records)


class TestLocalRewardMatrix:
    def test_self_loop_potential_cancels(self):
        g = one_state(3.0)
        for c in (0.0, 5.0, -17.5):
            entries = local_reward_matrix(g, 0, np.array([c]))
            assert entries[0, 0] == pytest.approx(3.0)

    def test_single_term(self):
        g = make_game(["v", "u"], [["a"], ["a"]], [["x"], ["x"]],
                      [("v", "a", "x", "u", 1, 5.0), ("u", "a", "x", "u", 1, 0.0)])
        entries = local_reward_matrix(g, 0, np.array([2.0, 0.0]))
        assert entries[0, 0] == pytest.approx(7.0)

    def test_symmetric_cancellation(self):
        g = make_game(["v", "u", "w"], [["a"]] * 3, [["x"]] * 3,
                      [("v", "a", "x", "u", "1/2", 0.0), ("v", "a", "x", "w", "1/2", 0.0),
                       ("u", "a", "x", "u", 1, 0.0), ("w", "a", "x", "w", 1, 0.0)])
        entries = local_reward_matrix(g, 0, np.array([0.0, 2.0, -2.0]))
        assert entries[0, 0] == pytest.approx(0.0)

    def test_uniform_shift_invariance(self):
        rng = np.random.default_rng(7)
        g = random_dense_game(rng, n=4)
        x = rng.normal(size=4) * 10
        for v in range(4):
            base = local_reward_matrix(g, v, x)
            shifted = local_reward_matrix(g, v, x + 123.456)
            assert np.allclose(base, shifted, atol=1e-9)


class TestFlatView:
    """Every reader of the flat view agrees with dense per-state tables built
    by a plain loop over the records, also when the records come shuffled."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_dense_tables(self, seed, shuffle):
        rng = np.random.default_rng(seed)
        game = random_game(n=int(rng.integers(1, 6)), max_actions=3,
                           granularity=int(rng.integers(1, 7)), seed=seed)
        if shuffle:
            game = replace(game, transitions=tuple(
                tuple(rng.permutation(np.array(records, dtype=object)).tolist())
                for records in game.transitions))
        n = game.n
        dense = reference.dense_tables(game)
        x = rng.normal(size=n) * 10
        scale = 10 * (1 + np.abs(x).max())  # rewards lie in [0, 8]

        def close(actual, expected):
            np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)

        for v, (p, e) in enumerate(dense):
            close(local_reward_matrix(game, v, x), e + x[v] - p @ x)

        # the segment indices of per-row and per-column reductions
        flat = game.flat
        assert flat.row_count.tolist() == [e.shape[0] for _p, e in dense]
        assert flat.col_count.tolist() == [e.shape[1] for _p, e in dense]
        assert flat.rec_state.tolist() == [v for v, records in enumerate(game.transitions)
                                           for _ in records]
        reward = flat.slot_reward
        assert np.minimum.reduceat(reward, flat.row_start).tolist() == [
            x for v in range(n) for x in game.state_matrix(reward, v).min(axis=1)]
        assert np.maximum.reduceat(reward[flat.col_order], flat.col_start).tolist() == [
            x for v in range(n) for x in game.state_matrix(reward, v).max(axis=0)]

        pumped = {v for v in range(n) if rng.random() < 0.5}
        m_plus = float(rng.uniform(0, 8))
        bounds = r_bounds(game, x, np.isin(np.arange(n), list(pumped)), m_plus)
        for v, (p, e) in enumerate(dense):
            if v in pumped:
                bound = (e + p @ np.maximum(x[v] - x, 0.0)).max()
            else:
                bound = (m_plus - e - p @ np.minimum(x[v] - x, 0.0)).max()
            close(bounds[v], bound)

        profile = make_profile(
            game,
            [rng.dirichlet(np.ones(game.num_row_actions(v))) for v in range(n)],
            [rng.dirichlet(np.ones(game.num_col_actions(v))) for v in range(n)])
        close(induced_chain(game, profile),
              [np.einsum("k,klu,l->u", a, p, b)
               for a, b, (p, _e) in zip(profile.alpha, profile.beta, dense)])
        close(profile_step_reward(game, profile),
              [a @ e @ b for a, b, (_p, e) in zip(profile.alpha, profile.beta, dense)])

        for player, fixed in (("row", profile.alpha), ("col", profile.beta)):
            if player == "row":
                tables = [(np.einsum("k,klu->lu", f, p), f @ e)
                          for f, (p, e) in zip(fixed, dense)]
            else:
                tables = [(np.einsum("klu,l->ku", p, f), e @ f)
                          for f, (p, e) in zip(fixed, dense)]
            gain, policy = best_response_value(game, fixed, player)
            # the returned policy earns the returned gain ...
            P_d = np.array([trans[a] for (trans, _r), a in zip(tables, policy)])
            r_d = np.array([rew[a] for (_t, rew), a in zip(tables, policy)])
            close(gain, limiting_matrix(P_d) @ r_d)
            # ... and no action of the free player improves on it
            sign = 1.0 if player == "col" else -1.0
            for v, (trans, _r) in enumerate(tables):
                assert np.all(sign * (trans @ gain - gain[v]) <= 1e-9 * scale)

    def test_read_only_after_pickling(self):
        # solve --jobs sends parsed games to worker processes by pickle
        built = random_game(n=3, max_actions=2, granularity=7, reward_bound=8.0, seed=1)
        game = pickle.loads(pickle.dumps(built))
        assert game.flat is not None
        fields = vars(game.flat)
        assert {"rec_state", "row_count", "col_count", "row_start", "col_order",
                "col_start"} <= set(fields)
        arrays = {name: value for name, value in fields.items()
                  if isinstance(value, np.ndarray)}
        assert not any(arr.flags.writeable for arr in arrays.values())
        # the game constants are plain numbers and come through unchanged
        constants = {name: fields[name] for name in ("granularity", "reward_low",
                                                     "reward_high")}
        assert set(fields) == set(arrays) | set(constants)
        assert constants == {name: getattr(built.flat, name) for name in constants}
        assert game_params(game) == game_params(built) == reference.game_params(built)


class TestApplyPotential:
    def test_zero_potential_identity(self):
        g = two_cycle()
        assert apply_potential(g, np.zeros(2)) == g

    def test_constant_potential_identity(self):
        g = two_cycle()
        assert apply_potential(g, np.full(2, 7.25)) == g

    def test_two_cycle_telescopes(self):
        g = two_cycle(0.0, 0.0)
        transformed = apply_potential(g, np.array([1.0, 0.0]))
        assert transformed.transitions[0][0][4] == pytest.approx(1.0)
        assert transformed.transitions[1][0][4] == pytest.approx(-1.0)
        gain = evaluate_stationary_pair(transformed, uniform_profile(transformed)).gain
        assert np.allclose(gain, 0.0, atol=1e-12)

    def test_mean_payoff_invariance(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            g = random_dense_game(rng, n=3)
            x = rng.uniform(-1e3, 1e3, size=3)
            profile = uniform_profile(g)
            before = evaluate_stationary_pair(g, profile).gain
            after = evaluate_stationary_pair(apply_potential(g, x), profile).gain
            assert np.allclose(before, after, atol=1e-9)
