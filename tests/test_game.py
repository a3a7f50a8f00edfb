"""Game model: validation, normalization, parameters, potential transforms."""

import json
import pickle
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from builders import disconnected, one_state, random_dense_game, two_cycle
from ergopump import game as game_module
from ergopump.documents import parse_game
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
        assert validate(one_state()) == ()

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
    """A GameSpec of these per-state (k, l, u, p, r) records, kept in the
    order given as the columns of its flat view, that construction has not
    validated."""
    records = [(v, *rec) for v, recs in enumerate(transitions) for rec in recs]
    v, k, l, u = (np.array([rec[i] for rec in records], dtype=np.int64) for i in range(4))
    table = list(dict.fromkeys(rec[4] for rec in records))
    with np.errstate(invalid="ignore"):  # an infinite reward on a p = 0 record
        flat = game_module._flat_view(
            row_actions, col_actions, v, k, l, u, table,
            np.array([table.index(rec[4]) for rec in records], dtype=np.int64),
            np.array([rec[5] for rec in records], dtype=np.float64))
    game = object.__new__(GameSpec)
    for name, value in (("states", states), ("row_actions", row_actions),
                        ("col_actions", col_actions), ("flat", flat)):
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
        assert validate(game) == reference.validate_problems(game)

    def test_sum_short_by_two_to_the_minus_64(self):
        short = Fraction(1, 2) - Fraction(1, 2**64)
        game = _unvalidated(("s",), (("a",),), (("x",),),
                            (((0, 0, 0, short, 0.0), (0, 0, 0, Fraction(1, 2), 0.0)),))
        assert validate(game) == (
            "non-stopping condition fails at ('s', k=0, l=0): probabilities sum to "
            f"{1 - Fraction(1, 2**64)}",)


class TestNames:
    @pytest.mark.parametrize("states, rows, cols, problem", [
        (["s", "s"], [["a"], ["a"]], [["x"], ["x"]], "duplicate state name 's'"),
        (["s"], [["a", "a"]], [["x"]], "state 's': duplicate row action name 'a'"),
        (["s"], [["a"]], [["x", "x"]], "state 's': duplicate column action name 'x'"),
    ])
    def test_repeated_names_rejected(self, states, rows, cols, problem):
        # such a game wrote a document that parse_game could not read back
        records = [(v, 0, 0, v, 1, 1.0) for v in range(len(states))]
        records += [(0, 1, 0, 0, 1, 2.0)] if len(rows[0]) > 1 else []
        records += [(0, 0, 1, 0, 1, 2.0)] if len(cols[0]) > 1 else []
        with pytest.raises(DocumentError) as err:
            make_game(states, rows, cols, records)
        assert err.value.problems == (problem,)

    def test_numpy_integers_are_indices(self):
        g = make_game(["s"], [["a"]], [["x"]],
                      [(np.int64(0), np.int32(0), np.uint8(0), np.int64(0), 1, 5.0)])
        assert g == one_state(5.0)
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]], [(0, np.int64(1), 0, np.int16(-1), 1, 5.0)])
        assert err.value.problems == ("transition record 0: state index -1 out of range",
                                      "transition record 0: row action index 1 out of range")


class TestRecordValues:
    """make_game checks every caller's probabilities and rewards, and
    reports each bad one against its record rather than raising it."""

    @pytest.mark.parametrize("p, problem", [
        ("1/0", "probability '1/0' has a zero denominator"),
        (True, "bool is not a probability"),
        ([1], "cannot interpret [1] as a probability"),
        # 10**100000 builds quickly, but a slot sum with it would not print
        ("1e-100000", f"probability '1e-100000' has more than {sys.get_int_max_str_digits()} "
                      "digits"),
    ])
    def test_bad_probability_named(self, p, problem):
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]], [("s", "a", "x", "s", p, 0.0)])
        assert err.value.problems == (f"transition record 0: {problem}",)

    def test_probability_past_the_digit_limit_rejected_before_it_is_built(self):
        # Fraction("1e-10000000") would spend seconds building 10**10000000
        start = time.perf_counter()
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]], [("s", "a", "x", "s", "1e-10000000", 0.0)])
        assert time.perf_counter() - start < 0.5
        assert err.value.problems == (
            f"transition record 0: probability '1e-10000000' has more than "
            f"{sys.get_int_max_str_digits()} digits",)

    @pytest.mark.parametrize("reward", ["2.5", 10**400, None, True, np.bool_(True),
                                        np.timedelta64(5, "s"), np.nan],
                             ids=["str", "int-beyond-floats", "None", "bool", "numpy-bool",
                                  "numpy-timedelta", "nan"])
    def test_bad_reward_named(self, reward):
        # a float conversion would read "2.5" as 2.5 and True as 1.0, and
        # raise OverflowError on an integer beyond the float range
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]], [("s", "a", "x", "s", 1, reward)])
        assert err.value.problems == (
            f"transition record 0: reward is not finite or not a number: {reward!r}",)

    @pytest.mark.parametrize("reward", [np.float64(5.0), np.int64(5), np.float32(5.0), 5])
    def test_numpy_and_int_rewards_build(self, reward):
        assert make_game(["s"], [["a"]], [["x"]],
                         [("s", "a", "x", "s", 1, reward)]) == one_state(5.0)

    def test_every_kind_of_problem_reported_in_order(self):
        # names and duplicates, then probabilities, then rewards, each by
        # record index; a zero-probability record's values are checked too
        with pytest.raises(DocumentError) as err:
            make_game(["s"], [["a"]], [["x"]],
                      [("s", "a", "x", "s", "x", "r"),
                       ("ghost", "a", "x", "s", None, 1.0),
                       ("s", "a", "x", "s", 0, np.inf)])
        assert err.value.problems == (
            "transition record 1: unknown state 'ghost'",
            "transition record 2: duplicate transition record for (0, 0, 0, 0)",
            "transition record 0: Invalid literal for Fraction: 'x'",
            "transition record 1: cannot interpret None as a probability",
            "transition record 0: reward is not finite or not a number: 'r'",
            "transition record 2: reward is not finite or not a number: inf")


# a list or dict token is unhashable: make_game names it by its str
_BAD_TOKENS = ("ghost", 7, np.int64(-1), True, 1.5, ["s0"], {"s0": 0})
# "1e400" and 10**400 are valid Fractions beyond the float range
_BAD_PROBABILITIES = ("1/0", "x", None, [1], True, float("nan"), 1.5, "1e400", "-1e400",
                      10**400)


@st.composite
def _record_lists(draw, broken):
    """make_game's arguments: 1-3 states of 1-2 actions per player and a
    shuffled record list in which each action pair splits 1 over 1-3
    successors, plus p = 0 records on other successors. Tokens are names,
    ints or numpy integers; probabilities are written "a/b" (denominators up
    to 2**64), as decimals, ints, floats or Fractions; rewards are floats,
    numpy floats or numpy ints. When broken, some tokens name nothing, some
    probabilities are bools, off 1, out of range or no number, some rewards
    are not finite or no number, some records repeat, and a player may have
    no actions."""
    n = draw(st.integers(1, 3))
    actions = st.integers(0 if broken else 1, 2)
    shapes = draw(st.lists(st.tuples(actions, actions), min_size=n, max_size=n))
    states = [f"s{v}" for v in range(n)]
    rows = [[f"a{k}" for k in range(count)] for count, _ in shapes]
    cols = [[f"b{l}" for l in range(count)] for _, count in shapes]

    def token(names, i):
        return draw(st.sampled_from([names[i], i, np.int64(i)]))

    def written(p):
        forms = [f"{p.numerator}/{p.denominator}", p]
        if to_fraction(float(p)) == p:
            forms.append(float(p))
        if p >= 0 and 10**20 % p.denominator == 0:
            forms.append(_decimal(p))
        if p.denominator == 1:
            forms += [int(p), np.int64(int(p))]
        return draw(st.sampled_from(forms))

    reward = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3).map(np.float64),
                       st.integers(-1000, 1000).map(np.int64))
    records = []
    for v, (row_count, col_count) in enumerate(shapes):
        for k in range(row_count):
            for l in range(col_count):
                successors = draw(st.permutations(range(n)))
                support = draw(st.integers(1, n))
                denominator = draw(st.one_of(st.integers(1, 12), st.integers(2**53, 2**64),
                                             st.sampled_from([10, 100, 10**20])))
                cuts = sorted(draw(st.lists(st.integers(1, denominator - 1),
                                            min_size=support - 1, max_size=support - 1,
                                            unique=True))) if denominator > support else []
                bounds = [0, *cuts, denominator]
                parts = [Fraction(hi - lo, denominator) for lo, hi in zip(bounds, bounds[1:])]
                parts += [Fraction(0)] * (n - len(parts))
                for u, p in zip(successors, parts):
                    if p or draw(st.booleans()):
                        records.append((token(states, v), token(rows[v], k),
                                        token(cols[v], l), token(states, u), written(p),
                                        draw(reward)))
    if broken:
        for _ in range(draw(st.integers(1, 4))):
            if not records:
                break
            i = draw(st.integers(0, len(records) - 1))
            record = list(records[i])
            field = draw(st.integers(0, 6))
            if field < 4:
                record[field] = draw(st.sampled_from(_BAD_TOKENS))
            elif field == 4:
                record[4] = draw(st.sampled_from([*_BAD_PROBABILITIES, Fraction(1, 2**64),
                                                  "-1/7", "3/2", Fraction(0)]))
            elif field == 5:
                record[5] = draw(st.sampled_from([np.nan, np.inf, -np.inf, "2.5", True, None,
                                                  10**400]))
            else:
                records.append(records[i])
            records[i] = tuple(record)
    return states, rows, cols, draw(st.permutations(records))


def _document(states, rows, cols, records, data, broken):
    """A game document of these records, with more problems when broken:
    missing fields, a record that is no object, a state without actions."""
    def plain(value):
        if isinstance(value, np.integer):
            return int(value)
        return f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else value

    transitions = [dict(zip(("from", "row", "col", "to", "p", "r"), map(plain, record)))
                   for record in records]
    actions = {s: {"row": r, "col": c} for s, r, c in zip(states, rows, cols)}
    if broken and transitions:
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(transitions) - 1))
            change = data.draw(st.sampled_from(["drop", "object", "actions", "reward"]))
            if change == "drop" and isinstance(transitions[i], dict):
                transitions[i].pop(data.draw(st.sampled_from(sorted(transitions[i]))))
            elif change == "object":
                transitions[i] = data.draw(st.sampled_from([3, [1], "s0"]))
            elif change == "actions":
                actions.pop(data.draw(st.sampled_from(states)), None)
            elif isinstance(transitions[i], dict):
                transitions[i]["r"] = data.draw(st.sampled_from(["1.0", None, True, 10**400]))
    return json.dumps({"format": "ergopump-game/1", "states": states, "actions": actions,
                       "transitions": transitions})


def _built(build, *args):
    """What build returns, or the problems or error it raises."""
    try:
        return build(*args)
    except DocumentError as exc:
        return exc.problems
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_same_game(got, expected):
    """got is the game expected is, with every flat view field bit-equal and
    the same exact probability on every record; or both raised the same."""
    if not isinstance(expected, reference.RecordGame):
        assert got == expected
        return
    assert isinstance(got, GameSpec), got
    assert got.transitions == expected.transitions
    flat = got.flat
    assert flat.probabilities[flat.rec_prob].tolist() == [
        p for records in expected.transitions for _k, _l, _u, p, _r in records]
    for name, want in expected.flat.items():
        have = getattr(flat, name)
        if isinstance(want, np.ndarray):
            assert (have.dtype, have.shape, have.tobytes()) == (
                want.dtype, want.shape, want.tobytes()), name
        else:
            assert (type(have), repr(have)) == (type(want), repr(want)), name


# rewards of both zeros: a numpy reduction may meet either first, and the
# flat view's reward range holds +0.0 either way
_SIGNED_ZEROS = (
    ["s0", "s1"], [["a0"], ["a0", "a1"]], [["b0", "b1"], ["b0", "b1"]],
    [("s0", "a0", "b0", "s0", "1/1", 0.0), ("s0", "a0", "b1", "s0", "1/1", 0.0),
     ("s1", "a0", "b0", "s0", "1/3", 0.0), ("s1", "a0", "b0", "s1", "2/3", 0.0),
     ("s1", "a0", "b1", "s0", "1/3", 0.0), ("s1", "a0", "b1", "s1", "2/3", 0.0),
     ("s1", "a1", "b0", "s0", "1/1", 0.0), ("s1", "a1", "b1", "s0", "1/1", -0.0)])


class TestConstructionAgainstRecordTuples:
    """make_game and parse_game build straight into the flat view's columns;
    the record-tuple path in reference.py, which resolves and stores each
    record on its own and reads the flat view back from the tuples, builds
    bit-equal arrays and reports the same problems in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(st.booleans().flatmap(lambda broken: _record_lists(broken)))
    @example(_SIGNED_ZEROS)
    def test_make_game(self, args):
        _assert_same_game(_built(make_game, *args), _built(reference.make_game, *args))

    @settings(max_examples=300, deadline=None)
    @given(st.booleans(), st.data())
    def test_parse_game(self, broken, data):
        text = _document(*data.draw(_record_lists(broken)), data, broken)
        _assert_same_game(_built(parse_game, text), _built(reference.parse_game, text))


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
            records = [(v, *rec) for v, recs in enumerate(game.transitions) for rec in recs]
            game = make_game(game.states, game.row_actions, game.col_actions,
                             [records[i] for i in rng.permutation(len(records))])
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
        fields = game.flat._asdict()
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
