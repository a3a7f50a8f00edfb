"""Witness construction and the one certificate check of both verdicts."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import reference
from builders import big_match, disconnected, matrix_as_game
from ergopump.documents import parse_certificate, serialize_certificate
from ergopump.driver import decide_ergodicity
from ergopump.game import Strategy, make_game
from ergopump.generators import cycle, random_game
from ergopump.matrix_game import LocalSolve, local_solve, local_value, local_values
from ergopump.pump import auxiliary_graph, boundary_gap_violations, modified_pump
from ergopump.witness import (
    ERGODIC,
    INCONCLUSIVE,
    NON_ERGODIC,
    Verdict,
    WitnessBuildError,
    _truncate,
    bar_actions,
    build_witness,
    verify_witness,
)


def leaky_row_game():
    """High state whose optimal row strategy puts 0.3 on an action that
    leaves the high set; the column player has two actions."""
    return make_game(
        ["v", "o"],
        [["safe", "leak"], ["stay"]],
        [["x", "y"], ["stay"]],
        [
            ("v", "safe", "x", "v", 1, 1.0),
            ("v", "safe", "y", "v", 1, 0.0),
            ("v", "leak", "x", "o", 1, 0.0),
            ("v", "leak", "y", "o", 1, 7.0 / 3.0),
            ("o", "stay", "stay", "o", 1, 0.0),
        ],
    )


def _kept_at(game, v, inside, player):
    """The actions at v that bar_actions keeps for the set inside."""
    first = game.flat.first_row if player == "row" else game.flat.first_col
    return set(np.flatnonzero(bar_actions(game, inside, player)[first[v]:first[v + 1]]).tolist())


class TestBarActions:
    def test_all_self_loops_full_set(self):
        g = disconnected()
        assert _kept_at(g, 1, {1}, "row") == {0}
        assert _kept_at(g, 1, {1}, "col") == {0}

    def test_leaking_action_excluded(self):
        g = leaky_row_game()
        assert bar_actions(g, {0}, "row").tolist() == [True, False, True]
        assert bar_actions(g, {0}, "col").tolist() == [False, False, True]

    def test_whole_state_space_keeps_everything(self):
        g = big_match()
        for player in ("row", "col"):
            assert bar_actions(g, set(range(g.n)), player).all()

    def test_partial_leak_probability(self):
        g = make_game(
            ["a", "b"], [["k"], ["k"]], [["l"], ["l"]],
            [("a", "k", "l", "a", "2/3", 1.0), ("a", "k", "l", "b", "1/3", 1.0),
             ("b", "k", "l", "b", 1, 0.0)],
        )
        assert _kept_at(g, 0, {0}, "row") == set()

    def test_a_mask_reads_as_its_states(self):
        g = leaky_row_game()
        for player in ("row", "col"):
            assert (bar_actions(g, np.array([True, False]), player).tolist()
                    == bar_actions(g, [0], player).tolist())

    def test_unknown_player_raises(self):
        with pytest.raises(ValueError, match="player must be"):
            bar_actions(leaky_row_game(), {0}, "column")


class TestBuildWitness:
    def test_truncation_drops_leaking_mass(self):
        g = leaky_row_game()
        # local game at v is [[1,0],[0,7/3]] whose optimal row mix is (0.7, 0.3)
        sol = local_value(g, 0, np.zeros(2))
        assert np.allclose(sol.row_strategy, [0.7, 0.3], atol=1e-9)
        cert = build_witness(g, local_solve(g, np.zeros(2)), {0}, {1},
                             ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        assert np.allclose(reference.per_state(g, cert.alpha, "row")[0], [1.0, 0.0])

    def test_closed_set_keeps_optimal_strategy(self):
        # the whole state space is closed, so truncation is the identity
        g = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
        sol = local_value(g, 0, np.zeros(1))
        assert bar_actions(g, {0}, "row").all()
        kept = _truncate(g, Strategy(sol.row_strategy, g.flat.first_row), frozenset({0}), "row")
        assert np.allclose(kept, sol.row_strategy)

    def test_empty_bar_set_raises(self):
        g = make_game(
            ["a", "b"], [["k"], ["k"]], [["l"], ["l"]],
            [("a", "k", "l", "b", 1, 5.0), ("b", "k", "l", "b", 1, 0.0)],
        )
        with pytest.raises(WitnessBuildError, match="preconditions violated"):
            build_witness(g, local_solve(g, np.zeros(2)), {0}, {1}, 0.2, 0.9, eps=0.1)

    def test_build_leaves_the_solves_strategies_intact(self):
        # truncation lays new arrays; a verdict's arrays are read-only, so
        # a write through one that aliases a solve's raises
        g = leaky_row_game()
        solve = local_solve(g, np.zeros(2))
        before = [solve.strategy(player).tobytes() for player in ("row", "col")]
        cert = build_witness(g, solve, {0}, {1}, ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        assert [solve.strategy(player).tobytes() for player in ("row", "col")] == before
        ergodic, _ = decide_ergodicity(cycle(n=3, seed=0), 0.05)
        for mix in (cert.alpha, cert.beta, ergodic.alpha, ergodic.beta):
            with pytest.raises(ValueError, match="read-only"):
                mix[0] = 0.5

    def test_build_lays_out_one_player_per_solve(self):
        # alpha is the row player's of the caller's solve, beta the column
        # player's of the low set's; neither solve lays out the other player
        g = leaky_row_game()
        solve = local_solve(g, np.zeros(2))
        with mock.patch.object(LocalSolve, "strategy", autospec=True,
                               side_effect=LocalSolve.strategy) as laid:
            build_witness(g, solve, {0}, {1}, ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        (pumped, first), (low, second) = (call.args for call in laid.call_args_list)
        assert (first, second) == ("row", "col")
        assert pumped is solve
        assert np.isnan(low.values).tolist() == [True, False]  # lists the low set only

    def test_high_states_come_from_the_callers_solve(self):
        # alpha is read off the caller's solve, so it must list the high set
        g = disconnected(0.0, 10.0)
        with pytest.raises(WitnessBuildError, match=r"does not list high states \[1\]"):
            build_witness(g, local_solve(g, np.zeros(2), [0]), {1}, {0}, 0.2, 0.9, eps=0.1)

    def test_reflected_equals_direct_minimizer_side(self):
        g = make_game(
            ["hi", "lo"],
            [["a"], ["r0", "r1"]],
            [["x"], ["c0", "c1"]],
            [("hi", "a", "x", "hi", 1, 10.0)]
            + [("lo", rk, cl, "lo", 1, val)
               for rk, cl, val in [("r0", "c0", 1.0), ("r0", "c1", 0.0),
                                   ("r1", "c0", 0.0), ("r1", "c1", 1.0)]],
        )
        x = np.array([-1000.0, 0.0])
        cert = build_witness(g, local_solve(g, x), {0}, {1}, ceiling_raw=5.0, floor_raw=6.25,
                             eps=0.1)
        direct = local_value(g, 1, x).col_strategy
        assert np.allclose(reference.per_state(g, cert.beta, "col")[1], direct, atol=1e-9)


def _solved_witness(game, eps):
    verdict, _ = decide_ergodicity(game, eps)
    assert verdict.kind == "non-ergodic"
    return verdict


def _flat(game, player, values):
    first = game.flat.first_row if player == "row" else game.flat.first_col
    return Strategy(np.array(values, dtype=np.float64), first)


# ways to break a solved verdict's strategies in memory: per case, the game,
# the eps to solve it at, the fields to replace and the failure
# verify_witness reports (an unknown kind and a boolean eps are among the
# malformed fields below). disconnected(0, 10) gives a witness at eps 0.05
# (alpha covers 'high', beta 'low'); [[3, 1], [0, 2]] an ergodic verdict
# with alpha (1/2, 1/2)
_BUILT_IN_CODE = {
    "all-zero ergodic": (disconnected(0.0, 10.0), 0.05, lambda g, v: dict(
        kind=ERGODIC, floor=0.0, ceiling=0.0, alpha=_flat(g, "row", [0.0, 0.0]),
        beta=_flat(g, "col", [0.0, 0.0])), "alpha: expected non-negative entries"),
    # read over its mass of 3, alpha guarantees 10, not the 30 tripled
    "tripled alpha": (disconnected(0.0, 10.0), 0.05, lambda g, v: dict(
        alpha=_flat(g, "row", 3 * np.asarray(v.alpha)), floor=29.0),
        "one-shot: alpha guarantees 10.0 at state 'high', below floor 29.0"),
    "negative entry, positive sum": (matrix_as_game([[3.0, 1.0], [0.0, 2.0]]), 0.05,
                                     lambda g, v: dict(alpha=_flat(g, "row", [-0.5, 1.5])),
                                     "alpha: expected non-negative entries"),
}


class TestVerifyWitness:
    def test_disconnected_certificate_passes(self):
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        report = verify_witness(g, verdict)
        assert report.ok
        assert report.certified_gap == pytest.approx(10.0)

    def test_big_match_certificate_passes(self):
        g = big_match()
        verdict = _solved_witness(g, 0.01)
        report = verify_witness(g, verdict)
        assert report.ok
        assert report.certified_gap == pytest.approx(1.0)
        assert verdict.high_states == {1}
        assert verdict.low_states == {2}

    def test_structural_fault_is_named(self):
        g = leaky_row_game()
        cert = build_witness(g, local_solve(g, np.zeros(2)), {0}, {1},
                             ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        tampered = cert._replace(alpha=builders.strategy(g, {0: [0.999, 1e-3]}, "row"))
        report = verify_witness(g, tampered)
        assert not report.ok
        assert any("leaks" in f and "action 1" in f for f in report.failures)

    def test_local_fault_detected(self):
        # a floor above what alpha guarantees fails the one-shot check, and
        # the column player's best response indeed holds the high state under it
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        tampered = verdict._replace(floor=11.0)
        report = verify_witness(g, tampered)
        assert not report.ok
        assert any("below floor" in f for f in report.failures)
        assert reference.global_bounds(g, tampered)[0] < tampered.floor

    def test_witness_needs_proven_separation(self):
        # equal values 0 on both sides: claimed bounds b = 1e-7 > a = 0 each
        # hold within the slack, yet the proven floor equals the proven ceiling
        g = disconnected(0.0, 0.0)
        cert = builders.verdict(g, {1: [1.0]}, {0: [1.0]}, eps=1e-5, potential=np.zeros(2),
                                floor=1e-7, ceiling=0.0)
        report = verify_witness(g, cert)
        assert report.certified_gap == 0.0
        assert len(report.failures) == 1
        assert "does not exceed proven ceiling" in report.failures[0]

    def test_certificate_must_cover_its_states(self):
        # with no state covered, every one-shot bound holds vacuously and the
        # proven floor and ceiling are +inf and -inf, so only coverage fails
        g = cycle(n=3, seed=0)
        empty = builders.verdict(g, {}, {}, kind=ERGODIC, eps=0.05, potential=np.zeros(3),
                                 floor=0.0, ceiling=0.0)
        report = verify_witness(g, empty)
        assert report.failures == ("ergodic alpha misses states ['c0', 'c1', 'c2']",
                                   "ergodic beta misses states ['c0', 'c1', 'c2']")
        g = disconnected(0.0, 10.0)
        report = verify_witness(g, builders.verdict(g, {}, {}, eps=0.05, potential=np.zeros(2),
                                                    floor=5.0, ceiling=1.0))
        assert report.failures == ("witness alpha and beta sets must not be empty",)

    def test_negative_reward_game_checked_as_given(self):
        # verify_witness shifts the rewards itself, as the solve did
        g = disconnected(-5.0, 5.0)
        verdict = _solved_witness(g, 0.1)
        assert verdict.value_offset == 5.0
        assert verify_witness(g, verdict).ok

    def test_nudged_offset_is_the_first_failure(self):
        g = disconnected(-5.0, 5.0)
        nudged = _solved_witness(g, 0.1)._replace(value_offset=5.0 + 1e-12)
        assert verify_witness(g, nudged).failures == (
            f"normalization offset mismatch: game gives 5.0, certificate says {5.0 + 1e-12}",)

    def test_ergodic_certificate_missing_a_state_fails(self):
        g = cycle(n=3, seed=0)
        verdict, _ = decide_ergodicity(g, 0.05)
        assert verdict.kind == ERGODIC and verify_witness(g, verdict).ok
        for side, player in (("alpha", "row"), ("beta", "col")):
            table = reference.per_state(g, getattr(verdict, side), player)
            del table[1]
            report = verify_witness(g, verdict._replace(
                **{side: builders.strategy(g, table, player)}))
            assert f"ergodic {side} misses states ['c1']" in report.failures

    @pytest.mark.parametrize("side, mix, got", [
        ("alpha", np.array([np.nan]), "(1,)"),
        ("alpha", np.array([np.nan, 1.0, 0.0]), "(3,)"),
        ("beta", np.array([1.0]), "(1,)"),
        ("beta", np.array([1.0, np.nan, 0.0]), "(3,)"),
        ("alpha", {1: np.ones(3)}, "dict"),  # a per-state table, too long at its state
        ("alpha", {7: np.ones(1)}, "dict"),  # a per-state table naming no state
    ], ids=["alpha-short", "alpha-long", "beta-short", "beta-long", "alpha-table",
            "alpha-unknown-state"])
    def test_wrong_shape_is_a_named_failure(self, side, mix, got):
        # each player's array holds one entry per global action: 2 here
        g = disconnected(0.0, 10.0)
        report = verify_witness(g, _solved_witness(g, 0.1)._replace(**{side: mix}))
        player = "row" if side == "alpha" else "column"
        assert report.failures == (
            f"{side}: expected an array of 2 entries, one per {player} action, got {got}",)
        assert report.certified_gap == -np.inf

    @pytest.mark.parametrize("field, value, failure", [
        ("potential", np.zeros(3),
         "potential: expected 4 finite numbers (potential must have shape (4,), got (3,))"),
        ("potential", None,
         "potential: expected 4 finite numbers (potential must have shape (4,), got ())"),
        ("potential", np.array([0.0, np.nan, 0.0, 0.0]),
         "potential: expected 4 finite numbers (potential entries must be finite)"),
        ("potential", np.array([0.0, 0.0, np.inf, 0.0]),
         "potential: expected 4 finite numbers (potential entries must be finite)"),
        ("potential", ["a"] * 4,
         "potential: expected 4 finite numbers (could not convert string to float: 'a')"),
        ("floor", None, "floor: expected a finite number, got None"),
        ("ceiling", None, "ceiling: expected a finite number, got None"),
        ("ceiling", np.nan, "ceiling: expected a finite number, got nan"),
        ("floor", np.inf, "floor: expected a finite number, got inf"),
        ("eps", np.nan, "eps: expected a positive finite number, got nan"),
        ("eps", 0.0, "eps: expected a positive finite number, got 0.0"),
        ("eps", True, "eps: expected a positive finite number, got True"),
        ("kind", "bogus",
         "kind: expected 'ergodic-24eps', 'non-ergodic' or 'inconclusive', got 'bogus'"),
    ], ids=["potential-short", "potential-none", "potential-nan", "potential-inf",
            "potential-text", "floor-none", "ceiling-none", "ceiling-nan", "floor-inf",
            "eps-nan", "eps-zero", "eps-bool", "kind-unknown"])
    def test_malformed_field_is_a_named_failure(self, field, value, failure):
        # reported, not raised, and with eps NaN no one-shot comparison can
        # pass silently under a NaN slack
        g = random_game(4, 2, seed=3)
        verdict, _ = decide_ergodicity(g, 0.05)
        assert verify_witness(g, verdict).ok
        report = verify_witness(g, verdict._replace(**{field: value}))
        assert report.failures == (failure,)
        assert report.certified_gap == -np.inf

    def test_every_malformed_field_is_reported(self):
        g = random_game(4, 2, seed=3)
        verdict, _ = decide_ergodicity(g, 0.05)
        report = verify_witness(g, verdict._replace(alpha=np.ones(1), potential=np.zeros(3),
                                                    floor=None, eps=np.nan))
        assert [f.split(":")[0].split(" ")[0] for f in report.failures] == [
            "alpha", "potential", "floor", "eps"]

    @pytest.mark.parametrize("case", sorted(_BUILT_IN_CODE))
    def test_values_built_in_code_are_judged(self, case):
        # verdicts that never pass through a document, each accepted while
        # only the parser judged strategy entries and bound values
        game, eps, edit, failure = _BUILT_IN_CODE[case]
        verdict, _ = decide_ergodicity(game, eps)
        assert verify_witness(game, verdict).ok
        report = verify_witness(game, verdict._replace(**edit(game, verdict)))
        assert any(p.startswith(failure) for p in report.failures), report.failures

    def test_inconclusive_verdict_certifies_nothing(self):
        verdict = Verdict(kind=INCONCLUSIVE, eps=0.1, value_offset=0.0, reason="cap")
        assert verify_witness(disconnected(0.0, 10.0), verdict).failures == (
            "an inconclusive verdict certifies nothing",)
        assert verdict.high_states is verdict.low_states is None

    def test_witness_sets_must_be_disjoint(self):
        g = disconnected(0.0, 10.0)
        cert = _solved_witness(g, 0.1)
        alpha = reference.per_state(g, cert.alpha, "row")
        shared = cert._replace(alpha=builders.strategy(g, {**alpha, 0: [1.0]}, "row"))
        assert "witness alpha and beta sets share states ['low']" in (
            verify_witness(g, shared).failures)

    def test_global_check_consistent_with_local(self):
        # on certificates built by the driver, the global best-response
        # bounds never contradict the one-shot check
        for game, eps in ((disconnected(0.0, 10.0), 0.1), (big_match(), 0.01),
                          (disconnected(0.0, 10.0), 1.0)):
            cert = decide_ergodicity(game, eps)[0]
            assert verify_witness(game, cert).ok
            floor, ceiling = reference.global_bounds(game, cert)
            assert floor >= cert.floor - 1e-9 and ceiling <= cert.ceiling + 1e-9


def _distributions(draw, sizes):
    weights = [np.array(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)),
                        dtype=np.float64) + 1e-3 for size in sizes]
    return {v: w / w.sum() for v, w in enumerate(weights)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_shot_bounds_match_dense_tables_and_hold_globally(data):
    # any strategy pair under any potential, claiming exactly its one-shot
    # bounds: the check accepts, its gap matches the dense-table bounds, and
    # best responses over mean payoffs cannot beat those bounds
    g = random_game(data.draw(st.integers(2, 4)), max_actions=3,
                    seed=data.draw(st.integers(0, 10_000)))
    alpha = _distributions(data.draw, [g.num_row_actions(v) for v in range(g.n)])
    beta = _distributions(data.draw, [g.num_col_actions(v) for v in range(g.n)])
    x = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=g.n, max_size=g.n)))
    floor, ceiling = reference.one_shot_bounds(g, alpha, beta, x)
    cert = builders.verdict(g, alpha, beta, kind=ERGODIC, potential=x, floor=floor,
                            ceiling=ceiling, eps=max(ceiling - floor, 0.0) / 24 + 1.0)
    report = verify_witness(g, cert)
    assert report.ok, report.failures
    assert report.certified_gap == pytest.approx(floor - ceiling, abs=1e-9)
    global_floor, global_ceiling = reference.global_bounds(g, cert)
    assert global_floor >= floor - 1e-9 and global_ceiling <= ceiling + 1e-9
    # claiming one slack more than the strategies give is refused
    assert not verify_witness(g, cert._replace(floor=floor + 2e-6)).ok
    assert not verify_witness(g, cert._replace(ceiling=ceiling - 2e-6)).ok


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([
    # corpus witnesses whose sets hold states with several actions
    (random_game(2, max_actions=3, granularity=1, reward_bound=8.0, seed=32), 0.05),
    (random_game(3, max_actions=2, granularity=2, reward_bound=8.0, seed=169), 0.05),
    (big_match(), 0.5),  # ergodic
    (random_game(3, max_actions=3, seed=0), 0.05),  # ergodic
]), st.floats(0.0, 1.0), st.data())
def test_perturbed_certificates_accepted_only_within_global_bounds(case, weight, data):
    # mixing a solved certificate's strategies with arbitrary ones on the
    # actions that keep the play in their set: whatever the one-shot check
    # still accepts keeps its bounds under best responses. The mix's
    # certificate, parsed, checks as the verdict laid out per state from the
    # document's tables does: the same failures, and the same gap bit for bit
    g, eps = case
    cert, stats = decide_ergodicity(g, eps)

    def perturb(strategy, player, size):
        tables = reference.per_state(g, strategy, player)
        noise = _distributions(data.draw, [size(v) for v in range(g.n)])
        keeps, first = bar_actions(g, tables, player), strategy.first
        out = {}
        for v, vec in tables.items():
            mix = noise[v] * keeps[first[v]:first[v + 1]]
            out[v] = (1 - weight) * vec + weight * mix / mix.sum()
        return builders.strategy(g, out, player)

    perturbed = cert._replace(alpha=perturb(cert.alpha, "row", g.num_row_actions),
                              beta=perturb(cert.beta, "col", g.num_col_actions))
    if verify_witness(g, perturbed).ok:
        floor, ceiling = reference.global_bounds(g, perturbed)
        assert floor >= cert.floor - 1e-6 and ceiling <= cert.ceiling + 1e-6
    text = serialize_certificate(g, perturbed, stats)
    parsed = parse_certificate(text, g)
    alpha, beta = reference.document_strategies(g, text)
    built = parsed._replace(alpha=Strategy(alpha, g.flat.first_row),
                            beta=Strategy(beta, g.flat.first_col))
    got, expected = verify_witness(g, parsed), verify_witness(g, built)
    assert got.failures == expected.failures
    assert np.float64(got.certified_gap).tobytes() == np.float64(expected.certified_gap).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.builds(lambda n, seed: (random_game(n, max_actions=3, seed=seed), 0.05),
              st.integers(2, 5), st.integers(0, 10_000)),
    st.sampled_from([  # witnesses whose sets hold states with several actions
        (random_game(2, max_actions=3, granularity=1, reward_bound=8.0, seed=32), 0.05),
        (random_game(3, max_actions=2, granularity=2, reward_bound=8.0, seed=169), 0.05),
        (big_match(), 0.01)])), st.floats(0.0, 2.0), st.data())
def test_power_of_two_slices_check_the_same(case, shift, data):
    # a covered slice reads as the distribution it is proportional to, so
    # scaling each by a power of two from 2**-4 to 2**4 leaves the failures
    # and the proven gap bit for bit as they were, on the verdict as solved
    # and with its floor raised: scaling by a power of two is exact, and so
    # is the division of a state's least payoff by its mass
    g, eps = case
    verdict, _ = decide_ergodicity(g, eps)
    scaled = {}
    for side, first in (("alpha", g.flat.first_row), ("beta", g.flat.first_col)):
        powers = data.draw(st.lists(st.integers(-4, 4), min_size=g.n, max_size=g.n))
        scale = np.repeat(2.0 ** np.array(powers), np.diff(first))
        scaled[side] = Strategy(np.asarray(getattr(verdict, side)) * scale, first)
    for claimed in (verdict, verdict._replace(floor=verdict.floor + shift)):
        got, expected = verify_witness(g, claimed._replace(**scaled)), verify_witness(g, claimed)
        assert got.failures == expected.failures
        assert np.float64(got.certified_gap).tobytes() == np.float64(
            expected.certified_gap).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 10), st.integers(1, 2), st.integers(0, 10_000),
       st.sampled_from(["row", "col"]), st.data())
def test_truncation_matches_the_per_state_oracle_bit_for_bit(n, max_actions, granularity,
                                                             seed, player, data):
    # on random games and random sets, the one-pass leak rule keeps at each
    # state of the set what that state's records keep, and truncation's
    # masses, summed in ascending action order, and divisions keep the
    # per-state loop's bits, at states of up to 10 actions too; a state
    # with no kept mass raises at the same first state
    g = random_game(n, max_actions=max_actions, granularity=granularity, seed=seed)
    states = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    first = g.flat.first_row if player == "row" else g.flat.first_col
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mix = rng.random(int(first[-1])) * (rng.random(int(first[-1])) < 0.8)
    if data.draw(st.booleans()):  # NaN outside the set, as a solve of the set lays it out
        mix[~np.repeat(np.isin(np.arange(n), list(states)), np.diff(first))] = np.nan
    for v in states:
        assert _kept_at(g, v, states, player) == reference.bar_actions_per_state(
            g, v, states, player)
    strategy = Strategy(mix, first)
    try:
        expected = reference.truncate(g, strategy, states, player)
    except ValueError as exc:
        with pytest.raises(WitnessBuildError, match=f"at state {exc.args[0]}:"):
            _truncate(g, strategy, states, player)
        return
    assert _truncate(g, strategy, states, player).tobytes() == expected.tobytes()


def test_truncation_adds_kept_masses_in_ascending_order():
    # at a state of 10 row actions keeping 1, 2, 8 and 9, the mass is
    # ((2**-53 + 2**-53) + 1) + 0 = 1 + 2**-52; set iteration order would
    # visit 8 first, and 1 + 2**-53 rounds back to 1
    kept = {1, 2, 8, 9}
    g = make_game(["a", "b"], [[f"k{k}" for k in range(10)], ["k"]], [["l"], ["l"]],
                  [("a", f"k{k}", "l", "a" if k in kept else "b", 1, 1.0) for k in range(10)]
                  + [("b", "k", "l", "b", 1, 0.0)])
    mix = np.full(11, 0.5)
    mix[[1, 2, 8, 9]] = 2.0**-53, 2.0**-53, 1.0, 0.0
    strategy = Strategy(mix, g.flat.first_row)
    out = _truncate(g, strategy, frozenset({0}), "row")
    assert out.tobytes() == reference.truncate(g, strategy, {0}, "row").tobytes()
    assert out[8] == 1.0 / (1.0 + 2.0**-52) < 1.0


def leaky_wide_game():
    """A witness game whose high state's row player has 5 actions, a1 to a4
    leaking to the low state under some columns, and whose low state's
    column player has 4, y1 to y3 leaking to the high state."""
    rows, cols = [f"a{i}" for i in range(5)], [f"x{j}" for j in range(4)]
    records = [("hi", "a0", c, "hi", 1, 10.0) for c in cols]
    for i in range(1, 5):
        for j, c in enumerate(cols):
            records += ([("hi", rows[i], c, "hi", "1/2", 1.0), ("hi", rows[i], c, "lo", "1/2", 1.0)]
                        if j < i else [("hi", rows[i], c, "hi", 1, 2.0)])
    records.append(("lo", "r", "y0", "lo", 1, 0.0))
    for j in range(1, 4):
        records += [("lo", "r", f"y{j}", "hi", f"{j}/4", 9.0),
                    ("lo", "r", f"y{j}", "lo", f"{4 - j}/4", 9.0)]
    return make_game(["hi", "lo"], [rows, ["r"]], [cols, [f"y{j}" for j in range(4)]], records)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([
    (leaky_wide_game(), 0.05),
    (random_game(2, max_actions=3, granularity=1, reward_bound=8.0, seed=32), 0.05),
    (random_game(3, max_actions=2, granularity=2, reward_bound=8.0, seed=169), 0.05),
    (big_match(), 0.01)]), st.data())
def test_closure_failures_match_the_per_record_reference(case, data):
    # positive mass on leaking actions of a solved witness: the closure
    # failures are those worded one record at a time from the game's
    # transitions, the same messages in the same order
    g, eps = case
    verdict = _solved_witness(g, eps)
    assert verify_witness(g, verdict).ok
    leaked = {}
    for side, player in (("alpha", "row"), ("beta", "col")):
        tables = reference.per_state(g, getattr(verdict, side), player)
        for v, vec in tables.items():
            leaking = set(range(len(vec))) - reference.bar_actions_per_state(g, v, tables, player)
            for action in sorted(leaking):
                vec[action] += data.draw(st.sampled_from([0.0, 1e-300, 0.25, 1.0]))
        leaked[side] = builders.strategy(g, tables, player)
    perturbed = verdict._replace(**leaked)
    closure = [f for f in verify_witness(g, perturbed).failures if f.startswith("closure:")]
    assert closure == reference.closure_failures(g, perturbed)


def test_closure_failures_name_each_leaving_record():
    # every leaking action of the wide witness holds mass: the row player's
    # a1 to a4 leak under 1 to 4 columns, the column player's y1 to y3 once
    g = leaky_wide_game()
    verdict = _solved_witness(g, 0.05)
    alpha, beta = np.asarray(verdict.alpha) + 0.0, np.asarray(verdict.beta) + 0.0
    alpha[1:5], beta[5:8] = 0.25, 0.5
    failures = verify_witness(g, verdict._replace(alpha=_flat(g, "row", alpha),
                                                  beta=_flat(g, "col", beta))).failures
    closure = [f for f in failures if f.startswith("closure:")]
    assert len(closure) == 1 + 2 + 3 + 4 + 3
    assert closure[0] == "closure: row action 1 at state 'hi' leaks to 'lo' with probability 0.5"
    assert closure[-1] == "closure: col action 3 at state 'lo' leaks to 'hi' with probability 0.75"


class TestCertificateChains:
    def test_truncation_mass_bound(self):
        # mass dropped by truncation stays under eps / R^v
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        x = verdict.potential
        graph = auxiliary_graph(g, x, verdict.high_states, float(np.nanmax(local_values(g, x))),
                                verdict.eps)
        keeps = bar_actions(g, verdict.high_states, "row")
        for v in verdict.high_states:
            sol = local_value(g, v, x)
            kept = keeps[g.flat.first_row[v]:g.flat.first_row[v + 1]]
            dropped = sum(sol.row_strategy[~kept])
            assert dropped < verdict.eps / graph.bounds[v] + 1e-12

    def test_one_shot_chain_on_built_certificates(self):
        # floor_raw <= local value <= truncated payoff + eps, per pure column
        from ergopump.game import local_reward_matrix

        g = big_match()
        verdict, stats = decide_ergodicity(g, 0.01)
        assert verdict.kind == NON_ERGODIC
        m_minus, m_plus = stats.phases[-1]["band"]
        m = local_values(g, verdict.potential)
        for v in verdict.high_states:
            assert (5.0 * m_plus + 3.0 * m_minus) / 8.0 <= m[v] + 1e-9
            alpha = reference.per_state(g, verdict.alpha, "row")[v]
            payoffs = alpha @ local_reward_matrix(g, v, verdict.potential)
            assert np.all(m[v] <= payoffs + verdict.eps + 1e-9)

    def test_gap_conditions_recheck(self):
        # the pump's boundary-gap check passes on the sets the pump returns
        # and flags them once every potential gap is halved
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 10.0, eps=0.1, cap=10_000)
        assert out.kind == "witness-sets"
        pumped = out.bands.pumped

        def violations(x):
            return boundary_gap_violations(auxiliary_graph(g, x, pumped, 10.0, 0.1), *out.closed)

        assert violations(out.solve.x) == ()
        assert violations(out.solve.x * 0.5)
