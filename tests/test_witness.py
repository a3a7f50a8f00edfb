"""Witness construction and the three-stage verification."""

import dataclasses

import numpy as np
import pytest

from builders import big_match, disconnected, matrix_as_game
from ergopump.driver import decide_ergodicity
from ergopump.game import game_params, make_game
from ergopump.matrix_game import local_value, local_values
from ergopump.pump import boundary_gap_violations, modified_pump, r_bounds
from ergopump.witness import WitnessBuildError, bar_actions, build_witness, verify_witness


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


class TestBarActions:
    def test_all_self_loops_full_set(self):
        g = disconnected()
        assert bar_actions(g, 1, {1}, "row") == {0}
        assert bar_actions(g, 1, {1}, "col") == {0}

    def test_leaking_action_excluded(self):
        g = leaky_row_game()
        assert bar_actions(g, 0, {0}, "row") == {0}

    def test_whole_state_space_keeps_everything(self):
        g = big_match()
        for v in range(g.n):
            assert bar_actions(g, v, set(range(g.n)), "row") == set(
                range(g.num_row_actions(v)))

    def test_partial_leak_probability(self):
        g = make_game(
            ["a", "b"], [["k"], ["k"]], [["l"], ["l"]],
            [("a", "k", "l", "a", "2/3", 1.0), ("a", "k", "l", "b", "1/3", 1.0),
             ("b", "k", "l", "b", 1, 0.0)],
        )
        assert bar_actions(g, 0, {0}, "row") == set()


class TestBuildWitness:
    def test_truncation_drops_leaking_mass(self):
        g = leaky_row_game()
        # local game at v is [[1,0],[0,7/3]] whose optimal row mix is (0.7, 0.3)
        sol = local_value(g, 0, np.zeros(2))
        assert np.allclose(sol.row_strategy, [0.7, 0.3], atol=1e-9)
        cert = build_witness(g, np.zeros(2), {0}, {1},
                             ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        assert np.allclose(cert.high_strategies[0], [1.0, 0.0])

    def test_closed_set_keeps_optimal_strategy(self):
        # the whole state space is closed, so truncation is the identity
        g = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
        sol = local_value(g, 0, np.zeros(1))
        keep = bar_actions(g, 0, {0}, "row")
        assert keep == {0, 1}
        from ergopump.witness import _truncate
        assert np.allclose(_truncate(sol.row_strategy, keep, 0), sol.row_strategy)

    def test_empty_bar_set_raises(self):
        g = make_game(
            ["a", "b"], [["k"], ["k"]], [["l"], ["l"]],
            [("a", "k", "l", "b", 1, 5.0), ("b", "k", "l", "b", 1, 0.0)],
        )
        with pytest.raises(WitnessBuildError, match="preconditions violated"):
            build_witness(g, np.zeros(2), {0}, {1}, 0.2, 0.9, eps=0.1)

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
        cert = build_witness(g, x, {0}, {1}, ceiling_raw=5.0, floor_raw=6.25,
                             eps=0.1, reflect_value=10.0)
        direct = local_value(g, 1, x).col_strategy
        assert np.allclose(cert.low_strategies[1], direct, atol=1e-9)


def _solved_witness(game, eps):
    verdict, _ = decide_ergodicity(game, eps)
    assert verdict.kind == "non-ergodic"
    return verdict


class TestVerifyWitness:
    def test_disconnected_certificate_passes(self):
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        report = verify_witness(g, verdict.witness)
        assert report.ok
        assert report.certified_gap == pytest.approx(10.0)

    def test_big_match_certificate_passes(self):
        g = big_match()
        verdict = _solved_witness(g, 0.01)
        report = verify_witness(g, verdict.witness)
        assert report.ok
        assert report.certified_gap == pytest.approx(1.0)
        assert verdict.high_states == {1}
        assert verdict.low_states == {2}

    def test_structural_fault_is_named(self):
        g = leaky_row_game()
        cert = build_witness(g, np.zeros(2), {0}, {1},
                             ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        tampered = dataclasses.replace(
            cert, high_strategies={0: np.array([0.999, 1e-3])})
        report = verify_witness(g, tampered)
        assert not report.structural_ok
        assert any("leaks" in f and "action 1" in f for f in report.failures)

    def test_local_fault_detected(self):
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        tampered = dataclasses.replace(verdict.witness, floor=11.0)
        report = verify_witness(g, tampered)
        assert not report.local_ok
        assert not report.global_ok

    def test_global_check_consistent_with_local(self):
        # consistency property: on certificates built by the driver, the
        # global check never contradicts (a)+(b)
        for game, eps in ((disconnected(0.0, 10.0), 0.1), (big_match(), 0.01)):
            verdict = _solved_witness(game, eps)
            report = verify_witness(game, verdict.witness)
            assert report.structural_ok and report.local_ok
            assert report.global_ok


class TestCertificateChains:
    def test_truncation_mass_bound(self):
        # mass dropped by truncation stays under eps / R^v
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        x = verdict.witness.potential
        rb = r_bounds(g, x, verdict.high_states, float(np.nanmax(local_values(g, x))))
        for v in verdict.high_states:
            sol = local_value(g, v, x)
            keep = bar_actions(g, v, verdict.high_states, "row")
            dropped = sum(sol.row_strategy[k]
                          for k in range(g.num_row_actions(v)) if k not in keep)
            assert dropped < verdict.eps / rb.values[v] + 1e-12

    def test_one_shot_chain_on_built_certificates(self):
        # floor_raw <= local value <= truncated payoff + eps, per pure column
        from ergopump.game import local_reward_matrix

        g = big_match()
        verdict = _solved_witness(g, 0.01)
        w = verdict.witness
        m = local_values(g, w.potential)
        for v in w.high_states:
            assert w.floor_raw <= m[v] + 1e-9
            payoffs = w.high_strategies[v] @ local_reward_matrix(g, v, w.potential).entries
            assert np.all(m[v] <= payoffs + verdict.eps + 1e-9)

    def test_gap_conditions_recheck(self):
        # the pump's boundary-gap check passes on the sets the pump returns
        # and flags them once every potential gap is halved
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, np.zeros(2), range(2), 0.0, 10.0, eps=0.1, cap=10_000)
        assert out.kind == "witness-sets"
        pumped = out.bands.pumped

        def violations(x):
            rb = r_bounds(g, x, pumped, 10.0)
            return boundary_gap_violations(g, x, out.closed_high, out.closed_low, pumped,
                                           rb, 0.1, game_params(g).granularity)

        assert violations(out.x) == ()
        assert violations(out.x * 0.5)
