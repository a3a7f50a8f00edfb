"""Witness construction and the one certificate check of both verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from builders import big_match, disconnected, matrix_as_game
from ergopump.driver import decide_ergodicity
from ergopump.game import make_game
from ergopump.generators import cycle, random_game
from ergopump.matrix_game import local_solve, local_value, local_values
from ergopump.pump import auxiliary_graph, boundary_gap_violations, modified_pump
from ergopump.witness import (
    ERGODIC,
    INCONCLUSIVE,
    NON_ERGODIC,
    Verdict,
    WitnessBuildError,
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
        cert = build_witness(g, local_solve(g, np.zeros(2)), {0}, {1},
                             ceiling_raw=0.2, floor_raw=0.9, eps=0.1)
        assert np.allclose(cert.alpha[0], [1.0, 0.0])

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
            build_witness(g, local_solve(g, np.zeros(2)), {0}, {1}, 0.2, 0.9, eps=0.1)

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
        assert np.allclose(cert.beta[1], direct, atol=1e-9)


def _solved_witness(game, eps):
    verdict, _ = decide_ergodicity(game, eps)
    assert verdict.kind == "non-ergodic"
    return verdict


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
        tampered = cert._replace(alpha={0: np.array([0.999, 1e-3])})
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
        cert = Verdict(kind=NON_ERGODIC, eps=1e-5, value_offset=0.0, potential=np.zeros(2),
                       floor=1e-7, ceiling=0.0, alpha={1: np.array([1.0])},
                       beta={0: np.array([1.0])})
        report = verify_witness(g, cert)
        assert report.certified_gap == 0.0
        assert len(report.failures) == 1
        assert "does not exceed proven ceiling" in report.failures[0]

    def test_certificate_must_cover_its_states(self):
        # with no state covered, every one-shot bound holds vacuously and the
        # proven floor and ceiling are +inf and -inf, so only coverage fails
        empty = Verdict(kind=ERGODIC, eps=0.05, value_offset=0.0, potential=np.zeros(3),
                        floor=0.0, ceiling=0.0, alpha={}, beta={})
        report = verify_witness(cycle(n=3, seed=0), empty)
        assert report.failures == ("ergodic alpha misses states ['c0', 'c1', 'c2']",
                                   "ergodic beta misses states ['c0', 'c1', 'c2']")
        report = verify_witness(disconnected(0.0, 10.0), empty._replace(
            kind=NON_ERGODIC, potential=np.zeros(2), floor=5.0, ceiling=1.0))
        assert report.failures == ("witness alpha and beta sets must not be empty",)

    def test_ergodic_certificate_missing_a_state_fails(self):
        g = cycle(n=3, seed=0)
        verdict, _ = decide_ergodicity(g, 0.05)
        assert verdict.kind == ERGODIC and verify_witness(g, verdict).ok
        for side in ("alpha", "beta"):
            table = dict(getattr(verdict, side))
            del table[1]
            report = verify_witness(g, verdict._replace(**{side: table}))
            assert f"ergodic {side} misses states ['c1']" in report.failures

    def test_inconclusive_verdict_certifies_nothing(self):
        verdict = Verdict(kind=INCONCLUSIVE, eps=0.1, value_offset=0.0, reason="cap")
        assert verify_witness(disconnected(0.0, 10.0), verdict).failures == (
            "an inconclusive verdict certifies nothing",)
        assert verdict.high_states is verdict.low_states is None

    def test_witness_sets_must_be_disjoint(self):
        g = disconnected(0.0, 10.0)
        cert = _solved_witness(g, 0.1)
        shared = cert._replace(alpha={**cert.alpha, 0: np.array([1.0])})
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
    cert = Verdict(kind=ERGODIC, eps=max(ceiling - floor, 0.0) / 24 + 1.0, value_offset=0.0,
                   potential=x, floor=floor, ceiling=ceiling, alpha=alpha, beta=beta)
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
    # still accepts keeps its bounds under best responses
    g, eps = case
    cert = decide_ergodicity(g, eps)[0]

    def perturb(strategies, player, size):
        noise = _distributions(data.draw, [size(v) for v in range(g.n)])
        out = {}
        for v, vec in strategies.items():
            keep = np.zeros(size(v))
            keep[sorted(bar_actions(g, v, strategies, player))] = 1.0
            mix = noise[v] * keep
            out[v] = (1 - weight) * vec + weight * mix / mix.sum()
        return out

    perturbed = cert._replace(alpha=perturb(cert.alpha, "row", g.num_row_actions),
                              beta=perturb(cert.beta, "col", g.num_col_actions))
    if verify_witness(g, perturbed).ok:
        floor, ceiling = reference.global_bounds(g, perturbed)
        assert floor >= cert.floor - 1e-6 and ceiling <= cert.ceiling + 1e-6


class TestCertificateChains:
    def test_truncation_mass_bound(self):
        # mass dropped by truncation stays under eps / R^v
        g = disconnected(0.0, 10.0)
        verdict = _solved_witness(g, 0.1)
        x = verdict.potential
        graph = auxiliary_graph(g, x, verdict.high_states, float(np.nanmax(local_values(g, x))),
                                verdict.eps)
        for v in verdict.high_states:
            sol = local_value(g, v, x)
            keep = bar_actions(g, v, verdict.high_states, "row")
            dropped = sum(sol.row_strategy[k]
                          for k in range(g.num_row_actions(v)) if k not in keep)
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
            payoffs = verdict.alpha[v] @ local_reward_matrix(g, v, verdict.potential)
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
