"""Outer loop: caps, potential reduction, verdicts, shrink rate."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from builders import (
    big_match,
    count_local_games,
    disconnected,
    leaky_pair,
    one_state,
    random_dense_game,
    two_cycle,
)
from ergopump import driver, matrix_game, witness
from ergopump.documents import (
    parse_certificate,
    parse_game,
    recheck_certificate,
    serialize_certificate,
    serialize_game,
)
from ergopump.driver import (
    HARD_CAP,
    DriverConfig,
    decide_ergodicity,
    default_outer_cap,
    reduce_potential,
)
from ergopump.game import DocumentError, make_game, normalize_rewards
from ergopump.generators import random_game
from ergopump.oracle import enumerate_pure_bounds
from ergopump.matrix_game import local_solve, local_values
from ergopump.pump import modified_pump


class TestIterationCap:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 6), max_actions=st.integers(1, 4),
           granularity=st.integers(1, 4), reward_bound=st.floats(1e-6, 1e6),
           band_frac=st.floats(0.0, 1.0, exclude_min=True),
           eps_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           phase2=st.booleans())
    # the corner where the bound is least: about 4 * 48**3 * 16 = 7.1e6 steps
    @example(n=2, max_actions=1, granularity=1, reward_bound=1.0, band_frac=1.0,
             eps_frac=1.0 - 1e-12, phase2=False)
    def test_paper_bound_is_never_below_hard_cap(self, n, max_actions, granularity,
                                                 reward_bound, band_frac, eps_frac, phase2):
        # a pump phase runs only when 24*eps < band <= R, with delta band/4
        # (full-state phase) or band/8 (high-set phase): there the paper's
        # bound allows at least HARD_CAP steps, so the constant cap is exact
        band = reward_bound * band_frac
        eps = band * eps_frac / 24.0
        assume(eps > 0 and 24 * eps < band <= reward_bound)
        delta = band / (8.0 if phase2 else 4.0)
        assert reference.paper_step_bound(n, max_actions, granularity, reward_bound,
                                          eps, delta) >= HARD_CAP

    def test_default_cap_is_hard_cap(self):
        assert DriverConfig().pump_cap == HARD_CAP

    def test_outer_cap(self):
        assert default_outer_cap(1.0, 1.0) == 1
        expected = math.ceil(math.log(8.0 / (24 * 0.05)) / math.log(8.0 / 7.0)) + 1
        assert default_outer_cap(8.0, 0.05) == expected


class TestReducePotential:
    def test_constant_potential_becomes_zero(self):
        g = two_cycle(0.0, 4.0)
        x = np.full(2, 17.5)
        reduced, info = reduce_potential(g, x)
        assert np.allclose(reduced, 0.0, atol=1e-12)

    def test_small_potential_mean_centered_identical_values(self):
        g = two_cycle(0.0, 4.0)
        x = np.array([0.5, 0.0])
        m = local_values(g, x)
        reduced, info = reduce_potential(g, x)
        assert info["method"] == "mean-centered"
        assert np.allclose(local_values(g, reduced), m, atol=1e-9)

    def test_mean_zero_and_local_values_bitwise_unchanged(self):
        # dyadic potentials and unit probabilities make every shift exact,
        # so the shifted local games are the same matrices bit for bit
        cases = [
            (disconnected(0.0, 10.0), np.array([0.0, -1000.0])),
            (big_match(), np.array([-3.25, 0.5, 11.75])),
        ]
        for g, x in cases:
            reduced, info = reduce_potential(g, x)
            assert np.mean(reduced) == 0.0
            assert info == {"method": "mean-centered",
                            "norm": float(np.max(np.abs(reduced)))}
            assert local_values(g, reduced).tobytes() == local_values(g, x).tobytes()

    def test_band_respected_after_reduction(self):
        g = two_cycle(0.0, 4.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 4.0, eps=0.05, cap=100)
        finite = out.solve.values[np.isfinite(out.solve.values)]
        lo, hi = float(np.min(finite)), float(np.max(finite))
        x = out.solve.x
        reduced, _ = reduce_potential(g, x)
        m = local_values(g, reduced)
        assert np.min(m) >= lo - 1e-7
        assert np.max(m) <= hi + 1e-7
        assert np.max(np.abs(reduced)) <= np.max(np.abs(x - np.mean(x))) + 1e-12


class TestDecideErgodicity:
    def test_single_state_trivially_ergodic(self):
        verdict, stats = decide_ergodicity(one_state(), eps=0.05)
        assert verdict.kind == "ergodic-24eps"
        assert verdict.ceiling - verdict.floor == 0.0
        assert np.allclose(verdict.potential, 0.0)

    def test_disconnected_witness_thresholds(self):
        verdict, stats = decide_ergodicity(disconnected(0.0, 10.0), eps=0.1)
        assert verdict.kind == "non-ergodic"
        assert verdict.high_states == {1}
        assert verdict.low_states == {0}
        # entry band is [0, 10]: thresholds at midpoint and five-eighths
        m_minus, m_plus = stats.phases[-1]["band"]
        ceiling_raw = (m_minus + m_plus) / 2.0
        floor_raw = (5.0 * m_plus + 3.0 * m_minus) / 8.0
        assert ceiling_raw == pytest.approx(5.0)
        assert floor_raw == pytest.approx(6.25)
        assert verdict.floor - verdict.ceiling >= verdict.eps - 1e-12
        # N4 on the high side at the returned potential
        g, _ = normalize_rewards(disconnected(0.0, 10.0))
        m = local_values(g, verdict.potential)
        for v in verdict.high_states:
            assert m[v] >= floor_raw - 1e-9

    def test_uniform_ergodic_two_state(self):
        g = make_game(
            ["s", "t"],
            [["a", "b"], ["a", "b"]],
            [["x", "y"], ["x", "y"]],
            [(v, k, l, u, "1/2", r)
             for v, base in (("s", 1.0), ("t", 3.0))
             for k in ("a", "b")
             for l in ("x", "y")
             for u, r in (("s", base), ("t", base + 1.0))],
        )
        verdict, stats = decide_ergodicity(g, eps=0.05)
        assert verdict.kind == "ergodic-24eps"
        bounds = enumerate_pure_bounds(g)
        for v in range(2):
            assert bounds.lo[v] <= verdict.ceiling + 1e-6
            assert bounds.hi[v] >= verdict.floor - 1e-6

    @pytest.mark.parametrize("game, eps, solves", [
        (disconnected(0.0, 10.0), 0.1, 40),
        (big_match(), 0.01, 2405),
        (disconnected(0.0, 10.0), 1.0, 2),
        (random_game(8, max_actions=3, seed=0), 0.05, 80),
        (random_game(128, max_actions=3, seed=0), 0.05, 1536),
    ])
    def test_ergodic_strategies_cost_no_extra_solve(self, game, eps, solves, monkeypatch):
        # the loop settles each potential's local games once: the pump
        # starts from the values its caller passes, and an ergodic exit lays
        # out the strategies of the solve that measured its band. The bounds
        # are that loop's counts of local games settled on these games, and
        # DriverStats.local_games counts the same games
        settled = count_local_games(monkeypatch)
        verdict, stats = decide_ergodicity(game, eps)
        assert verdict.alpha.states and verdict.beta.states
        assert 0 < settled.total() == stats.local_games <= solves

    @pytest.mark.parametrize("game", [random_game(8, max_actions=3, seed=0),
                                      random_game(128, max_actions=3, seed=0)])
    def test_ergodic_exit_after_pumping_settles_only_the_pumps_games(self, game, monkeypatch):
        # every phase of these runs collapses the band in phase 1, so the
        # loop settles the h = 0 games and then only what the pumps settle
        outcomes = []

        def recorded(*args, **kwargs):
            outcomes.append(modified_pump(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(driver, "modified_pump", recorded)
        settled = count_local_games(monkeypatch)
        verdict, stats = decide_ergodicity(game, 0.05)
        assert verdict.kind == "ergodic-24eps" and stats.outer_iterations > 0
        assert all("phase2" not in record for record in stats.phases)
        pumped = sum(out.stats.local_games for out in outcomes)
        assert settled.total() == stats.local_games == game.n + pumped

    def test_witness_exit_solves_only_the_low_set(self, monkeypatch):
        # the pump's last solve lists the high set at the certified
        # potential, so the witness build settles the low set's games alone
        outcomes, built = [], []

        def recorded(*args, **kwargs):
            outcomes.append(modified_pump(*args, **kwargs))
            return outcomes[-1]

        def build_solve(game, x, states=None):
            built.append(states)
            return local_solve(game, x, states)

        monkeypatch.setattr(driver, "modified_pump", recorded)
        monkeypatch.setattr(witness, "local_solve", build_solve)
        settled = count_local_games(monkeypatch)
        game = disconnected(0.0, 10.0)
        verdict, stats = decide_ergodicity(game, 0.1)
        assert verdict.kind == "non-ergodic" and [o.kind for o in outcomes] == [
            "witness-sets", "band-collapsed"]
        assert built == [[0]]
        pumped = sum(out.stats.local_games for out in outcomes)
        assert settled.total() == stats.local_games == game.n + pumped + 1

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_potential_overflow_ends_inconclusive_with_its_reason(self):
        verdict, _ = decide_ergodicity(disconnected(0.0, 1e307), 1e300)
        assert verdict.kind == "inconclusive"
        assert verdict.reason == ("PumpInvariantError: iteration 128: potential at state 1 "
                                  "left the float range (-inf)")

    def test_granularity_beyond_the_float_range_saturates(self):
        # W = 10**400 has no float: the gap thresholds saturate to inf, and the
        # run ends as it does at W = 10**300
        near, beyond = (decide_ergodicity(leaky_pair(leak), 0.05)[0]
                        for leak in ("1e-300", "1e-400"))
        assert (beyond.kind, beyond.reason) == (near.kind, near.reason) == (
            "inconclusive", "pump step cap 2000000 exhausted in the full-state phase")

    def test_ergodic_band_is_measured_at_the_certified_potential(self):
        # the loop carries the pump's last local values into its band check:
        # they must be exactly what a fresh solve at the final potential gives
        game = random_game(128, max_actions=3, seed=0)
        verdict, stats = decide_ergodicity(game, 0.05)
        assert verdict.kind == "ergodic-24eps"
        assert stats.outer_iterations == 5
        normalized, _ = normalize_rewards(game)
        values = matrix_game.local_solve(normalized, verdict.potential).values
        assert (verdict.floor, verdict.ceiling) == (np.min(values), np.max(values))

    def test_negative_rewards_offset_reported(self):
        g = disconnected(-5.0, 5.0)
        verdict, _ = decide_ergodicity(g, eps=0.1)
        assert verdict.kind == "non-ergodic"
        assert verdict.value_offset == 5.0

    def test_inconclusive_verdict_carries_the_offset(self):
        verdict, _ = decide_ergodicity(disconnected(-5.0, 5.0), eps=0.1,
                                       config=DriverConfig(pump_cap=5))
        assert verdict.kind == "inconclusive"
        assert verdict.value_offset == 5.0

    def test_tiny_cap_gives_inconclusive(self):
        verdict, _ = decide_ergodicity(disconnected(0.0, 10.0), eps=0.1,
                                       config=DriverConfig(pump_cap=5))
        assert verdict.kind == "inconclusive"
        assert "pump step cap 5 exhausted" in verdict.reason

    def test_outer_cap_bound_on_ergodic_runs(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            g = random_dense_game(rng, n=3, max_actions=2)
            verdict, stats = decide_ergodicity(g, eps=0.05)
            if verdict.kind != "ergodic-24eps":
                continue
            normalized, _ = normalize_rewards(g)
            from ergopump.game import game_params
            bound = default_outer_cap(game_params(normalized).reward_bound, 0.05)
            assert stats.outer_iterations <= bound

    def test_shrink_rate_per_outer_iteration(self):
        verdict, stats = decide_ergodicity(two_cycle(0.0, 4.0), eps=0.005)
        assert verdict.kind == "ergodic-24eps"
        bands = [rec["band"] for rec in stats.phases]
        widths = [hi - lo for lo, hi in bands]
        for before, after in zip(widths, widths[1:]):
            assert after <= before * (7.0 / 8.0) + 1e-9

    def test_determinism_of_verdicts(self):
        g = disconnected(0.0, 10.0)
        v1, s1 = decide_ergodicity(g, eps=0.1)
        v2, s2 = decide_ergodicity(g, eps=0.1)
        assert v1.potential.tobytes() == v2.potential.tobytes()
        assert serialize_certificate(g, v1, s1) == serialize_certificate(g, v2, s2)

    # an invalid game cannot reach the solver: building it raises
    def test_invalid_game_rejected(self):
        with pytest.raises(DocumentError, match="non-stopping condition fails"):
            make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "t", "1/2", 1.0), ("t", "a", "x", "t", 1, 0.0)])

    def test_rejects_non_finite_reward(self):
        with pytest.raises(DocumentError, match="reward is not finite"):
            one_state(float("nan"))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            decide_ergodicity(one_state(), eps=0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            decide_ergodicity(one_state(), eps=eps)

    def test_rejects_bool_eps(self):
        # True is no number to the verifier, so its certificate would not parse
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            decide_ergodicity(one_state(), eps=True)

    @pytest.mark.parametrize("eps", [np.float32(0.05), np.float16(0.05), np.int64(1)])
    def test_numpy_scalar_eps_certifies_as_a_float(self, eps):
        game = random_game(4, max_actions=2, seed=1)
        verdict, stats = decide_ergodicity(game, eps)
        assert verdict.kind != "inconclusive" and type(verdict.eps) is float
        assert verdict.eps == float(eps)
        parsed = parse_certificate(serialize_certificate(game, verdict, stats), game)
        assert parsed.eps == float(eps)
        assert recheck_certificate(game, parsed) == (True, ())

    def test_stalled_local_solve_is_inconclusive(self, monkeypatch):
        # state s0 of this game has a mixed 4x2 local game, beyond the closed
        # forms, so the run reaches the simplex
        monkeypatch.setattr(matrix_game, "_MAX_PIVOTS", 0)
        verdict, _ = decide_ergodicity(random_game(4, max_actions=4, seed=0), 0.05)
        assert verdict.kind == "inconclusive"
        assert verdict.reason.startswith("MatrixGameError")

    def test_huge_reward_scale_returns_a_verdict(self):
        # at this scale the absolute pivot tolerance lets the simplex stall;
        # that must end the run with a verdict, not an exception
        g = random_game(4, max_actions=3, seed=11)
        records = [(g.states[v], g.row_actions[v][k], g.col_actions[v][l], g.states[u], p,
                    r * 1e12)
                   for v, recs in enumerate(g.transitions) for k, l, u, p, r in recs]
        scaled = make_game(g.states, g.row_actions, g.col_actions, records)
        verdict, _ = decide_ergodicity(scaled, eps=0.05e12)
        assert verdict.kind in ("ergodic-24eps", "non-ergodic", "inconclusive")

    def test_state_relabeling_invariance(self):
        # permuting the state order must not change the verdict substance
        rng = np.random.default_rng(55)
        g = random_dense_game(rng, n=4, max_actions=2)
        verdict, _ = decide_ergodicity(g, eps=0.05)
        perm = [2, 0, 3, 1]
        renamed = [g.states[i] for i in perm]
        records = [(g.states[v], g.row_actions[v][k], g.col_actions[v][l], g.states[u], p, r)
                   for v, recs in enumerate(g.transitions) for k, l, u, p, r in recs]
        shuffled = make_game(renamed, [g.row_actions[i] for i in perm],
                             [g.col_actions[i] for i in perm], records)
        verdict2, _ = decide_ergodicity(shuffled, eps=0.05)
        assert verdict2.kind == verdict.kind
        if verdict.kind == "ergodic-24eps":
            assert verdict2.ceiling - verdict2.floor == pytest.approx(
                verdict.ceiling - verdict.floor, abs=1e-9)

    def test_state_order_does_not_change_the_run(self):
        # renumbering the states of a game document must reproduce the same
        # run: verdict, pump steps per phase, outer iterations and potential
        text = serialize_game(random_game(48, max_actions=3, seed=0))
        doc = json.loads(text)
        rng = np.random.default_rng(3)

        def run(states):
            g = parse_game(json.dumps(dict(doc, states=states)))
            verdict, stats = decide_ergodicity(g, eps=0.05)
            steps = [(rec["phase1"]["iterations"], rec.get("phase2", {}).get("iterations"))
                     for rec in stats.phases]
            return verdict, stats, steps, dict(zip(g.states, verdict.potential))

        verdict, stats, steps, potential = run(doc["states"])
        scale = max(abs(t) for t in potential.values())
        for _ in range(3):
            order = [doc["states"][i] for i in rng.permutation(len(doc["states"]))]
            verdict2, stats2, steps2, potential2 = run(order)
            assert verdict2.kind == verdict.kind
            assert stats2.outer_iterations == stats.outer_iterations
            assert steps2 == steps
            np.testing.assert_allclose([potential2[s] for s in order],
                                       [potential[s] for s in order],
                                       rtol=1e-12, atol=1e-12 * scale)
