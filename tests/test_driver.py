"""Outer loop: caps, potential reduction, verdicts, shrink rate."""

import json
import math

import numpy as np
import pytest

from builders import big_match, disconnected, one_state, random_dense_game, two_cycle
from ergopump.documents import parse_game, serialize_certificate, serialize_game
from ergopump.driver import (
    DriverConfig,
    compute_iteration_cap,
    decide_ergodicity,
    default_outer_cap,
    reduce_potential,
)
from ergopump.game import GameParams, make_game, normalize_rewards
from ergopump.generators import random_game
from ergopump.markov import brute_force_game_bounds
from ergopump.matrix_game import local_values
from ergopump.pump import modified_pump


class TestIterationCap:
    def test_unit_parameters(self):
        params = GameParams(1, 1, 1, 1.0)
        assert compute_iteration_cap(params, 1.0, 1.0) == 3

    def test_two_state_formula(self):
        params = GameParams(2, 1, 1, 1.0)
        # kappa = (2)^3 * 4 = 32, so the cap is 2*2*32 + 1 = 129
        assert compute_iteration_cap(params, 1.0, 1.0) == 129

    def test_overflow_saturates(self):
        params = GameParams(8, 4, 8, 8.0)
        assert compute_iteration_cap(params, 1e-3, 1e-6, hard_cap=12345) == 12345

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            compute_iteration_cap(GameParams(1, 1, 1, 1.0), 0.0, 1.0)

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
        out = modified_pump(g, np.zeros(2), [0, 1], 0.0, 4.0, eps=0.05, cap=100)
        finite = out.m_values[np.isfinite(out.m_values)]
        lo, hi = float(np.min(finite)), float(np.max(finite))
        reduced, _ = reduce_potential(g, out.x)
        m = local_values(g, reduced)
        assert np.min(m) >= lo - 1e-7
        assert np.max(m) <= hi + 1e-7
        assert np.max(np.abs(reduced)) <= np.max(np.abs(out.x - np.mean(out.x))) + 1e-12


class TestDecideErgodicity:
    def test_single_state_trivially_ergodic(self):
        verdict, stats = decide_ergodicity(one_state(), eps=0.05)
        assert verdict.kind == "ergodic-24eps"
        assert verdict.m_plus - verdict.m_minus == 0.0
        assert np.allclose(verdict.potential, 0.0)

    def test_disconnected_witness_thresholds(self):
        verdict, stats = decide_ergodicity(disconnected(0.0, 10.0), eps=0.1)
        assert verdict.kind == "non-ergodic"
        assert verdict.high_states == {1}
        assert verdict.low_states == {0}
        # entry band is [0, 10]: thresholds at midpoint and five-eighths
        assert verdict.ceiling_raw == pytest.approx(5.0)
        assert verdict.floor_raw == pytest.approx(6.25)
        assert verdict.floor - verdict.ceiling >= verdict.eps - 1e-12
        # N4 on the high side at the returned potential
        g, _ = normalize_rewards(disconnected(0.0, 10.0))
        m = local_values(g, verdict.potential)
        for v in verdict.high_states:
            assert m[v] >= verdict.floor_raw - 1e-9

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
        lo, hi, *_ = brute_force_game_bounds(g)
        for v in range(2):
            assert lo[v] <= verdict.m_plus + 1e-6
            assert hi[v] >= verdict.m_minus - 1e-6

    def test_negative_rewards_offset_reported(self):
        g = disconnected(-5.0, 5.0)
        verdict, _ = decide_ergodicity(g, eps=0.1)
        assert verdict.kind == "non-ergodic"
        assert verdict.value_offset == 5.0

    def test_tiny_cap_gives_inconclusive(self):
        verdict, _ = decide_ergodicity(disconnected(0.0, 10.0), eps=0.1,
                                       config=DriverConfig(pump_cap=5))
        assert verdict.kind == "inconclusive"
        assert "cap" in verdict.reason

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

    def test_invalid_game_rejected(self):
        g = make_game(["s", "t"], [["a"], ["a"]], [["x"], ["x"]],
                      [("s", "a", "x", "t", "1/2", 1.0), ("t", "a", "x", "t", 1, 0.0)])
        with pytest.raises(ValueError, match="invalid game"):
            decide_ergodicity(g, eps=0.1)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            decide_ergodicity(one_state(), eps=0.0)

    def test_state_relabeling_invariance(self):
        # permuting the state order must not change the verdict substance
        rng = np.random.default_rng(55)
        g = random_dense_game(rng, n=4, max_actions=2)
        verdict, _ = decide_ergodicity(g, eps=0.05)
        perm = [2, 0, 3, 1]
        renamed = [g.states[i] for i in perm]
        records = []
        for v in range(g.n):
            for k in range(g.num_row_actions(v)):
                for l in range(g.num_col_actions(v)):
                    for u in range(g.n):
                        p = g.prob[v][k][l][u]
                        if p > 0:
                            records.append((g.states[v], g.row_actions[v][k],
                                            g.col_actions[v][l], g.states[u], p,
                                            g.reward[v][k][l][u]))
        shuffled = make_game(renamed, [g.row_actions[i] for i in perm],
                             [g.col_actions[i] for i in perm], records)
        verdict2, _ = decide_ergodicity(shuffled, eps=0.05)
        assert verdict2.kind == verdict.kind
        if verdict.kind == "ergodic-24eps":
            assert verdict2.m_plus - verdict2.m_minus == pytest.approx(
                verdict.m_plus - verdict.m_minus, abs=1e-9)

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
