"""Pump core: banding, payoff bounds, gap graph, closures, the pump loop."""

import numpy as np
import pytest

import reference
from builders import disconnected, max_mass_into, one_state, random_dense_game, two_cycle
from ergopump import driver, pump
from ergopump.driver import decide_ergodicity
from ergopump.game import game_params
from ergopump.generators import random_game
from ergopump.matrix_game import local_values
from ergopump.pump import (
    auxiliary_graph,
    find_closed_sets,
    modified_pump,
    partition,
    r_bounds,
)


class TestPartition:
    def test_four_values(self):
        part = partition([0.0, 1.0, 2.0, 4.0], 0.0, 4.0)
        assert part.top == {3}
        assert part.bottom == {0}
        assert part.middle == {1, 2}
        assert part.pumped == {2, 3}

    def test_all_equal_degenerate(self):
        part = partition([2.0, 2.0, 2.0], 2.0, 2.0)
        assert part.top == {0, 1, 2}
        assert part.bottom == set()
        assert part.delta == 0.0

    def test_two_point(self):
        part = partition([0.0, 4.0], 0.0, 4.0)
        assert part.top == {1}
        assert part.bottom == {0}
        assert part.middle == set()
        assert part.pumped == {1}

    def test_restricted_states(self):
        part = partition([0.0, 99.0, 4.0], 0.0, 4.0, states=[0, 2])
        assert part.top == {2}
        assert part.bottom == {0}
        assert 1 not in part.pumped


class TestRBounds:
    def test_zero_potential_plain_expected_reward(self):
        rng = np.random.default_rng(4)
        g = random_dense_game(rng, n=3)
        rb = r_bounds(g, np.zeros(3), {0, 1, 2}, m_plus=7.0)
        for v in range(3):
            expected = {}
            for k, l, _u, p, r in g.transitions[v]:
                expected[k, l] = expected.get((k, l), 0.0) + float(p) * r
            assert rb.values[v] == pytest.approx(max(expected.values()))
            assert rb.upper_side[v]

    def test_self_loop_pumped(self):
        g = one_state(6.0)
        rb = r_bounds(g, np.array([-55.0]), {0}, m_plus=6.0)
        assert rb.values[0] == pytest.approx(6.0)

    def test_single_arc(self):
        from ergopump.game import make_game
        g = make_game(["v", "u"], [["a"], ["a"]], [["x"], ["x"]],
                      [("v", "a", "x", "u", 1, 2.0), ("u", "a", "x", "u", 1, 0.0)])
        rb = r_bounds(g, np.array([3.0, 0.0]), {0}, m_plus=5.0)
        assert rb.values[0] == pytest.approx(5.0)

    def test_lower_side_reflection(self):
        g = one_state(2.0)
        rb = r_bounds(g, np.zeros(1), set(), m_plus=9.0)
        assert rb.values[0] == pytest.approx(7.0)
        assert not rb.upper_side[0]


class TestAuxiliaryGraph:
    def test_equal_potentials_complete(self):
        g = disconnected()
        arcs = auxiliary_graph(g, np.zeros(2), {1}, r_bounds(g, np.zeros(2), {1}, 10.0),
                               eps=0.1)
        assert arcs[0, 1] and arcs[1, 0]
        assert not arcs[0, 0] and not arcs[1, 1]

    def test_saturated_gap_removes_arc(self):
        g = disconnected()
        x = np.array([0.0, -1000.0])  # threshold is exactly 1*1*100/0.1 = 1000
        rb = r_bounds(g, x, {1}, 10.0)
        arcs = auxiliary_graph(g, x, {1}, rb, eps=0.1)
        assert not arcs[1, 0]  # pumped state: gap x[0]-x[1] = 1000, not < 1000
        assert not arcs[0, 1]  # unpumped state: gap x[0]-x[1] = 1000, not < 1000

    def test_thresholds_scale_with_action_count(self):
        rng = np.random.default_rng(9)
        g = random_dense_game(rng, n=2, max_actions=2)
        rb = r_bounds(g, np.zeros(2), {0}, 5.0)
        params = game_params(g)
        arcs = auxiliary_graph(g, np.zeros(2), {0}, rb, eps=0.5,
                               granularity=params.granularity)
        assert arcs[0, 1] and arcs[1, 0]


class TestFindClosedSets:
    def test_no_arcs_returns_seeds(self):
        arcs = np.zeros((2, 2), dtype=bool)
        result = find_closed_sets(arcs, top={0}, pumped={0}, bottom={1})
        assert result == ({0}, {1})

    def test_escape_from_pumped_fails(self):
        arcs = np.zeros((2, 2), dtype=bool)
        arcs[0, 1] = True  # top state points outside the pumped half
        assert find_closed_sets(arcs, top={0}, pumped={0}, bottom={1}) is None

    def test_chain_inside_pumped(self):
        arcs = np.zeros((4, 4), dtype=bool)
        arcs[0, 1] = arcs[1, 2] = True  # chain 0 -> 1 -> 2 within the pumped half
        result = find_closed_sets(arcs, top={0}, pumped={0, 1, 2}, bottom={3})
        assert result == ({0, 1, 2}, {3})

    def test_bottom_closure_touching_pumped_fails(self):
        arcs = np.zeros((3, 3), dtype=bool)
        arcs[2, 1] = True  # bottom reaches a pumped state
        assert find_closed_sets(arcs, top={0}, pumped={0, 1}, bottom={2}) is None


class TestModifiedPump:
    def test_single_state_collapses_immediately(self):
        g = one_state()
        out = modified_pump(g, np.zeros(1), [0], 5.0, 5.0, eps=0.1, cap=10)
        assert out.kind == "band-collapsed"
        assert out.stats.iterations == 0

    def test_disconnected_witness_after_400_steps(self):
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, np.zeros(2), [0, 1], 0.0, 10.0, eps=0.1, cap=1000)
        assert out.kind == "witness-sets"
        assert out.closed_high == {1}
        assert out.closed_low == {0}
        # gap must reach 1*1*10^2/0.1 = 1000 at 2.5 per pump
        assert out.stats.iterations == 400
        assert out.x[0] - out.x[1] == pytest.approx(1000.0)

    def test_two_cycle_collapse_shrinks_band(self):
        g = two_cycle(0.0, 4.0)
        out = modified_pump(g, np.zeros(2), [0, 1], 0.0, 4.0, eps=0.05, cap=100)
        assert out.kind == "band-collapsed"
        finite = out.m_values[np.isfinite(out.m_values)]
        assert np.ptp(finite) <= 3.0 * (1 + 1e-9)

    def test_cap_exceeded_is_distinct_outcome(self):
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, np.zeros(2), [0, 1], 0.0, 10.0, eps=0.1, cap=5)
        assert out.kind == "cap-exceeded"
        assert out.stats.iterations == 5

    def test_outside_states_untouched(self):
        g = disconnected(0.0, 10.0)
        x0 = np.array([7.0, 3.0])
        out = modified_pump(g, x0, [1], 5.0, 10.0, eps=0.1, cap=50)
        assert out.x[0] == 7.0

    def test_trace_records(self):
        g = two_cycle(0.0, 4.0)
        out = modified_pump(g, np.zeros(2), [0, 1], 0.0, 4.0, eps=0.05, cap=100,
                            collect_trace=True)
        assert out.stats.trace
        first = out.stats.trace[0]
        assert set(first) == {"tau", "m_min", "m_max", "top", "bottom", "pumped",
                              "potential_hash"}

    def test_invariants_hold_on_random_instances(self):
        rng = np.random.default_rng(31)
        for seed in range(6):
            g = random_dense_game(rng, n=3, max_actions=2)
            m = local_values(g, np.zeros(3))
            out = modified_pump(g, np.zeros(3), range(3), float(np.min(m)),
                                float(np.max(m)), eps=0.05, cap=500)
            assert out.kind in ("band-collapsed", "witness-sets", "cap-exceeded")

    def test_plain_repeated_pumping_harness(self):
        # repeated pumping as a harness: on an ergodic game no witness
        # appears, and re-banding after every collapse keeps shrinking it
        g = two_cycle(0.0, 4.0)
        x = np.zeros(2)
        width = 4.0
        for _ in range(12):
            m = local_values(g, x)
            lo, hi = float(np.min(m)), float(np.max(m))
            if hi - lo <= 0.05:
                break
            out = modified_pump(g, x, [0, 1], lo, hi, eps=0.05, cap=1000)
            assert out.kind == "band-collapsed"
            x = out.x
            finite = out.m_values[np.isfinite(out.m_values)]
            new_width = float(np.ptp(finite))
            assert new_width <= 0.75 * (hi - lo) + 1e-9
            width = new_width
        assert width <= 0.05


class TestRefinedDriftBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_drift_bounded_by_outside_mass(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_dense_game(rng, n=4, max_actions=2)
        x = rng.normal(size=4) * 3
        subset = {v for v in range(4) if rng.random() < 0.5} or {0}
        delta = float(rng.uniform(0.1, 2.0))
        bumped = x.copy()
        bumped[sorted(subset)] -= delta
        before = local_values(g, x)
        after = local_values(g, bumped)
        for v in range(4):
            mass_out = max_mass_into(g, v, [u for u in range(4) if u not in subset])
            mass_in = max_mass_into(g, v, subset)
            if v in subset:
                assert after[v] <= before[v] + 1e-9
                assert after[v] >= before[v] - delta * mass_out - 1e-9
            else:
                assert after[v] >= before[v] - 1e-9
                assert after[v] <= before[v] + delta * mass_in + 1e-9


def _corpus_game(seed):
    """The acceptance corpus's random instance for `seed`."""
    return random_game(n=2 + seed % 4, max_actions=1 + seed % 3,
                       granularity=1 + seed % 8, reward_bound=8.0, seed=seed)


def _pump_and_reference(game, x0, states, m_minus, m_plus, eps, cap, **kwargs):
    """modified_pump and the single-step reference on the same call; both must
    agree bitwise on every result."""
    out = modified_pump(game, x0, states, m_minus, m_plus, eps, cap, **kwargs)
    ref = reference.single_step_pump(game, x0, states, m_minus, m_plus, eps, cap)
    assert out.kind == ref.kind
    assert out.stats.iterations == ref.iterations
    assert np.array_equal(out.stats.pump_counts, ref.pump_counts)
    assert (out.closed_high, out.closed_low) == (ref.closed or (None, None))
    assert out.x.tobytes() == ref.x.tobytes()
    assert out.m_values.tobytes() == ref.m_values.tobytes()
    return out


class TestSingleStepEquivalence:
    """The event-driven loop lands exactly where single steps land."""

    @pytest.mark.parametrize("seed,eps", [(32, 0.05), (51, 0.05), (160, 0.05),
                                          (169, 0.05), (184, 0.05), (184, 0.0025)])
    def test_every_pump_of_a_corpus_solve(self, monkeypatch, seed, eps):
        outcomes = []

        def compared(*args, **kwargs):
            outcomes.append(_pump_and_reference(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(driver, "modified_pump", compared)
        verdict, _ = decide_ergodicity(_corpus_game(seed), eps)
        assert verdict.kind != "inconclusive"
        assert sum(out.stats.iterations for out in outcomes) > 100

    @pytest.mark.parametrize("cap", [1000, 137])
    def test_disconnected(self, cap):
        out = _pump_and_reference(disconnected(0.0, 10.0), np.zeros(2), [0, 1], 0.0, 10.0,
                                  0.1, cap)
        assert out.stats.iterations == min(cap, 400)

    def test_random_dense_games(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_dense_game(rng, n=n, max_actions=3)
            m = local_values(g, np.zeros(n))
            _pump_and_reference(g, np.zeros(n), range(n), float(np.min(m)),
                                float(np.max(m)), 0.05, 500)


def test_local_value_evaluations_grow_slower_than_steps(monkeypatch):
    evaluations = []
    original = pump.local_values

    def counted(*args, **kwargs):
        evaluations[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pump, "local_values", counted)
    steps = []
    for eps in (0.05, 0.0025):
        evaluations.append(0)
        _, stats = decide_ergodicity(_corpus_game(184), eps)
        steps.append(sum(record[phase]["iterations"] for record in stats.phases
                         for phase in ("phase1", "phase2") if phase in record))
    assert steps[1] >= 15 * steps[0]
    assert evaluations[1] < 2 * evaluations[0]
