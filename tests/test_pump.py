"""Pump core: banding, payoff bounds, gap graph, closures, the pump loop."""

import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from builders import (
    count_calls,
    disconnected,
    leaky_pair,
    max_mass_into,
    on_both_forms,
    one_state,
    random_dense_game,
    two_cycle,
)
from ergopump import driver, pump
from ergopump.driver import decide_ergodicity
from ergopump.game import game_params, make_game, state_mask
from ergopump.generators import random_game
from ergopump.matrix_game import local_solve, local_values
from ergopump.pump import (
    GapGraph,
    PumpOutcome,
    PumpStats,
    auxiliary_graph,
    boundary_gap_violations,
    find_closed_sets,
    forward_closure,
    modified_pump,
    partition,
    r_bounds,
)


@st.composite
def _band_inputs(draw):
    """Local values and a band: integers and floats, NaN and infinities,
    values exactly at each threshold and one float either side of it, and
    bands of either orientation (m_plus < m_minus too)."""
    m_minus = draw(st.one_of(st.integers(-2, 2).map(float), st.floats(-5, 5)))
    m_plus = m_minus + draw(st.one_of(st.integers(-4, 4).map(float), st.floats(-6, 6)))
    delta = (m_plus - m_minus) / 4.0
    edges = [m_minus + i * delta - pump.BAND_SLACK for i in (1, 2, 3)]
    edges += [float(np.nextafter(t, side)) for t in edges[:3] for side in (-np.inf, np.inf)]
    value = st.one_of(st.integers(-3, 5).map(float), st.floats(-6, 6),
                      st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from(edges))
    return draw(st.lists(value, max_size=12)), m_minus, m_plus


class TestPartition:
    def test_four_values(self):
        part = partition([0.0, 1.0, 2.0, 4.0], 0.0, 4.0)
        assert part.top == {3}
        assert part.bottom == {0}
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
        assert part.pumped == {1}

    def test_restricted_states(self):
        part = partition([0.0, np.nan, 4.0], 0.0, 4.0)
        assert part.top == {2}
        assert part.bottom == {0}
        assert 1 not in part.pumped

    def test_inverted_band_overlaps(self):
        # m_plus < m_minus: the thresholds run downwards, so a value can sit
        # in the bottom band and the pumped half (and here the top band)
        part = partition([2.5, np.inf, -np.inf, np.nan], 4.0, 0.0)
        assert part.top == part.bottom == part.pumped == {0}

    @settings(max_examples=300, deadline=None)
    @given(_band_inputs())
    def test_matches_per_state_comprehensions(self, inputs):
        # in numpy form and in the Python loop, NaN and infinities join no
        # band, and values at each threshold fall on the same side of it
        m_values, m_minus, m_plus = inputs
        expected = reference.partition_sets(m_values, m_minus, m_plus, pump.BAND_SLACK)
        numpy_form, loop = on_both_forms(lambda: partition(m_values, m_minus, m_plus),
                                         len(m_values))
        assert numpy_form == loop
        for part in numpy_form, loop:
            bands = part.top, part.bottom, part.pumped
            assert bands == expected
            assert all(type(v) is int for band in bands for v in band)


class TestStepInvariants:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3))
    def test_first_failure_matches_per_state_loop(self, seed, n, steps):
        # drifts on a grid around the bound and the sign thresholds, over a
        # subset of the states in ascending order; the others are NaN, as
        # outside a pump phase
        rng = np.random.default_rng(seed)
        delta = 0.25
        prev_m = rng.uniform(-5, 5, size=n)
        bound = steps * delta
        choices = [0.0, pump.BAND_SLACK / 2, 2 * pump.BAND_SLACK, bound,
                   bound + 2 * pump.BAND_SLACK, bound / 3]
        m = prev_m + rng.choice(choices, size=n) * rng.choice([-1.0, 1.0], size=n)
        states = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        outside = np.setdiff1d(np.arange(n), states)
        prev_m[outside] = m[outside] = np.nan
        pumped = (rng.random(n) < 0.5).astype(np.int64)
        expected = reference.step_invariant_failure(
            7, prev_m, m, set(np.flatnonzero(pumped).tolist()), states, delta, steps,
            pump.BAND_SLACK)
        if expected is None:
            pump._check_step_invariants(7, prev_m, m, pumped, delta, steps)
        else:
            with pytest.raises(pump.PumpInvariantError) as info:
                pump._check_step_invariants(7, prev_m, m, pumped, delta, steps)
            assert str(info.value) == expected


def _upper(n, pumped):
    """The bool-per-state mask of the pumped states, as r_bounds takes it."""
    return np.isin(np.arange(n), list(pumped))


class TestRBounds:
    def test_zero_potential_plain_expected_reward(self):
        rng = np.random.default_rng(4)
        g = random_dense_game(rng, n=3)
        bounds = r_bounds(g, np.zeros(3), _upper(3, {0, 1, 2}), m_plus=7.0)
        for v, records in enumerate(g.transitions):
            expected = {}
            for k, l, _u, p, r in records:
                expected[k, l] = expected.get((k, l), 0.0) + float(p) * r
            assert bounds[v] == pytest.approx(max(expected.values()))

    def test_self_loop_pumped(self):
        g = one_state(6.0)
        bounds = r_bounds(g, np.array([-55.0]), _upper(1, {0}), m_plus=6.0)
        assert bounds[0] == pytest.approx(6.0)

    def test_single_arc(self):
        from ergopump.game import make_game
        g = make_game(["v", "u"], [["a"], ["a"]], [["x"], ["x"]],
                      [("v", "a", "x", "u", 1, 2.0), ("u", "a", "x", "u", 1, 0.0)])
        bounds = r_bounds(g, np.array([3.0, 0.0]), _upper(2, {0}), m_plus=5.0)
        assert bounds[0] == pytest.approx(5.0)

    def test_lower_side_reflection(self):
        g = one_state(2.0)
        bounds = r_bounds(g, np.zeros(1), _upper(1, set()), m_plus=9.0)
        assert bounds[0] == pytest.approx(7.0)


def _graph(x, thresholds, pumped):
    """A gap graph with the given thresholds; no payoff bounds sized them."""
    x = np.asarray(x, dtype=np.float64)
    return GapGraph(x=x, bounds=np.full(len(x), np.nan),
                    thresholds=np.asarray(thresholds, dtype=np.float64),
                    pumped=_upper(len(x), pumped))


def _lookup(thresholds):
    """A threshold callable for _first_hop_leaks: one state's threshold as a
    Python float, an index array's as an array."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return lambda v: thresholds[v] if isinstance(v, np.ndarray) else thresholds.item(v)


class TestAuxiliaryGraph:
    def test_equal_potentials_complete(self):
        g = disconnected()
        graph = auxiliary_graph(g, np.zeros(2), {1}, 10.0, eps=0.1)
        assert forward_closure(graph, {0}) == {0, 1}  # arc 0 -> 1
        assert forward_closure(graph, {1}) == {0, 1}  # arc 1 -> 0

    def test_saturated_gap_removes_arc(self):
        g = disconnected()
        x = np.array([0.0, -1000.0])  # threshold is exactly 1*1*100/0.1 = 1000
        graph = auxiliary_graph(g, x, {1}, 10.0, eps=0.1)
        # gap x[0]-x[1] = 1000 is not < 1000, from the pumped state 1 nor from 0
        assert forward_closure(graph, {1}) == {1}
        assert forward_closure(graph, {0}) == {0}

    @pytest.mark.parametrize("leak, high", [("1e-300", 8e301), ("1e-400", np.inf)])
    def test_zero_bound_keeps_a_zero_threshold(self, leak, high):
        # state 0 is pumped with payoffs 0, state 1 unpumped with payoffs
        # 10 below m_plus = 12: bounds (0, 2), and W = 1/leak
        graph = auxiliary_graph(leaky_pair(leak), np.zeros(2), {0}, 12.0, eps=0.05)
        assert graph.bounds.tolist() == [0.0, 2.0]
        assert graph.thresholds.tolist() == [0.0, pytest.approx(high)]

    def test_thresholds_scale_with_action_count(self):
        rng = np.random.default_rng(9)
        g = random_dense_game(rng, n=2, max_actions=2)
        graph = auxiliary_graph(g, np.zeros(2), {0}, 5.0, eps=0.5)
        assert forward_closure(graph, {0}) == {0, 1}
        assert forward_closure(graph, {1}) == {0, 1}

    def test_thresholds_match_per_state_loop(self):
        rng = np.random.default_rng(12)
        g = random_dense_game(rng, n=6, max_actions=3)
        x = rng.normal(size=6)
        pumped = {1, 2, 4}
        graph = auxiliary_graph(g, x, pumped, 5.0, eps=0.05)
        bounds = r_bounds(g, x, _upper(6, pumped), 5.0)
        assert graph.bounds.tobytes() == bounds.tobytes()
        expected = reference.gap_thresholds(g, pumped, bounds, 0.05, game_params(g).granularity)
        assert graph.thresholds.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mask_and_set_build_the_same_graph(self, seed):
        # the pump passes a landed step's pumped set, and its probes the mask
        # that step's graph built; a mask is kept as is
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        g = random_dense_game(rng, n=n, max_actions=3)
        x = rng.uniform(-30, 30, n) * rng.integers(0, 2, n)
        pumped = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
        mask = _upper(n, pumped)
        by_set = auxiliary_graph(g, x, pumped, 6.0, 0.05)
        by_mask = auxiliary_graph(g, x, mask, 6.0, 0.05)
        assert by_mask.pumped is mask
        for name in ("x", "bounds", "thresholds", "pumped"):
            assert getattr(by_set, name).tobytes() == getattr(by_mask, name).tobytes()


class TestFindClosedSets:
    def test_no_arcs_returns_seeds(self):
        graph = _graph([0.0, 0.0], [-1.0, -1.0], pumped={0})
        result = find_closed_sets(graph, top={0}, bottom={1})
        assert result == ({0}, {1})

    def test_escape_from_pumped_fails(self):
        graph = _graph([0.0, 0.0], [1.0, -1.0], pumped={0})  # only arc: 0 -> 1
        assert find_closed_sets(graph, top={0}, bottom={1}) is None

    def test_chain_inside_pumped(self):
        # arcs 0 -> 1 and 1 -> {0, 2}: 2 is reached from 0 only through 1
        graph = _graph([0.0, 1.0, 2.0, 10.0], [1.5, 1.5, -5.0, -1.0], pumped={0, 1, 2})
        assert forward_closure(graph, {0}) == {0, 1, 2}
        result = find_closed_sets(graph, top={0}, bottom={3})
        assert result == ({0, 1, 2}, {3})

    def test_bottom_closure_touching_pumped_fails(self):
        graph = _graph([0.0, 0.0, 0.0], [-1.0, -1.0, 1.0], pumped={0, 1})  # 2 reaches 0 and 1
        assert find_closed_sets(graph, top={0}, bottom={2}) is None


_coarse = st.integers(-4, 4).map(lambda k: k * 0.5)  # a coarse grid forces ties
_potential = st.one_of(_coarse, _coarse, st.floats(-1e17, 1e17))
_threshold = st.one_of(_coarse, st.sampled_from([0.0, -1.0, 1e300, np.inf]),
                       st.floats(-10.0, 1e17))


@st.composite
def _gap_instances(draw):
    """Potentials, thresholds, a mixed pumped set and two seed sets on n = 1-40
    states. Most thresholds are the gap to a drawn state, so that state sits
    exactly at the cut where the arcs of the state end. In a sealed
    instance each seed's threshold is instead its gap to the nearest state
    across the pumped boundary (for a pumped state the outside state of
    least x, else the pumped state of greatest x), so no seed has an arc
    across the boundary and find_closed_sets passes its first hop."""
    n = draw(st.integers(1, 40))
    x = draw(st.lists(_potential, min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    subset = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    top, bottom = draw(subset), draw(subset)
    sealed = draw(st.booleans())

    def gap_to(v):
        return st.integers(0, n - 1).map(lambda u: x[u] - x[v] if flags[v] else x[v] - x[u])

    def threshold(v):
        across = [x[u] - x[v] if flags[v] else x[v] - x[u]
                  for u in range(n) if flags[u] != flags[v]]
        if sealed and across and v in top | bottom:
            return st.just(min(across))
        return st.one_of(_threshold, gap_to(v), gap_to(v))

    thresholds = [draw(threshold(v)) for v in range(n)]
    pumped = {v for v in range(n) if flags[v]}
    return x, thresholds, pumped, top, bottom


@st.composite
def _bulk_instances(draw):
    """Potentials, a pumped set and two seed sets of at least two states each
    on n = 4-40 states: top seeds pumped, bottom seeds not, but for one stray
    seed on the wrong side now and then, with no arcs. Each side's first
    seed, in the seed set's own order, is never the stray and has as
    threshold its gap to the nearest state across the pumped boundary, so it
    has no arc across; each other seed's is drawn, that gap or one float
    above it among them, and every state that is no seed has no arcs.
    Returns the stray's side too, "top", "bottom" or None."""
    n = draw(st.integers(4, 40))
    x = draw(st.lists(_potential, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    cut = draw(st.integers(2, n - 2))
    pumped, outside = order[:cut], order[cut:]
    top = draw(st.sets(st.sampled_from(pumped), min_size=2))
    bottom = draw(st.sets(st.sampled_from(outside), min_size=2))
    stray = draw(st.sampled_from([None, "top", "bottom"]))
    if stray == "top":
        top.add(draw(st.sampled_from(outside)))
    elif stray == "bottom":
        bottom.add(draw(st.sampled_from(pumped)))
    top, bottom = frozenset(top), frozenset(bottom)
    assume(next(iter(top)) in pumped and next(iter(bottom)) in outside)
    lowest, highest = min(x[u] for u in outside), max(x[u] for u in pumped)
    thresholds = [-np.inf] * n
    for seeds, side, gap in ((top, pumped, lambda v: lowest - x[v]),
                             (bottom, outside, lambda v: x[v] - highest)):
        first = next(iter(seeds))
        thresholds[first] = gap(first)
        for v in seeds - {first}:
            if v in side:  # no arc across at the cut's gap, an arc one float above it
                cut_gap = gap(v)
                thresholds[v] = draw(st.one_of(_threshold, st.just(cut_gap),
                                               st.just(float(np.nextafter(cut_gap, np.inf)))))
    return x, thresholds, set(pumped), top, bottom, stray


class TestSweepAgainstDenseOracle:
    @settings(max_examples=300, deadline=None)
    @given(_gap_instances())
    def test_closures_match_bfs(self, instance):
        x, thresholds, pumped, seeds, _ = instance
        graph = _graph(x, thresholds, pumped)
        arcs = reference.arc_matrix(x, thresholds, pumped)
        for start in [seeds] + [{v} for v in range(len(x))]:
            assert forward_closure(graph, start) == reference.closure_bfs(arcs, start)

    def test_closed_sets_match_bfs(self):
        # both first-hop outcomes occur: a seed's arc across the pumped
        # boundary rejects the check, as the oracle does, and otherwise the
        # sweep decides it, finding closed sets or a leak further out
        outcomes = Counter()

        @settings(max_examples=300, deadline=None)
        @given(_gap_instances())
        def check(instance):
            x, thresholds, pumped, top, bottom = instance
            graph = _graph(x, thresholds, pumped)
            expected = reference.closed_sets_bfs(x, thresholds, pumped, top, bottom)
            leaks = pump._first_hop_leaks(graph.x, graph.pumped, top, bottom,
                                          _lookup(graph.thresholds))
            # seeds on the wrong side of the pumped boundary fail at the first
            # hop, as they fail in the oracle
            if not top <= pumped or bottom & pumped:
                assert leaks
            assert not (leaks and expected)
            assert find_closed_sets(graph, top, bottom) == expected
            # seeds drawn from the side each closure must stay on, so both closures run
            top, bottom = top & pumped, bottom - pumped
            expected = reference.closed_sets_bfs(x, thresholds, pumped, top, bottom)
            leaks = pump._first_hop_leaks(graph.x, graph.pumped, top, bottom,
                                          _lookup(graph.thresholds))
            assert not (leaks and expected)
            assert find_closed_sets(graph, top, bottom) == expected
            if top and bottom:
                outcomes["first hop" if leaks else "sweep", expected is not None] += 1

        check()
        assert {("first hop", False), ("sweep", False), ("sweep", True)} <= set(outcomes)

    @settings(max_examples=300, deadline=None)
    @given(_gap_instances(), st.sampled_from(["drawn", "empty", "full"]),
           st.sets(st.integers(0, 39)))
    def test_first_hop_numpy_extremes_match_the_lists(self, instance, side, negated):
        # the same decision from numpy's extremes and the lists'; zeros are
        # signed now and then, and the pumped set is sometimes empty or
        # everything. The numpy form asks for at most one scalar threshold
        # per side, a seed of that side, before it asks for the side's
        # seeds' thresholds in one call on their index array
        x, thresholds, pumped, top, bottom = instance
        n = len(x)
        x = np.array([-u if v in negated and u == 0 else u for v, u in enumerate(x)])
        mask = state_mask(n, {"drawn": pumped, "empty": (), "full": range(n)}[side])
        lookup = _lookup(thresholds)

        def leaks():
            asked = []

            def threshold(v):
                asked.append(v.tolist() if isinstance(v, np.ndarray) else v)
                return lookup(v)
            return pump._first_hop_leaks(x, mask, top, bottom, threshold), asked

        (numpy_leaks, asked), (loop_leaks, _) = on_both_forms(leaks, n)
        assert numpy_leaks == loop_leaks
        # each side tested: top if some state is outside the pumped set,
        # bottom if some state is inside it, in that order
        sides = [seeds for seeds, tested in ((top, not mask.all()), (bottom, mask.any()))
                 if seeds and tested]
        for seeds in sides:
            if not asked:
                break
            first = asked.pop(0)
            assert isinstance(first, int) and first in seeds
            if asked and isinstance(asked[0], list):
                assert sorted(asked.pop(0)) == sorted(seeds)
        assert not asked

    def test_first_hop_bulk_comparison_decides(self):
        # each side's first seed passes, so in numpy form the side's seeds
        # are tested together, on which side of the pumped boundary each
        # lies, then by one comparison; the decision is the list form's and,
        # as only seeds have arcs, whether the oracle's closures leave their
        # side. Both decisions occur, and a stray seed on either side
        outcomes = Counter()

        @settings(max_examples=300, deadline=None)
        @given(_bulk_instances())
        def check(instance):
            x, thresholds, pumped, top, bottom, stray = instance
            mask = state_mask(len(x), pumped)
            lookup = _lookup(thresholds)

            def leaks():
                bulk = []  # per threshold asked: whether for an index array

                def threshold(v):
                    bulk.append(isinstance(v, np.ndarray))
                    return lookup(v)
                return pump._first_hop_leaks(np.array(x), mask, top, bottom, threshold), bulk

            (numpy_leaks, bulk), (loop_leaks, _) = on_both_forms(leaks, len(x))
            expected = reference.closed_sets_bfs(x, thresholds, pumped, top, bottom)
            assert numpy_leaks == loop_leaks == (expected is None)
            # the top side's first seed alone, then, unless a stray decides
            # first, its bulk call
            assert bulk[:2] == ([False] if stray == "top" else [False, True])
            outcomes[numpy_leaks, stray] += 1

        check()
        assert {(False, None), (True, None), (True, "top"), (True, "bottom")} <= set(outcomes)

    def test_first_hop_rejection_never_sorts(self, monkeypatch):
        # the pump's checks on disconnected(0, 10): before step 400 the top
        # state's bounds give it an arc out of the pumped set, and those
        # checks, the landed step 0 and the probes alike, build no graph and
        # sort nothing; from step 400 on the first hop passes, and a graph
        # and its sweep decide the check
        g = disconnected(0.0, 10.0)
        entry = local_solve(g, np.zeros(2))
        events = []

        def logged(name, original):
            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                events.append((name, out))
                return out
            return wrapper

        monkeypatch.setattr(np, "argsort", logged("sort", np.argsort))
        monkeypatch.setattr(pump, "auxiliary_graph", logged("graph", pump.auxiliary_graph))
        monkeypatch.setattr(pump, "_first_hop_leaks", logged("first hop", pump._first_hop_leaks))
        out = modified_pump(g, entry, 0.0, 10.0, eps=0.1, cap=1000)
        assert out.kind == "witness-sets" and out.stats.iterations == 400
        checks = []  # (first hop rejected, what ran after it)
        for name, result in events:
            if name == "first hop":
                checks.append((result, []))
            else:
                checks[-1][1].append(name)
        rejected = [after for leaks, after in checks if leaks]
        passed = [after for leaks, after in checks if not leaks]
        assert len(rejected) > 1 and not any(rejected)
        assert passed and all(after[0] == "graph" and set(after[1:]) == {"sort"}
                              for after in passed)
        assert len(checks) == out.stats.witness_checks

    @settings(max_examples=300, deadline=None)
    @given(_gap_instances())
    def test_boundary_gaps_flag_the_all_pairs_states(self, instance):
        x, thresholds, pumped, high, low = instance
        graph = _graph(x, thresholds, pumped)
        expected = set()
        for label, members in (("high", high), ("low", low)):
            for v in members:
                for u in set(range(len(x))) - members:
                    gap = x[u] - x[v] if label == "high" else x[v] - x[u]
                    if gap < thresholds[v] - 1e-9:
                        expected.add((label, v))
        flagged = set()
        for message in boundary_gap_violations(graph, high, low):
            label, v, u = re.match(r"witness (\w+) set leaks: gap .* from (\d+) to (\d+) ",
                                   message).groups()
            members = high if label == "high" else low
            assert int(u) not in members
            flagged.add((label, int(v)))
        assert flagged == expected


def _first_hop_thresholds(solve, mask, m_plus, eps):
    """Every state's first-hop threshold at solve, as the pump asks for one."""
    return np.array([pump._first_hop_threshold(solve, v, mask, m_plus, eps)
                     for v in range(len(mask))], dtype=np.float64)


class TestFirstHopBounds:
    """The witness check's first hop, decided from the local solve's pure
    bounds before any graph is built."""

    def test_a_rejected_check_has_no_closed_sets(self):
        # random games, potentials, bands, pumped masks and seed sets: every
        # threshold sized from the local solve is at most the graph's, and
        # when the first hop rejects with them, the exact graph's closed-set
        # search finds nothing. Seeds on the wrong side of the pumped
        # boundary are always rejected; with seeds on the right side some
        # checks are rejected, and some pass and find closed sets
        outcomes = Counter()

        @settings(max_examples=300, deadline=None)
        @given(st.integers(0, 2**32 - 1), st.booleans())
        def check(seed, sided):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            g = random_dense_game(rng, n=n, max_actions=3, denominator=int(rng.integers(1, 5)))
            x = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-1, 4)
            if rng.random() < 0.5:
                x *= rng.integers(0, 2, n)  # ties at 0
            eps = 10.0 ** rng.uniform(-2, 12)
            m_plus = float(rng.uniform(-5, 20))
            mask = rng.random(n) < 0.5
            pumped = set(np.flatnonzero(mask).tolist())
            if sided:  # seeds from their own side: its first state and others at random
                top, bottom = ({v for v in side if rng.random() < 0.5} | set(side[:1])
                               for side in (sorted(pumped), sorted(set(range(n)) - pumped)))
            else:
                top, bottom = ({v for v in range(n) if rng.random() < 0.5} for _ in range(2))
            listed = np.flatnonzero(rng.random(n) < 0.7)  # the bounds cover every state
            solve = local_solve(g, x, listed)
            lower = _first_hop_thresholds(solve, mask, m_plus, eps)
            # an index array's thresholds in one call are the states' own
            assert pump._first_hop_threshold(solve, np.arange(n), mask, m_plus,
                                             eps).tobytes() == lower.tobytes()
            graph = auxiliary_graph(g, x, mask, m_plus, eps)
            assert (lower <= graph.thresholds).all()
            leaks = pump._first_hop_leaks(graph.x, mask, top, bottom, lower.item)
            closed = find_closed_sets(graph, top, bottom)
            if leaks:
                assert closed is None
            if not top <= pumped or bottom & pumped:
                assert leaks
            if top and bottom and sided:
                outcomes[leaks, closed is not None] += 1

        check()
        assert {(True, False), (False, True)} <= set(outcomes)

    def test_payoff_bounds_are_at_least_the_pure_minimax(self):
        # random games, potentials, pumped masks and listed sets: bit for bit,
        # every pumped state's r_bounds bound is at least the screen's pure
        # minimax, so a payoff-bound check the minimax passes passes under
        # r_bounds too, and the pump decides it without r_bounds. Local values
        # sit a few BAND_SLACK either side of both, so checks of each outcome
        # are drawn
        outcomes = Counter()
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * pump.BAND_SLACK

        @settings(max_examples=300, deadline=None)
        @given(st.integers(0, 2**32 - 1))
        def check(seed):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            g = random_dense_game(rng, n=n, max_actions=3, denominator=int(rng.integers(1, 5)))
            x = rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-1, 4)
            if rng.random() < 0.5:
                x *= rng.integers(0, 2, n)  # ties at 0
            m_plus = float(rng.uniform(-5, 20))
            mask = rng.random(n) < 0.5
            listed = np.flatnonzero(rng.random(n) < 0.7)  # the minimax covers every state
            minimax = local_solve(g, x, listed).minimax
            bounds = r_bounds(g, x, mask, m_plus)
            assert (bounds[mask] >= minimax[mask]).all()
            near = np.where(rng.random(n) < 0.5, minimax, bounds)
            m = near + rng.choice(offsets, n)
            screened = pump._payoff_bound_failures(minimax, mask, m)
            failing = pump._payoff_bound_failures(bounds, mask, m)
            assert set(failing) <= set(screened)
            outcomes[bool(screened.size), bool(failing.size)] += 1

        check()
        assert set(outcomes) == {(False, False), (True, False), (True, True)}

    def test_payoff_bound_runs_at_a_check_the_bounds_reject(self, monkeypatch):
        # the first hop rejects the checks of steps 0 and 1 on
        # disconnected(0, 10), so no graph is built there, and each landed
        # step still decides its payoff bound. With r_bounds 100 below the
        # local values, the screen's minimax, at the local values, decides
        # both without calling it
        g = disconnected(0.0, 10.0)
        entry = local_solve(g, np.zeros(2))
        mask = np.array([False, True])
        lower = _first_hop_thresholds(entry, mask, 10.0, 0.1)
        assert pump._first_hop_leaks(entry.x, mask, {1}, {0}, lower.item)
        original = pump.r_bounds
        monkeypatch.setattr(pump, "r_bounds", lambda *args: original(*args) - 100.0)
        calls = count_calls(monkeypatch, ("auxiliary_graph", "r_bounds"))
        outcome = modified_pump(g, entry, 0.0, 10.0, eps=0.1, cap=1)
        assert (outcome.kind, outcome.stats.iterations, outcome.stats.witness_checks) == (
            "cap-exceeded", 1, 2)
        assert calls == {}
        # step 0 is the caller's solve: with state 1's minimax below its local
        # value by more than BAND_SLACK the screen leaves the check open, and
        # the step falls back to one r_bounds call, which breaks the bound
        open_screen = entry._replace(minimax=entry.minimax - [0.0, 2 * pump.BAND_SLACK])
        with pytest.raises(pump.PumpInvariantError,
                           match=r"iteration 0: payoff bound -90\.0 at pumped state 1 "):
            modified_pump(g, open_screen, 0.0, 10.0, eps=0.1, cap=1000)
        assert calls == {"r_bounds": 1}

    @pytest.mark.parametrize("leak", ["1e-300", "1e-400"])
    def test_thresholds_follow_the_graph_past_the_float_range(self, leak):
        # leaky_pair's W is 1/leak. The first hop sizes thresholds by the
        # graph's rule: the pumped top state's zero bound keeps a zero
        # threshold, so it has no arc, and the bottom state's saturates as
        # the graph's does, so it reaches the top state
        g = leaky_pair(leak)
        mask = np.array([True, False])
        solve = local_solve(g, np.zeros(2))
        lower = _first_hop_thresholds(solve, mask, 12.0, 0.05)
        graph = auxiliary_graph(g, np.zeros(2), mask, 12.0, eps=0.05)
        assert lower.tobytes() == graph.thresholds.tobytes()
        bulk = pump._first_hop_threshold(solve, np.arange(2), mask, 12.0, 0.05)
        assert bulk.tobytes() == lower.tobytes()
        assert not pump._first_hop_leaks(graph.x, mask, {0}, set(), lower.item)
        assert pump._first_hop_leaks(graph.x, mask, {0}, {1}, lower.item)


    def test_thresholds_past_the_float_range_saturate_silently(self):
        # absorbing states whose payoff bounds are 0 or 1e200, whose square
        # passes the float range: every such threshold is inf, without an
        # overflow warning, in the graph, in a seed's own threshold and in a
        # side's bulk call, and both first-hop forms decide as the graph's
        # closures do. The first seed of each side has a zero bound, so the
        # numpy form reaches its bulk call
        g = make_game([f"s{v}" for v in range(4)], [["a"]] * 4, [["b"]] * 4,
                      [(v, 0, 0, v, 1, r) for v, r in enumerate([0.0, -1e200, 0.0, 1e200])])
        x, mask, m_plus, eps = np.zeros(4), np.array([False, False, True, True]), 0.0, 0.05
        solve = local_solve(g, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = auxiliary_graph(g, x, mask, m_plus, eps)
            lower = pump._first_hop_threshold(solve, np.arange(4), mask, m_plus, eps)
            assert graph.thresholds.tolist() == lower.tolist() == [0.0, np.inf, 0.0, np.inf]
            for top, bottom in (({2, 3}, {0}), ({2}, {0, 1}), ({2}, {0})):
                top, bottom = frozenset(top), frozenset(bottom)
                assert (next(iter(top)), next(iter(bottom))) == (2, 0)
                forms = on_both_forms(lambda: pump._first_hop_leaks(
                    x, mask, top, bottom,
                    lambda v: pump._first_hop_threshold(solve, v, mask, m_plus, eps)), 4)
                closed = find_closed_sets(graph, top, bottom)
                assert forms == [closed is None] * 2
                assert (closed is None) == (len(top | bottom) == 3)


def test_witness_check_memory_is_linear():
    # a dense boolean arc matrix alone would take n^2 bytes, 16 MB at n = 4096
    g = random_game(4096, max_actions=1, seed=0)
    x = np.zeros(g.n)
    m = local_values(g, x)
    part = partition(m, float(np.min(m)), float(np.max(m)))
    tracemalloc.start()
    try:
        graph = auxiliary_graph(g, x, part.pumped, part.m_plus, eps=0.05)
        find_closed_sets(graph, part.top, part.bottom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


class TestModifiedPump:
    def test_single_state_collapses_immediately(self):
        g = one_state()
        out = modified_pump(g, local_solve(g, np.zeros(1)), 5.0, 5.0, eps=0.1, cap=10)
        assert out.kind == "band-collapsed"
        assert out.stats.iterations == 0

    def test_disconnected_witness_after_400_steps(self):
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 10.0, eps=0.1, cap=1000)
        assert out.kind == "witness-sets"
        assert out.closed == ({1}, {0})
        # gap must reach 1*1*10^2/0.1 = 1000 at 2.5 per pump
        assert out.stats.iterations == 400
        assert out.solve.x[0] - out.solve.x[1] == pytest.approx(1000.0)

    def test_two_cycle_collapse_shrinks_band(self):
        g = two_cycle(0.0, 4.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 4.0, eps=0.05, cap=100)
        assert out.kind == "band-collapsed"
        finite = out.solve.values[np.isfinite(out.solve.values)]
        assert np.ptp(finite) <= 3.0 * (1 + 1e-9)

    def test_cap_exceeded_is_distinct_outcome(self):
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 10.0, eps=0.1, cap=5)
        assert out.kind == "cap-exceeded"
        assert out.stats.iterations == 5

    @pytest.mark.parametrize("field, bad", [
        ("values", np.zeros(3)), ("values", np.zeros((2, 1))), ("values", np.array([0.0, np.inf])),
        ("values", np.array([-np.inf, np.nan])), ("values", np.full(2, np.nan)),
        ("x", np.zeros(3)), ("x", np.array([0.0, np.inf])),
    ], ids=["wrong length", "wrong shape", "infinite", "minus infinite", "no state",
            "potential of the wrong length", "infinite potential"])
    def test_bad_entry_values_rejected(self, field, bad):
        g = disconnected(0.0, 10.0)
        entry = local_solve(g, np.zeros(2))._replace(**{field: bad})
        with pytest.raises(ValueError, match="entry values|potential"):
            modified_pump(g, entry, 0.0, 10.0, eps=0.1, cap=10)

    @pytest.mark.parametrize("kind, m_values, collapsed", [
        ("band-collapsed", [0.0, 1.5], "top"),
        ("band-collapsed", [2.0, 4.0], "bottom"),
        ("band-collapsed", [2.0, 2.0], "both"),
        ("witness-sets", [0.0, 4.0], None),
        ("cap-exceeded", [0.0, 4.0], None),
    ])
    def test_collapsed_reads_the_emptied_band(self, kind, m_values, collapsed):
        g = disconnected(0.0, 10.0)
        out = PumpOutcome(kind=kind, solve=local_solve(g, np.zeros(2)),
                          bands=partition(m_values, 0.0, 4.0), closed=None, stats=PumpStats())
        assert out.collapsed == collapsed

    def test_outside_states_untouched(self):
        g = disconnected(0.0, 10.0)
        out = modified_pump(g, local_solve(g, np.array([7.0, 3.0]), [1]), 5.0, 10.0, eps=0.1,
                            cap=50)
        assert out.solve.x[0] == 7.0

    def test_trace_records(self):
        g = two_cycle(0.0, 4.0)
        out = modified_pump(g, local_solve(g, np.zeros(2)), 0.0, 4.0, eps=0.05, cap=100,
                            collect_trace=True)
        assert out.stats.trace
        first = out.stats.trace[0]
        assert set(first) == {"tau", "m_min", "m_max", "top", "bottom", "pumped",
                              "potential_hash"}

    def test_invariants_hold_on_random_instances(self):
        rng = np.random.default_rng(31)
        for seed in range(6):
            g = random_dense_game(rng, n=3, max_actions=2)
            entry = local_solve(g, np.zeros(3))
            m = entry.values
            out = modified_pump(g, entry, float(np.min(m)), float(np.max(m)), eps=0.05, cap=500)
            assert out.kind in ("band-collapsed", "witness-sets", "cap-exceeded")

    def test_plain_repeated_pumping_harness(self):
        # repeated pumping as a harness: on an ergodic game no witness
        # appears, and re-banding after every collapse keeps shrinking it
        g = two_cycle(0.0, 4.0)
        x = np.zeros(2)
        width = 4.0
        for _ in range(12):
            entry = local_solve(g, x)
            lo, hi = float(np.min(entry.values)), float(np.max(entry.values))
            if hi - lo <= 0.05:
                break
            out = modified_pump(g, entry, lo, hi, eps=0.05, cap=1000)
            assert out.kind == "band-collapsed"
            x = out.solve.x
            finite = out.solve.values[np.isfinite(out.solve.values)]
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
        mass_out = max_mass_into(g, [u for u in range(4) if u not in subset])
        mass_in = max_mass_into(g, subset)
        for v in range(4):
            if v in subset:
                assert after[v] <= before[v] + 1e-9
                assert after[v] >= before[v] - delta * mass_out[v] - 1e-9
            else:
                assert after[v] >= before[v] - 1e-9
                assert after[v] <= before[v] + delta * mass_in[v] + 1e-9


def _corpus_game(seed):
    """The acceptance corpus's random instance for `seed`."""
    return random_game(n=2 + seed % 4, max_actions=1 + seed % 3,
                       granularity=1 + seed % 8, reward_bound=8.0, seed=seed)


def _pump_and_reference(game, entry, m_minus, m_plus, eps, cap, **kwargs):
    """modified_pump and the single-step reference on the same call; both must
    agree bitwise on every result. The reference solves its own step 0 at
    entry.x over the states where entry.values is not NaN."""
    out = modified_pump(game, entry, m_minus, m_plus, eps, cap, **kwargs)
    states = np.flatnonzero(~np.isnan(entry.values))
    ref = reference.single_step_pump(game, entry.x, states, m_minus, m_plus, eps, cap)
    assert out.kind == ref.kind
    assert out.stats.iterations == ref.iterations
    assert np.array_equal(out.stats.pump_counts, ref.pump_counts)
    assert out.closed == ref.closed
    assert out.solve.x.tobytes() == ref.x.tobytes()
    assert out.solve.values.tobytes() == ref.m_values.tobytes()
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

    @pytest.mark.parametrize("seed", [32, 51, 160, 169, 184])
    def test_every_pump_starts_from_the_values_at_its_potential(self, monkeypatch, seed):
        # phase 1 pumps all states from the loop's potential, phase 2 the high
        # set from the first phase's last potential; after a high-set collapse
        # (seed 32 only) the loop measures all states again
        phases, outcomes = [], []

        def checked(game, entry, *args, **kwargs):
            if outcomes and outcomes[-1].kind == "witness-sets":
                phases.append(2)
                states = sorted(outcomes[-1].closed[0])
                assert entry.x.tobytes() == outcomes[-1].solve.x.tobytes()
            else:
                phases.append(1)
                states = list(range(game.n))
            assert np.flatnonzero(~np.isnan(entry.values)).tolist() == states
            assert (entry.values[states].tobytes()
                    == local_values(game, entry.x, states)[states].tobytes())
            outcomes.append(modified_pump(game, entry, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(driver, "modified_pump", checked)
        verdict, _ = decide_ergodicity(_corpus_game(seed), 0.05)
        assert verdict.kind != "inconclusive"
        assert ((2, 1) in zip(phases, phases[1:])) == (seed == 32)

    @pytest.mark.parametrize("cap", [1000, 137])
    def test_disconnected(self, cap):
        g = disconnected(0.0, 10.0)
        out = _pump_and_reference(g, local_solve(g, np.zeros(2)), 0.0, 10.0, 0.1, cap)
        assert out.stats.iterations == min(cap, 400)

    def test_random_dense_games(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_dense_game(rng, n=n, max_actions=3)
            entry = local_solve(g, np.zeros(n))
            _pump_and_reference(g, entry, float(np.min(entry.values)),
                                float(np.max(entry.values)), 0.05, 500)


def test_local_value_evaluations_grow_slower_than_steps(monkeypatch):
    evaluations = []
    original = pump.local_solve

    def counted(*args, **kwargs):
        evaluations[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pump, "local_solve", counted)
    steps = []
    for eps in (0.05, 0.0025):
        evaluations.append(0)
        _, stats = decide_ergodicity(_corpus_game(184), eps)
        steps.append(sum(record[phase]["iterations"] for record in stats.phases
                         for phase in ("phase1", "phase2") if phase in record))
    assert steps[1] >= 15 * steps[0]
    assert evaluations[1] < 2 * evaluations[0]


@pytest.mark.parametrize("seed, partitions, checks, graphs", [
    pytest.param(32, 33, 30, 17, id="32-33-30"),
    pytest.param(51, 28, 27, 7, id="51-28-27"),
    pytest.param(151, 232, 203, 0, id="151-232-203"),
    pytest.param(169, 29, 28, 13, id="169-29-28")])
def test_traced_functions_run_once_per_band_and_graph(monkeypatch, seed, partitions, checks,
                                                      graphs):
    # the pump calls these by their module names, where the benchmark's
    # per-layer trace wraps them: one partition per evaluated step, one
    # first-hop test per witness check, and per graph one payoff-bound
    # computation and one closed-set search; the screen's minimax decides
    # every payoff-bound check without a graph, so r_bounds runs for none
    calls = count_calls(monkeypatch, ("partition", "_first_hop_leaks", "auxiliary_graph",
                                      "r_bounds", "find_closed_sets"))
    decide_ergodicity(_corpus_game(seed), 0.05)
    assert calls == Counter(partition=partitions, _first_hop_leaks=checks,
                            auxiliary_graph=graphs, r_bounds=graphs, find_closed_sets=graphs)
