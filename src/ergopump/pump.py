"""Potential pumping: the inner loop that drives local values together.

Each pump step splits the working states into bands by local value against a
fixed value band [m_minus, m_plus], stops when the top or bottom band
empties, otherwise tries to extract a pair of closed witness sets from an
auxiliary potential-gap graph, and failing that lowers the potentials of the
upper half (the pumped set) by a fixed step delta = (m_plus - m_minus) / 4.

The potential is held as x = x_entry - delta * counts with integer per-state
pump counts, so a jump of k steps that pump one set gives bitwise the same
potential as k single steps. The loop is event-driven: from each landed step
it finds the first later step at which the band partition changes, the
witness check succeeds, or the step cap is reached, by probing 1, 2, 4, ...
steps ahead and then bisecting, and lands there directly. Skipping the steps
in between is safe by the pump lemma: while the pumped set S stays fixed,
the local value of a state in S is non-increasing in the number of steps and
that of a state outside S non-decreasing, so a band change, once it has
happened, persists. Potential gaps across S only grow and the payoff bounds
that size the gap thresholds only shrink, so arcs of the gap graph only
disappear and a successful witness check stays successful. Both events are
thus monotone in the number of steps, which is what the bisection needs.

Each evaluated step is one matrix_game.LocalSolve, and the outcome carries
the last one, so a caller that certifies the pump's last potential takes
the strategies from it instead of solving those games again. The witness
check rejects most steps at their first hop (find_closed_sets), before it
sorts the potential.

Band monotonicity, the drift bound (at most k*delta over a jump of k steps,
in the direction the pumped set dictates), the payoff bound and the boundary
gaps of witness sets are asserted at every landed step; a violation raises
PumpInvariantError since it would invalidate any certificate built
downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import GameParams, GameSpec, Potential, as_potential, game_params, local_payoffs
from .matrix_game import LocalSolve, local_solve

BAND_SLACK = 1e-9


class PumpInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class BandPartition:
    """States split by local value: top/bottom quartile bands and the pumped upper half."""

    m_minus: float
    m_plus: float
    delta: float
    top: frozenset  # local value >= m_minus + 3*delta
    bottom: frozenset  # local value < m_minus + delta
    middle: frozenset
    pumped: frozenset  # local value >= m_minus + 2*delta


@dataclass(frozen=True)
class RBounds:
    """Per-state bound on the potential-adjusted payoff magnitude.

    For pumped states the bound comes from the sums over non-negative
    potential differences (upper side); for the rest from the reflected
    non-positive sums.
    """

    values: np.ndarray
    upper_side: np.ndarray  # bool per state


@dataclass
class PumpStats:
    iterations: int = 0
    pump_counts: np.ndarray | None = None
    witness_checks: int = 0
    local_games: int = 0  # local games settled: the phase's states, per evaluated step
    trace: list | None = None


@dataclass(frozen=True)
class PumpOutcome:
    """Result of one pump run.

    kind is "band-collapsed" (top or bottom band emptied: the value band
    shrank), "witness-sets" (closed high/low sets found), or "cap-exceeded".
    solve is the local solve that measured m_values at x, or None when the
    pump stopped at its entry step, whose values are the caller's m0.
    """

    kind: str
    x: Potential
    collapsed: str | None
    closed_high: frozenset | None  # I: contains the top band, inside pumped
    closed_low: frozenset | None  # F: contains the bottom band, outside pumped
    m_values: np.ndarray
    bands: BandPartition
    stats: PumpStats
    solve: LocalSolve | None


def partition(m_values, m_minus: float, m_plus: float) -> BandPartition:
    """Threshold the local values into bands, with a fixed slack; NaN and infinite
    entries join none."""
    m_values = np.asarray(m_values, dtype=np.float64)
    finite = np.isfinite(m_values)
    delta = (m_plus - m_minus) / 4.0
    t1 = m_minus + delta - BAND_SLACK
    t2 = m_minus + 2 * delta - BAND_SLACK
    t3 = m_minus + 3 * delta - BAND_SLACK
    top, bottom = finite & (m_values >= t3), finite & (m_values < t1)

    def members(mask):
        return frozenset(mask.nonzero()[0].tolist())

    return BandPartition(
        m_minus=m_minus, m_plus=m_plus, delta=delta,
        top=members(top), bottom=members(bottom), middle=members(finite & ~top & ~bottom),
        pumped=members(finite & (m_values >= t2)),
    )


def _state_mask(n: int, states) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(states)] = True
    return mask


def r_bounds(game: GameSpec, x: Potential, pumped, m_plus: float) -> RBounds:
    """Payoff-magnitude bounds used to size the potential-gap thresholds.

    A pumped state's bound is its largest sum_u p*(r + max(x[v] - x[u], 0));
    any other state's is its largest m_plus - sum_u p*(r + min(x[v] - x[u], 0)).
    """
    x = as_potential(x, game.n)
    flat = game.flat
    upper = _state_mask(game.n, pumped)
    x_from, x_to = x[flat.rec_state], x[flat.rec_to]
    # x[v] - min(x[u], x[v]) is the positive part of x[v] - x[u], x[v] - max(...) the negative
    successor = np.where(upper[flat.rec_state], np.minimum(x_to, x_from),
                         np.maximum(x_to, x_from))
    payoffs = local_payoffs(game, x, successor)
    per_slot = np.where(upper[flat.slot_state], payoffs, m_plus - payoffs)
    return RBounds(values=np.maximum.reduceat(per_slot, flat.first_slot[:-1]), upper_side=upper)


def gap_thresholds(game: GameSpec, rb: RBounds, eps: float, granularity: int) -> np.ndarray:
    """Per-state potential-gap threshold |L^v| (pumped v) or |K^v| times W * R_v^2 / eps."""
    width = np.where(rb.upper_side, game.flat.col_count, game.flat.row_count)
    return width * float(granularity) * rb.values ** 2 / eps


@dataclass(frozen=True)
class GapGraph:
    """The potential-gap graph in O(n) memory.

    For u != v there is an arc v -> u when x[u] - x[v] < thresholds[v] for a
    pumped v, and when x[v] - x[u] < thresholds[v] otherwise; arcs are
    defined by gaps alone, regardless of the transition structure. Float
    subtraction is monotone, so in the ascending-x order a pumped state's
    out-neighbours form a prefix and any other state's a suffix, ties
    included. The sorted order is computed on first use, by a closure.
    """

    x: np.ndarray
    thresholds: np.ndarray
    pumped: np.ndarray  # bool per state

    @cached_property
    def order(self) -> np.ndarray:
        """States by ascending x, ties by index."""
        return np.argsort(self.x, kind="stable")


def auxiliary_graph(
    game: GameSpec, x: Potential, rb: RBounds, eps: float, granularity: int | None = None,
) -> GapGraph:
    """The potential-gap graph at x; the pumped set is the one rb was bounded for."""
    x = as_potential(x, game.n)
    if granularity is None:
        granularity = game_params(game).granularity
    return GapGraph(x=x, thresholds=gap_thresholds(game, rb, eps, granularity),
                    pumped=rb.upper_side)


def forward_closure(graph: GapGraph, seeds) -> frozenset:
    """Every state reachable from `seeds` in the gap graph, seeds included.

    Out-neighbours are prefixes and suffixes of the sorted order, so the
    closure is its seeds plus the longest prefix and the longest suffix its
    members reach: a prefix pointer and a suffix pointer that only grow,
    compared with the same float expressions that define the arcs. Each
    sorted position is passed at most twice and each state joins once, so
    after the sort a closure costs O(n).
    """
    x, t, up = graph.x.tolist(), graph.thresholds.tolist(), graph.pumped.tolist()
    order = graph.order.tolist()
    xs = [x[u] for u in order]
    seen = set(seeds)
    queue = list(seen)
    head, tail = 0, len(xs)  # order[:head] and order[tail:] are in the closure
    while queue:
        v = queue.pop()
        if up[v]:
            stop = head
            while stop < len(xs) and xs[stop] - x[v] < t[v]:
                stop += 1
            reached, head = order[head:stop], stop
        else:
            start = tail
            while start > 0 and x[v] - xs[start - 1] < t[v]:
                start -= 1
            reached, tail = order[start:tail], start
        for u in reached:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return frozenset(seen)


def _leaks_at_first_hop(graph: GapGraph, top, pumped, bottom) -> bool:
    """Whether a top state lies outside `pumped` or has an arc out of it, or a
    bottom state lies inside it or has an arc into it.

    Either rules the closed sets out. A state's out-neighbours are a prefix
    or a suffix of the ascending-x order, so it has an arc into a set of
    states exactly when it has one to the set's state of least x (prefix)
    or of greatest x (suffix): one comparison per seed, and no sort. Plain
    Python lists: the witness checks of small games would spend longer in
    numpy's per-call overhead than in the comparisons.
    """
    x, t, up = graph.x.tolist(), graph.thresholds.tolist(), graph.pumped.tolist()
    pumped = frozenset(pumped)
    outside = [x[u] for u in range(len(x)) if u not in pumped]
    inside = [x[u] for u in pumped]
    for seeds, across, misplaced in ((top, outside, not pumped.issuperset(top)),
                                     (bottom, inside, not pumped.isdisjoint(bottom))):
        if not across:
            continue
        if misplaced:
            return True
        lowest, highest = min(across), max(across)
        if any(lowest - x[v] < t[v] if up[v] else x[v] - highest < t[v] for v in seeds):
            return True
    return False


def find_closed_sets(graph: GapGraph, top, pumped, bottom):
    """Minimal closed supersets of the top and bottom bands, if they separate.

    Returns (closed_high, closed_low) when the forward closure of the top
    band stays inside the pumped half and the closure of the bottom band
    stays outside it; otherwise None. A check that fails at its first hop
    (_leaks_at_first_hop) returns None before any closure runs.
    """
    if not top or not bottom or _leaks_at_first_hop(graph, top, pumped, bottom):
        return None
    high = forward_closure(graph, top)
    if not high <= set(pumped):
        return None
    low = forward_closure(graph, bottom)
    if low & set(pumped):
        return None
    return high, low


def _potential_hash(x: np.ndarray) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()[:16]


def _check_step_invariants(tau, prev_m, m, pumped, delta, steps):
    """Value drift over a jump of `steps` steps that pumped the states where
    `pumped` is nonzero: bounded, and signed by the pumped set. States
    outside the phase, NaN in both value vectors, never fail."""
    drift = m - prev_m
    too_far = np.abs(drift) > steps * delta + BAND_SLACK
    wrong_way = np.where(pumped, drift, -drift) > BAND_SLACK
    failing = (too_far | wrong_way).nonzero()[0]
    if not failing.size:
        return
    v = failing[0]  # the first failing state, and its first failing condition
    if too_far[v]:
        raise PumpInvariantError(
            f"iteration {tau}: local value at state {v} moved by {drift[v]}, "
            f"more than {steps} pump steps of {delta}"
        )
    if pumped[v]:
        raise PumpInvariantError(
            f"iteration {tau}: pumped state {v} increased its local value by {drift[v]}"
        )
    raise PumpInvariantError(
        f"iteration {tau}: unpumped state {v} decreased its local value by {drift[v]}"
    )


def _check_band_monotonicity(tau, prev_part, part):
    if not part.top <= prev_part.top:
        raise PumpInvariantError(f"iteration {tau}: top band gained states")
    if not part.bottom <= prev_part.bottom:
        raise PumpInvariantError(f"iteration {tau}: bottom band gained states")


@dataclass
class _Step:
    """One evaluated pump step; the witness check runs at most once, on demand."""

    x: np.ndarray
    m: np.ndarray
    part: BandPartition
    solve: LocalSolve | None  # None at the entry step, valued by the caller
    rb: RBounds | None = None
    graph: GapGraph | None = None
    closed: tuple | None = None


def modified_pump(
    game: GameSpec,
    x0: Potential,
    m0,
    m_minus: float,
    m_plus: float,
    eps: float,
    cap: int,
    *,
    params: GameParams | None = None,
    collect_trace: bool = False,
) -> PumpOutcome:
    """Pump the upper half of the states where the caller's local values m0 at
    x0 are not NaN until a band empties, witness sets appear, or the cap is hit.

    m0 is step 0, not solved again; the band [m_minus, m_plus] and the step
    delta are fixed at entry, and potentials outside the phase never change.
    The loop lands only on steps where something can change (see the module
    docstring): while the pumped set is fixed, local values move monotonically
    and gap-graph arcs only disappear, so the first step at which the bands
    change or the witness check succeeds is found by doubling and bisection
    over the step count. Every landed step, and stats.iterations, are exactly
    those that single steps would reach; stats.pump_counts holds the
    per-state step counts that define the potential, and the trace has one
    record per landed step. The outcome carries the landed step's local
    solve.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    m0 = np.array(m0, dtype=np.float64)
    if m0.shape != (game.n,) or np.isinf(m0).any() or np.isnan(m0).all():
        raise ValueError("m0 needs n entries, none infinite and not all NaN")
    if params is None:
        params = game_params(game)
    x_entry = as_potential(x0, game.n).copy()
    state_list = np.flatnonzero(~np.isnan(m0)).tolist()
    delta = (m_plus - m_minus) / 4.0

    stats = PumpStats(
        pump_counts=np.zeros(game.n, dtype=np.int64),
        trace=[] if collect_trace else None,
    )
    counts = stats.pump_counts

    def evaluate(step_counts) -> _Step:
        x = x_entry - delta * step_counts
        solve = local_solve(game, x, state_list)
        stats.local_games += len(state_list)
        return _Step(x=x, m=solve.values, part=partition(solve.values, m_minus, m_plus),
                     solve=solve)

    def witness(step: _Step):
        if step.rb is None:
            step.rb = r_bounds(game, step.x, step.part.pumped, m_plus)
            step.graph = auxiliary_graph(game, step.x, step.rb, eps,
                                         granularity=params.granularity)
            stats.witness_checks += 1
            step.closed = find_closed_sets(step.graph, step.part.top, step.part.pumped,
                                           step.part.bottom)
        return step.closed

    here = _Step(x=x_entry, m=m0, part=partition(m0, m_minus, m_plus), solve=None)
    prev = None
    jump = 0
    tau = 0
    while True:
        x, m, part = here.x, here.m, here.part
        if prev is not None:  # the jump from prev pumped the states where `pumped` is 1
            _check_step_invariants(tau, prev.m, m, pumped, delta, jump)
            _check_band_monotonicity(tau, prev.part, part)
        if stats.trace is not None:
            finite = m[state_list]
            stats.trace.append({
                "tau": tau,
                "m_min": float(np.min(finite)),
                "m_max": float(np.max(finite)),
                "top": len(part.top),
                "bottom": len(part.bottom),
                "pumped": len(part.pumped),
                "potential_hash": _potential_hash(x),
            })
        if not part.top or not part.bottom:
            collapsed = "both" if not part.top and not part.bottom else (
                "top" if not part.top else "bottom")
            stats.iterations = tau
            return PumpOutcome(
                kind="band-collapsed", x=x, collapsed=collapsed,
                closed_high=None, closed_low=None, m_values=m, bands=part, stats=stats,
                solve=here.solve,
            )
        closed = witness(here)
        if m_plus - m_minus > eps:
            below = np.flatnonzero(here.graph.pumped & (here.rb.values < m - BAND_SLACK))
            if below.size:
                v = below[0]
                raise PumpInvariantError(
                    f"iteration {tau}: payoff bound {here.rb.values[v]} at pumped "
                    f"state {v} fell below its local value {m[v]}"
                )
        if closed is not None:
            high, low = closed
            leaks = boundary_gap_violations(here.graph, high, low)
            if leaks:
                raise PumpInvariantError(f"iteration {tau}: " + "; ".join(leaks))
            stats.iterations = tau
            return PumpOutcome(
                kind="witness-sets", x=x, collapsed=None,
                closed_high=high, closed_low=low, m_values=m, bands=part,
                stats=stats, solve=here.solve,
            )
        if tau >= cap:
            stats.iterations = tau
            return PumpOutcome(
                kind="cap-exceeded", x=x, collapsed=None,
                closed_high=None, closed_low=None, m_values=m, bands=part, stats=stats,
                solve=here.solve,
            )

        # Find the first k >= 1 steps ahead, pumping this partition's upper
        # half, at which the partition differs, the witness check succeeds or
        # the cap is reached. No event at k = lo; an event at k = hi.
        pumped = np.zeros(game.n, dtype=np.int64)
        pumped[sorted(part.pumped)] = 1
        limit = cap - tau
        probes = {}

        def event(k):
            step = probes[k] = evaluate(counts + k * pumped)
            return k == limit or step.part != part or witness(step) is not None

        lo, hi = 0, 1
        while not event(hi):
            lo, hi = hi, min(2 * hi, limit)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if event(mid):
                hi = mid
            else:
                lo = mid
        counts += hi * pumped
        tau += hi
        jump = hi
        prev, here = here, probes[hi]


def boundary_gap_violations(graph: GapGraph, high, low) -> tuple:
    """Boundary gaps of the closed sets that fall short of their thresholds.

    Every potential gap from a high state to a state outside the high set,
    and from a low state to a state outside the low set, must reach that
    state's gap threshold. The smallest gap out of a high state is the one
    to the outside state of least potential, and out of a low state the one
    to the outside state of greatest potential, so only those are checked;
    returns one message per state whose gap falls short, naming that state.
    """
    x, thresholds = graph.x, graph.thresholds
    problems = []
    for label, members, pick in (("high", high, np.argmin), ("low", low, np.argmax)):
        inside = _state_mask(len(x), members)
        outside = np.flatnonzero(~inside)
        if not outside.size:
            continue
        u = outside[pick(x[outside])]
        states = np.flatnonzero(inside)
        gaps = x[u] - x[states] if label == "high" else x[states] - x[u]
        short = gaps < thresholds[states] - BAND_SLACK
        problems.extend(
            f"witness {label} set leaks: gap {gap} from {v} to {u} "
            f"is below threshold {thresholds[v]}"
            for v, gap in zip(states[short], gaps[short])
        )
    return tuple(problems)
