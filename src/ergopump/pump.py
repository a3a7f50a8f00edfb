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

Band monotonicity, the drift bound (at most k*delta over a jump of k steps,
in the direction the pumped set dictates), the payoff bound and the boundary
gaps of witness sets are asserted at every landed step; a violation raises
PumpInvariantError since it would invalidate any certificate built
downstream.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .game import GameParams, GameSpec, Potential, as_potential, game_params
from .matrix_game import local_values

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
    cap: int = 0
    delta: float = 0.0
    pump_counts: np.ndarray | None = None
    witness_checks: int = 0
    trace: list | None = None


@dataclass(frozen=True)
class PumpOutcome:
    """Result of one pump run.

    kind is "band-collapsed" (top or bottom band emptied: the value band
    shrank), "witness-sets" (closed high/low sets found), or "cap-exceeded".
    """

    kind: str
    x: Potential
    collapsed: str | None
    closed_high: frozenset | None  # I: contains the top band, inside pumped
    closed_low: frozenset | None  # F: contains the bottom band, outside pumped
    m_values: np.ndarray
    bands: BandPartition
    stats: PumpStats


def partition(m_values, m_minus: float, m_plus: float, states=None) -> BandPartition:
    """Threshold the local values into bands; comparisons carry a fixed slack."""
    m_values = np.asarray(m_values, dtype=np.float64)
    if states is None:
        states = [v for v in range(len(m_values)) if np.isfinite(m_values[v])]
    delta = (m_plus - m_minus) / 4.0
    t1 = m_minus + delta - BAND_SLACK
    t2 = m_minus + 2 * delta - BAND_SLACK
    t3 = m_minus + 3 * delta - BAND_SLACK
    top = frozenset(v for v in states if m_values[v] >= t3)
    bottom = frozenset(v for v in states if m_values[v] < t1)
    pumped = frozenset(v for v in states if m_values[v] >= t2)
    middle = frozenset(states) - top - bottom
    return BandPartition(
        m_minus=m_minus, m_plus=m_plus, delta=delta,
        top=top, bottom=bottom, middle=middle, pumped=pumped,
    )


def r_bounds(game: GameSpec, x: Potential, pumped, m_plus: float) -> RBounds:
    """Payoff-magnitude bounds used to size the potential-gap thresholds."""
    x = as_potential(x, game.n)
    values = np.empty(game.n)
    upper = np.zeros(game.n, dtype=bool)
    for v in range(game.n):
        diffs = x[v] - x
        p = game.prob_array(v)
        e = game.expected_reward(v)
        if v in pumped:
            a_tilde = e + p @ np.maximum(diffs, 0.0)
            values[v] = float(a_tilde.max())
            upper[v] = True
        else:
            b_tilde = m_plus - e - p @ np.minimum(diffs, 0.0)
            values[v] = float(b_tilde.max())
    return RBounds(values=values, upper_side=upper)


def gap_thresholds(game: GameSpec, pumped, rb: RBounds, eps: float, granularity: int) -> np.ndarray:
    """Per-state potential-gap threshold |L^v| or |K^v| times W * R_v^2 / eps."""
    out = np.empty(game.n)
    for v in range(game.n):
        width = game.num_col_actions(v) if v in pumped else game.num_row_actions(v)
        out[v] = width * granularity * rb.values[v] ** 2 / eps
    return out


def auxiliary_graph(
    game: GameSpec, x: Potential, pumped, rb: RBounds, eps: float,
    granularity: int | None = None,
) -> np.ndarray:
    """Boolean arc matrix over all ordered state pairs.

    An arc (v, u) means the potential gap in the direction that matters for v
    is still below its threshold; arcs are defined by gaps alone, regardless
    of the transition structure. Self-loops are excluded.
    """
    x = as_potential(x, game.n)
    if granularity is None:
        granularity = game_params(game).granularity
    thresholds = gap_thresholds(game, pumped, rb, eps, granularity)
    arcs = np.zeros((game.n, game.n), dtype=bool)
    for v in range(game.n):
        if v in pumped:
            arcs[v] = (x - x[v]) < thresholds[v]
        else:
            arcs[v] = (x[v] - x) < thresholds[v]
        arcs[v, v] = False
    return arcs


def _forward_closure(arcs: np.ndarray, seeds) -> frozenset:
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in np.flatnonzero(arcs[v]):
            if u not in seen:
                seen.add(int(u))
                queue.append(int(u))
    return frozenset(seen)


def find_closed_sets(arcs: np.ndarray, top, pumped, bottom):
    """Minimal closed supersets of the top and bottom bands, if they separate.

    Returns (closed_high, closed_low) when the forward closure of the top
    band stays inside the pumped half and the closure of the bottom band
    stays outside it; otherwise None.
    """
    if not top or not bottom:
        return None
    high = _forward_closure(arcs, top)
    if not high <= set(pumped):
        return None
    low = _forward_closure(arcs, bottom)
    if low & set(pumped):
        return None
    return high, low


def _potential_hash(x: np.ndarray) -> str:
    return hashlib.sha256(x.tobytes()).hexdigest()[:16]


def _check_step_invariants(tau, prev_m, m, prev_part, states, delta, steps):
    """Value drift over a jump of `steps` steps: bounded, and signed by the pumped set."""
    bound = steps * delta
    for v in states:
        drift = m[v] - prev_m[v]
        if abs(drift) > bound + 1e-9:
            raise PumpInvariantError(
                f"iteration {tau}: local value at state {v} moved by {drift}, "
                f"more than {steps} pump steps of {delta}"
            )
        if v in prev_part.pumped:
            if drift > 1e-9:
                raise PumpInvariantError(
                    f"iteration {tau}: pumped state {v} increased its local value by {drift}"
                )
        elif drift < -1e-9:
            raise PumpInvariantError(
                f"iteration {tau}: unpumped state {v} decreased its local value by {drift}"
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
    rb: RBounds | None = None
    closed: tuple | None = None


def modified_pump(
    game: GameSpec,
    x0: Potential,
    states,
    m_minus: float,
    m_plus: float,
    eps: float,
    cap: int,
    *,
    tol: float = 1e-9,
    params: GameParams | None = None,
    witness_checks: bool = True,
    collect_trace: bool = False,
) -> PumpOutcome:
    """Pump the upper half of `states` until a band empties, witness sets
    appear, or the iteration cap is hit.

    The band [m_minus, m_plus] and the step delta are fixed at entry;
    potentials outside `states` are never modified. The loop lands only on
    steps where something can change (see the module docstring): while the
    pumped set is fixed, local values move monotonically and gap-graph arcs
    only disappear, so the first step at which the bands change or the
    witness check succeeds is found by doubling and bisection over the step
    count. Every landed step, and stats.iterations, are exactly those that
    single steps would reach; stats.pump_counts holds the per-state step
    counts that define the potential, and the trace has one record per
    landed step.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if params is None:
        params = game_params(game)
    x_entry = as_potential(x0, game.n).copy()
    state_list = sorted(int(v) for v in states)
    delta = (m_plus - m_minus) / 4.0

    stats = PumpStats(
        cap=cap,
        delta=delta,
        pump_counts=np.zeros(game.n, dtype=np.int64),
        trace=[] if collect_trace else None,
    )
    counts = stats.pump_counts

    def evaluate(step_counts) -> _Step:
        x = x_entry - delta * step_counts
        m = local_values(game, x, state_list, tol=tol)
        return _Step(x=x, m=m, part=partition(m, m_minus, m_plus, states=state_list))

    def witness(step: _Step):
        if step.rb is None:
            step.rb = r_bounds(game, step.x, step.part.pumped, m_plus)
            arcs = auxiliary_graph(game, step.x, step.part.pumped, step.rb, eps,
                                   granularity=params.granularity)
            stats.witness_checks += 1
            step.closed = find_closed_sets(arcs, step.part.top, step.part.pumped,
                                           step.part.bottom)
        return step.closed

    here = evaluate(counts)
    prev = None
    jump = 0
    tau = 0
    while True:
        x, m, part = here.x, here.m, here.part
        if prev is not None:
            _check_step_invariants(tau, prev.m, m, prev.part, state_list, delta, jump)
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
            )
        if witness_checks:
            closed = witness(here)
            if m_plus - m_minus > eps:
                for v in part.pumped:
                    if here.rb.values[v] < m[v] - 1e-9:
                        raise PumpInvariantError(
                            f"iteration {tau}: payoff bound {here.rb.values[v]} at pumped "
                            f"state {v} fell below its local value {m[v]}"
                        )
            if closed is not None:
                high, low = closed
                leaks = boundary_gap_violations(game, x, high, low, part.pumped, here.rb,
                                                eps, params.granularity)
                if leaks:
                    raise PumpInvariantError(f"iteration {tau}: " + "; ".join(leaks))
                stats.iterations = tau
                return PumpOutcome(
                    kind="witness-sets", x=x, collapsed=None,
                    closed_high=high, closed_low=low, m_values=m, bands=part,
                    stats=stats,
                )
        if tau >= cap:
            stats.iterations = tau
            return PumpOutcome(
                kind="cap-exceeded", x=x, collapsed=None,
                closed_high=None, closed_low=None, m_values=m, bands=part, stats=stats,
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
            return (k == limit or step.part != part
                    or (witness_checks and witness(step) is not None))

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


def boundary_gap_violations(game, x, high, low, pumped, rb, eps, granularity) -> tuple:
    """Boundary gaps of the closed sets that fall short of their thresholds.

    Every potential gap from a high state to a state outside the high set,
    and from a low state to a state outside the low set, must reach that
    state's gap threshold; returns one message per gap that does not.
    """
    thresholds = gap_thresholds(game, pumped, rb, eps, granularity)
    problems = []
    for v in sorted(high):
        for u in range(game.n):
            if u not in high and x[u] - x[v] < thresholds[v] - 1e-9:
                problems.append(
                    f"witness high set leaks: gap {x[u] - x[v]} from {v} to {u} "
                    f"is below threshold {thresholds[v]}"
                )
    for v in sorted(low):
        for u in range(game.n):
            if u not in low and x[v] - x[u] < thresholds[v] - 1e-9:
                problems.append(
                    f"witness low set leaks: gap {x[v] - x[u]} from {v} to {u} "
                    f"is below threshold {thresholds[v]}"
                )
    return tuple(problems)
