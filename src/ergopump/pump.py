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

The pump steps from LocalSolve to LocalSolve (matrix_game): it enters with
its caller's solve, which holds the entry potential and the local values
there, each evaluated step is one more, and the outcome carries the last
one, so a caller that certifies the pump's last potential takes the
strategies from it instead of solving those games again. A witness check
builds one GapGraph, which keeps the pumped set and the payoff bounds that
size its gap thresholds, and rejects most steps at their first hop
(find_closed_sets), before it sorts the potential.

Band monotonicity, the drift bound (at most k*delta over a jump of k steps,
in the direction the pumped set dictates), the payoff bound and the boundary
gaps of witness sets are asserted at every landed step, and every evaluated
potential must be finite; a violation raises PumpInvariantError since it
would invalidate any certificate built downstream.

What a step costs. On small games (the acceptance corpus has 2 to 5
states) an evaluated step's arrays hold a few dozen entries, so its cost is
the fixed cost of each numpy call and Python call it makes, not arithmetic.
An evaluated step is one local solve and one band partition; a witness
check adds one gap graph, with its payoff bounds, and a closed-set search.
Each is cut to few calls: partition sorts the values into all three bands
in one Python pass; the phase's states go to local_solve as a bool mask
built once per pump; a potential is checked finite once per evaluation and
once per graph (in r_bounds); and the pumped mask is built once per
landed step, by its graph, which keeps it (GapGraph.pumped): r_bounds, the
payoff-bound check, the jump vector, the drift check and the graphs of the
jump's probes, whose partition is the landed step's, all read it.
The pump still calls partition, auxiliary_graph, r_bounds,
find_closed_sets and local_solve by their module names, so a tracer that
wraps those names sees every band and every graph.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .game import GameSpec, Potential, as_potential, local_payoffs, state_mask
from .matrix_game import LocalSolve, local_solve

BAND_SLACK = 1e-9


class PumpInvariantError(RuntimeError):
    pass


class BandPartition(NamedTuple):
    """States split by local value: top/bottom quartile bands and the pumped upper half."""

    m_minus: float
    m_plus: float
    delta: float
    top: frozenset  # local value >= m_minus + 3*delta
    bottom: frozenset  # local value < m_minus + delta
    pumped: frozenset  # local value >= m_minus + 2*delta


class PumpStats:
    """Counters of one pump run; pump_counts holds the per-state step counts
    and trace, when collected, one record per landed step."""

    __slots__ = ("iterations", "pump_counts", "witness_checks", "local_games", "trace")

    def __init__(self, pump_counts: np.ndarray | None = None, trace: list | None = None):
        self.iterations = 0
        self.pump_counts = pump_counts
        self.witness_checks = 0
        self.local_games = 0  # local games settled: the phase's states, per evaluated step
        self.trace = trace


class PumpOutcome(NamedTuple):
    """Result of one pump run.

    kind is "band-collapsed" (top or bottom band emptied: the value band
    shrank), "witness-sets" (closed high/low sets found), or "cap-exceeded".
    solve is the last step's local solve, the entry one if the pump stopped
    where it started, and bands its partition.
    """

    kind: str
    solve: LocalSolve
    bands: BandPartition
    # (I, F): I contains the top band inside pumped, F the bottom band outside it
    closed: tuple | None
    stats: PumpStats

    @property
    def collapsed(self) -> str | None:
        """The band that emptied, "top", "bottom" or "both"; None if neither."""
        top, bottom = not self.bands.top, not self.bands.bottom
        return "both" if top and bottom else "top" if top else "bottom" if bottom else None


def partition(m_values, m_minus: float, m_plus: float) -> BandPartition:
    """Threshold the local values into bands, with a fixed slack; NaN and infinite
    entries join none.

    One pass over the values: each band is tested on its own, so when
    m_plus < m_minus a value can sit in both the bottom band and the pumped
    half.
    """
    delta = (m_plus - m_minus) / 4.0
    t1 = m_minus + delta - BAND_SLACK
    t2 = m_minus + 2 * delta - BAND_SLACK
    t3 = m_minus + 3 * delta - BAND_SLACK
    top, bottom, pumped = [], [], []
    for v, m in enumerate(np.asarray(m_values, dtype=np.float64).tolist()):
        if -math.inf < m < math.inf:
            if m >= t3:
                top.append(v)
            if m < t1:
                bottom.append(v)
            if m >= t2:
                pumped.append(v)
    return BandPartition(m_minus=m_minus, m_plus=m_plus, delta=delta, top=frozenset(top),
                         bottom=frozenset(bottom), pumped=frozenset(pumped))


def r_bounds(game: GameSpec, x: Potential, pumped: np.ndarray, m_plus: float) -> np.ndarray:
    """Per-state payoff-magnitude bounds that size the potential-gap thresholds.

    pumped is a bool per state. A pumped state's bound is its largest
    sum_u p*(r + max(x[v] - x[u], 0)); any other state's is its largest
    m_plus - sum_u p*(r + min(x[v] - x[u], 0)).
    """
    x = as_potential(x, game.n)
    flat = game.flat
    x_from, x_to = x[flat.rec_state], x[flat.rec_to]
    # x[v] - min(x[u], x[v]) is the positive part of x[v] - x[u], x[v] - max(...) the negative
    successor = np.maximum(x_to, x_from)
    np.minimum(x_to, x_from, out=successor, where=pumped[flat.rec_state])
    payoffs = local_payoffs(game, x, successor)
    np.subtract(m_plus, payoffs, out=payoffs, where=~pumped[flat.slot_state])
    return np.maximum.reduceat(payoffs, flat.first_slot[:-1])


class GapGraph(NamedTuple):
    """The potential-gap graph in O(n) memory.

    For u != v there is an arc v -> u when x[u] - x[v] < thresholds[v] for a
    pumped v, and when x[v] - x[u] < thresholds[v] otherwise; arcs are
    defined by gaps alone, regardless of the transition structure. Float
    subtraction is monotone, so in the ascending-x order a pumped state's
    out-neighbours form a prefix and any other state's a suffix, ties
    included; forward_closure sorts the states into that order. bounds are
    the payoff bounds (r_bounds) the thresholds were sized by.
    """

    x: np.ndarray
    bounds: np.ndarray
    thresholds: np.ndarray
    pumped: np.ndarray  # bool per state


def auxiliary_graph(game: GameSpec, x: Potential, pumped, m_plus: float, eps: float) -> GapGraph:
    """The potential-gap graph at x for the pumped states `pumped`.

    pumped is a bool mask per state, which the graph keeps as is, or the
    pumped states' indices. A state's gap threshold is |L^v| (pumped v) or
    |K^v| times W * R_v^2 / eps, with R_v its r_bounds bound and W the
    game's granularity. r_bounds checks x, once per graph.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = game.flat
    mask = state_mask(game.n, pumped)
    bounds = r_bounds(game, x, mask, m_plus)
    width = np.where(mask, flat.col_count, flat.row_count)
    try:
        thresholds = width * float(flat.granularity) * bounds ** 2 / eps
    except OverflowError:  # W beyond the float range: a threshold is 0 or saturates to inf
        thresholds = np.where(bounds == 0, 0.0, math.inf)
    return GapGraph(x=x, bounds=bounds, pumped=mask, thresholds=thresholds)


def forward_closure(graph: GapGraph, seeds) -> frozenset:
    """Every state reachable from `seeds` in the gap graph, seeds included.

    Out-neighbours are prefixes and suffixes of the states sorted by
    ascending x, ties by index, so the closure is its seeds plus the longest
    prefix and the longest suffix its members reach: a prefix pointer and a
    suffix pointer that only grow, compared with the same float expressions
    that define the arcs. Each sorted position is passed at most twice and
    each state joins once, so after the sort a closure costs O(n).
    """
    x, t, up = graph.x.tolist(), graph.thresholds.tolist(), graph.pumped.tolist()
    order = np.argsort(graph.x, kind="stable").tolist()
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


def _leaks_at_first_hop(graph: GapGraph, top, bottom) -> bool:
    """Whether a top state lies outside the pumped set or has an arc out of
    it, or a bottom state lies inside it or has an arc into it.

    Either rules the closed sets out. A state's out-neighbours are a prefix
    or a suffix of the ascending-x order, so it has an arc into a set of
    states exactly when it has one to the set's state of least x (prefix)
    or of greatest x (suffix): one comparison per seed, and no sort. A top
    state can lie outside the pumped set only when some state does, and a
    bottom state inside it only when some state does, so each side is
    tested only when the other side has a state. Plain Python lists: the
    witness checks of small games would spend longer in numpy's per-call
    overhead than in the comparisons.
    """
    x, t, up = graph.x.tolist(), graph.thresholds.tolist(), graph.pumped.tolist()
    outside = [xu for xu, pumped in zip(x, up) if not pumped]
    inside = [xu for xu, pumped in zip(x, up) if pumped]
    if outside:
        lowest = min(outside)
        if any(not up[v] or lowest - x[v] < t[v] for v in top):
            return True
    if inside:
        highest = max(inside)
        if any(up[v] or x[v] - highest < t[v] for v in bottom):
            return True
    return False


def find_closed_sets(graph: GapGraph, top, bottom):
    """Minimal closed supersets of the top and bottom bands, if they separate.

    Returns (high, low) when the forward closure of the top band (high)
    stays inside the graph's pumped set and the closure of the bottom band
    (low) stays outside it; otherwise None. A check that fails at its first
    hop (_leaks_at_first_hop) returns None before any closure runs.
    """
    if not top or not bottom or _leaks_at_first_hop(graph, top, bottom):
        return None
    high = forward_closure(graph, top)
    if not graph.pumped[list(high)].all():
        return None
    low = forward_closure(graph, bottom)
    if graph.pumped[list(low)].any():
        return None
    return high, low


def _potential_hash(x: np.ndarray) -> str:
    import hashlib  # only a run that collects its trace hashes: off the import path

    return hashlib.sha256(x.tobytes()).hexdigest()[:16]


def _check_step_invariants(tau, prev_m, m, pumped, delta, steps):
    """Value drift over a jump of `steps` steps that pumped the states where
    `pumped` is true: bounded, and signed by the pumped set. States outside
    the phase, NaN in both value vectors, never fail.

    A state fails when its drift, negated outside the pumped set, exceeds
    the bound in magnitude or exceeds BAND_SLACK, that is when it lies
    above min(bound, BAND_SLACK) or below -bound: one comparison pair
    checks both invariants.
    """
    bound = steps * delta + BAND_SLACK
    drift = m - prev_m
    signed = np.where(pumped, drift, -drift)
    failing = ((signed > min(bound, BAND_SLACK)) | (signed < -bound)).nonzero()[0]
    if not failing.size:
        return
    v = failing[0]  # the first failing state, and its first failing condition
    if abs(drift[v]) > bound:
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


class _Step:
    """One evaluated pump step; the witness check runs at most once, on demand,
    and leaves its graph and result here."""

    __slots__ = ("solve", "part", "graph", "closed")

    def __init__(self, solve: LocalSolve, part: BandPartition):
        self.solve = solve
        self.part = part
        self.graph: GapGraph | None = None
        self.closed: tuple | None = None


def modified_pump(
    game: GameSpec,
    entry: LocalSolve,
    m_minus: float,
    m_plus: float,
    eps: float,
    cap: int,
    *,
    collect_trace: bool = False,
) -> PumpOutcome:
    """Pump the upper half of the states that the caller's local solve `entry`
    lists (its values are not NaN) until a band empties, witness sets
    appear, or the cap is hit.

    entry is step 0, not solved again; the band [m_minus, m_plus] and the
    step delta are fixed at entry, and potentials outside the phase never
    change. The loop lands only on steps where something can change (see
    the module docstring): while the pumped set is fixed, local values move
    monotonically and gap-graph arcs only disappear, so the first step at
    which the bands change or the witness check succeeds is found by
    doubling and bisection over the step count. Every landed step, and
    stats.iterations, are exactly those that single steps would reach;
    stats.pump_counts holds the per-state step counts that define the
    potential, and the trace has one record per landed step. The outcome
    carries the landed step's local solve. A broken invariant, or an
    evaluated potential that leaves the float range, raises
    PumpInvariantError naming the iteration.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n, m0 = game.n, entry.values
    listed = ~np.isnan(m0)  # the phase's states, as local_solve takes them
    listed_count = int(np.count_nonzero(listed))
    if m0.shape != (n,) or np.count_nonzero(np.isinf(m0)) or not listed_count:
        raise ValueError("entry values need n entries, none infinite and not all NaN")
    x_entry = as_potential(entry.x, n)
    delta = (m_plus - m_minus) / 4.0
    check_payoff_bound = m_plus - m_minus > eps

    stats = PumpStats(
        pump_counts=np.zeros(n, dtype=np.int64),
        trace=[] if collect_trace else None,
    )
    counts = stats.pump_counts

    def evaluate(tau, step_counts) -> _Step:
        x = x_entry - delta * step_counts
        finite = np.isfinite(x)
        if np.count_nonzero(finite) < n:
            v = (~finite).nonzero()[0][0]
            raise PumpInvariantError(
                f"iteration {tau}: potential at state {v} left the float range ({x[v]})"
            )
        solve = local_solve(game, x, listed)
        stats.local_games += listed_count
        return _Step(solve=solve, part=partition(solve.values, m_minus, m_plus))

    def witness(step: _Step, pumped):
        # pumped: the step's pumped states, as a set or as the mask a graph
        # of the same partition already built
        if step.graph is None:
            step.graph = auxiliary_graph(game, step.solve.x, pumped, m_plus, eps)
            stats.witness_checks += 1
            step.closed = find_closed_sets(step.graph, step.part.top, step.part.bottom)
        return step.closed

    here = _Step(solve=entry, part=partition(m0, m_minus, m_plus))
    prev = None
    jump = 0
    tau = 0
    while True:
        m, part = here.solve.values, here.part
        if prev is not None:  # the jump from prev pumped prev's graph's pumped states
            _check_step_invariants(tau, prev.solve.values, m, prev.graph.pumped, delta, jump)
            _check_band_monotonicity(tau, prev.part, part)
        if stats.trace is not None:
            finite = m[listed]
            stats.trace.append({
                "tau": tau,
                "m_min": float(np.min(finite)),
                "m_max": float(np.max(finite)),
                "top": len(part.top),
                "bottom": len(part.bottom),
                "pumped": len(part.pumped),
                "potential_hash": _potential_hash(here.solve.x),
            })
        if not part.top or not part.bottom:
            kind = "band-collapsed"
        else:
            closed = witness(here, part.pumped)
            graph = here.graph
            if check_payoff_bound:
                below = (graph.pumped & (graph.bounds < m - BAND_SLACK)).nonzero()[0]
                if below.size:
                    v = below[0]
                    raise PumpInvariantError(
                        f"iteration {tau}: payoff bound {graph.bounds[v]} at pumped "
                        f"state {v} fell below its local value {m[v]}"
                    )
            if closed is not None:
                leaks = boundary_gap_violations(graph, *closed)
                if leaks:
                    raise PumpInvariantError(f"iteration {tau}: " + "; ".join(leaks))
            kind = ("witness-sets" if closed is not None
                    else "cap-exceeded" if tau >= cap else None)
        if kind is not None:
            stats.iterations = tau
            return PumpOutcome(kind=kind, solve=here.solve, bands=part, closed=here.closed,
                               stats=stats)

        # Find the first k >= 1 steps ahead, pumping this partition's upper
        # half (the graph's pumped mask), at which the partition differs, the
        # witness check succeeds or the cap is reached. No event at k = lo;
        # an event at k = hi.
        pumped = here.graph.pumped
        limit = cap - tau
        probes = {}

        def event(k):
            step = probes[k] = evaluate(tau + k, counts + k * pumped)
            return k == limit or step.part != part or witness(step, pumped) is not None

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
        inside = state_mask(len(x), members)
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
