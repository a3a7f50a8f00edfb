"""The one result record, Verdict, and the one independent check of it.

A solve ends in one of three kinds. An ERGODIC or NON_ERGODIC verdict holds
stationary strategies under a potential x, each one game.Strategy array:
alpha gives the row player's mixed action at each state it covers, beta
the column player's. Its claim is one-shot: at every alpha state, alpha's
potential-adjusted payoff against any pure column is at least `floor`, and
at every beta state, any pure row's payoff against beta is at most
`ceiling`. When no action in a strategy's support can move mass out of the
states it covers, the potential telescopes along every play, so the row
player guarantees `floor` from every alpha state and the column player
concedes at most `ceiling` from every beta state. An ergodic verdict covers
every state with both players' optimal local strategies, from the solve
that measured its band, and claims ceiling - floor <= 24*eps. A
non-ergodicity witness covers two disjoint closed sets, the high one with
alpha from the pump's last solve and the low one with beta from one
local_solve, each truncated to the actions that cannot leak out of its set,
and claims floor > ceiling. An INCONCLUSIVE verdict holds only its reason.

decide_ergodicity stamps its reward shift on the record as value_offset.
verify_witness is the one judge of every value a verdict holds: it takes
the game as given and is independent of construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .game import (GameSpec, Potential, Strategy, _finite, as_potential, local_payoffs,
                   normalize_rewards, state_mask)
from .matrix_game import LocalSolve, left_sum, local_solve

ERGODIC = "ergodic-24eps"
NON_ERGODIC = "non-ergodic"
INCONCLUSIVE = "inconclusive"
# slack of every comparison with a computed payoff: eps/10, but never above this
_MAX_VERIFY_SLACK = 1e-6
# the least mass of a covered slice, the least normal float: below it, a
# subnormal product's rounding, over the mass, could outgrow a normal one's
_MIN_MASS = float(np.finfo(np.float64).tiny)


class WitnessBuildError(RuntimeError):
    pass


class Verdict(NamedTuple):
    """The result of a solve, as written to and read from a certificate.

    value_offset is the shift normalization added to every original reward;
    floor, ceiling and the potential are in normalized units. A certified
    kind holds potential, floor, ceiling, alpha, one read-only Strategy over
    the game's global rows, and beta, one over its global columns, each NaN
    outside the states it covers: a witness's high and low sets. An
    INCONCLUSIVE one holds reason instead and leaves them None.
    """

    kind: str  # ERGODIC, NON_ERGODIC or INCONCLUSIVE
    eps: float
    value_offset: float = 0.0
    potential: Potential | None = None
    floor: float | None = None
    ceiling: float | None = None
    alpha: Strategy | None = None  # the row player's, over global rows
    beta: Strategy | None = None  # the column player's, over global columns
    reason: str | None = None

    @property
    def high_states(self) -> frozenset | None:  # a witness's high set
        return self.alpha.states if self.kind == NON_ERGODIC else None

    @property
    def low_states(self) -> frozenset | None:  # a witness's low set
        return self.beta.states if self.kind == NON_ERGODIC else None


class VerificationReport(NamedTuple):
    failures: tuple
    certified_gap: float  # proven floor minus proven ceiling

    @property
    def ok(self) -> bool:
        return not self.failures


def bar_actions(game: GameSpec, v: int, inside, player: str) -> frozenset:
    """Actions at v that keep all transition mass inside `inside`.

    For the row player an action k qualifies when no column can move any
    probability out of the set; symmetric for the column player. Only
    transitions with nonzero exact probability are recorded, so a record
    leaving the set is a leak.
    """
    if player not in ("row", "col"):
        raise ValueError("player must be 'row' or 'col'")
    flat = game.flat
    lo, hi = np.searchsorted(flat.rec_state, (v, v + 1))  # v's records
    pair = np.divmod(flat.rec_slot[lo:hi] - flat.first_slot[v], flat.col_count[v])
    leaking = set(pair[player == "col"][~state_mask(game.n, inside)[flat.rec_to[lo:hi]]].tolist())
    size = game.num_row_actions(v) if player == "row" else game.num_col_actions(v)
    return frozenset(range(size)) - leaking


def _truncate(game: GameSpec, strategy: Strategy, states: frozenset, player: str) -> Strategy:
    """A new Strategy: strategy at states, each state's vector truncated to
    its bar_actions and renormalised."""
    first, mix = strategy.first, np.asarray(strategy)
    out = np.full(len(mix), np.nan)
    for v in sorted(states):
        keep = bar_actions(game, v, states, player)
        mass = float(left_sum(mix[first[v] + k] for k in keep))
        if mass <= 0.0:
            raise WitnessBuildError(
                f"witness preconditions violated at state {v}: optimal strategy "
                f"has no mass on its {len(keep)} set-preserving actions")
        out[first[v]:first[v + 1]] = 0.0
        for k in keep:
            out[first[v] + k] = mix[first[v] + k] / mass
    return Strategy(out, first)


def build_witness(game: GameSpec, solve: LocalSolve, high_states, low_states,
                  ceiling_raw: float, floor_raw: float, eps: float) -> Verdict:
    """Build truncated stationary strategies certifying the value gap at solve.x.

    Requires the closed-set gap conditions to hold at x = solve.x (supersets
    of the top/bottom bands with saturated potential gaps). solve must list
    every high state, as the pump's last solve does: alpha comes from its
    row strategy, and one local solve of the low states at x gives beta
    from its column strategy. Each state's vector is then truncated to its
    bar_actions and renormalised into new arrays, never the solve's. The
    certified bounds keep a margin of eps: floor = floor_raw - eps, ceiling
    = ceiling_raw + eps. A strategy with no mass on set-preserving actions
    signals a violated precondition and raises. game is the normalized game
    the solve ran on; the verdict's value_offset is left for decide_ergodicity.
    """
    x = as_potential(solve.x, game.n)
    high_states = frozenset(int(v) for v in high_states)
    low_states = frozenset(int(v) for v in low_states)
    if not high_states or not low_states or (high_states & low_states):
        raise WitnessBuildError("witness sets must be non-empty and disjoint")
    if floor_raw - ceiling_raw < 3 * eps:
        raise WitnessBuildError(
            f"threshold separation {floor_raw - ceiling_raw} is below the "
            f"required 3*eps = {3 * eps}"
        )
    unsettled = sorted(v for v in high_states if np.isnan(solve.values[v]))
    if unsettled:
        raise WitnessBuildError(f"the solve does not list high states {unsettled}")
    rows, _ = solve.strategies()
    _, cols = local_solve(game, x, sorted(low_states)).strategies()
    return Verdict(
        kind=NON_ERGODIC, eps=eps, potential=x,
        floor=floor_raw - eps, ceiling=ceiling_raw + eps,
        alpha=_truncate(game, rows, high_states, "row"),
        beta=_truncate(game, cols, low_states, "col"),
    )


def _names(game: GameSpec, mask) -> list:
    return [game.states[v] for v in mask.nonzero()[0]]


@np.errstate(all="ignore")  # a bad value's inf or NaN is reported, not warned about
def verify_witness(game: GameSpec, verdict: Verdict) -> VerificationReport:
    """Judge a verdict against the game alone, as given: every value it
    claims, whether parsed from a certificate or built in code.

    First the values: value_offset is exactly the shift to [0, R] that
    decide_ergodicity makes (it round-trips bit-exactly); the kind is one of
    three; alpha and beta hold one entry per global row and column, and
    cover the states with no NaN entry; the potential holds n finite
    entries; eps, floor and ceiling are finite numbers, eps above 0; each
    covered slice is non-negative with a finite sum, its mass, of at least
    _MIN_MASS, and reads as the distribution it is proportional to. Then,
    on the shifted game:
    (a) closure, exact on the transition records: no action in the support
        of alpha (beta) moves any mass out of the alpha (beta) states;
    (b) one-shot bounds, one pass over the flat view: alpha's payoff against
        every pure column reaches floor, and every pure row's payoff against
        beta stays within ceiling, each up to one slack. A state's least
        (greatest) payoff is divided by its mass after the reduction, which
        is exact, as division by a positive number is monotone. A payoff out
        of the float range fails;
    (c) the claim: an ergodic certificate covers every state with both
        alpha and beta, and ceiling - floor <= 24*eps on its stored bounds;
        a witness's sets are non-empty and disjoint, floor > ceiling on its
        stored bounds, and the proven floor exceeds the proven ceiling by
        more than the slack.

    No LP or per-state loop runs, and states are located only on a failure.
    certified_gap is the proven one-shot floor minus the proven ceiling,
    -inf when a value fails or the verdict is inconclusive.
    """
    game, offset = normalize_rewards(game)
    failures = []
    if offset != verdict.value_offset:
        failures.append(f"normalization offset mismatch: game gives {offset}, "
                        f"certificate says {verdict.value_offset}")
    if verdict.kind == INCONCLUSIVE:
        failures.append(f"an {INCONCLUSIVE} verdict certifies nothing")
        return VerificationReport(failures=tuple(failures), certified_gap=-np.inf)
    flat = game.flat
    sides = (("alpha", verdict.alpha, flat.first_row, "row"),
             ("beta", verdict.beta, flat.first_col, "column"))
    malformed = [] if verdict.kind in (ERGODIC, NON_ERGODIC) else [
        f"kind: expected {ERGODIC!r}, {NON_ERGODIC!r} or {INCONCLUSIVE!r}, got {verdict.kind!r}"]
    malformed += [f"{name}: expected an array of {first[-1]} entries, one per {player} action, "
                  f"got {getattr(mix, 'shape', type(mix).__name__)}"
                  for name, mix, first, player in sides if np.shape(mix) != (first[-1],)]
    try:
        x = as_potential(verdict.potential, game.n)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's own text names no field
        malformed.append(f"potential: expected {game.n} finite numbers ({exc})")
    numbers = {"floor": verdict.floor, "ceiling": verdict.ceiling, "eps": verdict.eps}
    if not (_finite(numbers.values()) and verdict.eps > 0):
        malformed += [f"{name}: expected a {'positive ' if name == 'eps' else ''}finite "
                      f"number, got {value!r}" for name, value in numbers.items()
                      if not (_finite([value]) and (name != "eps" or value > 0))]
    if not malformed:
        alpha, beta = (np.asarray(mix, dtype=np.float64) for _, mix, _, _ in sides)
        masses = (np.add.reduceat(alpha, flat.first_row[:-1]),
                  np.add.reduceat(beta, flat.first_col[:-1]))
        for (name, _, first, _), mix, mass in zip(sides, (alpha, beta), masses):
            if not (np.fmin.reduce(mix, initial=0.0) >= 0.0  # fmin and fmax skip NaN
                    and np.fmin.reduce(mass, initial=np.inf) >= _MIN_MASS
                    and np.fmax.reduce(mass, initial=0.0) < np.inf):
                bad = (np.logical_or.reduceat(mix < 0.0, first[:-1]) | (mass < _MIN_MASS)
                       | (mass == np.inf))
                malformed.append(f"{name}: expected non-negative entries with a finite sum of "
                                 f"at least {_MIN_MASS}, at states {_names(game, bad)}")
    if malformed:
        return VerificationReport(failures=tuple(failures + malformed), certified_gap=-np.inf)
    tol = min(verdict.eps / 10.0, _MAX_VERIFY_SLACK)
    alpha_in, beta_in = (mass == mass for mass in masses)  # False at NaN

    for player, mix, covered, action_of, first in (
            ("row", alpha, alpha_in, flat.slot_row, flat.first_row),
            ("col", beta, beta_in, flat.slot_col, flat.first_col)):
        if np.count_nonzero(covered) == game.n:
            continue  # no record leaves the whole state space
        leaving = (covered[flat.rec_state] > covered[flat.rec_to]).nonzero()[0]
        for r in leaving[mix[action_of[flat.rec_slot[leaving]]] > 0.0]:
            v, u = flat.rec_state[r], flat.rec_to[r]
            action = action_of[flat.rec_slot[r]] - first[v]
            failures.append(f"closure: {player} action {action} at state {game.states[v]!r} "
                            f"leaks to {game.states[u]!r} with probability {flat.rec_p[r]}")

    payoffs = local_payoffs(game, x)
    # alpha's payoff against each column action, each row action's against
    # beta; per state the least (greatest) of them, over the slice's mass
    vs_col = np.bincount(flat.slot_col, alpha[flat.slot_row] * payoffs, int(flat.first_col[-1]))
    vs_row = np.bincount(flat.slot_row, beta[flat.slot_col] * payoffs, int(flat.first_row[-1]))
    floor_at = np.minimum.reduceat(vs_col, flat.first_col[:-1]) / masses[0]
    ceiling_at = np.maximum.reduceat(vs_row, flat.first_row[:-1]) / masses[1]
    covered_at = floor_at[alpha_in], ceiling_at[beta_in]
    if any(np.count_nonzero(np.isfinite(at)) < at.size for at in covered_at):
        out = (alpha_in & ~np.isfinite(floor_at)) | (beta_in & ~np.isfinite(ceiling_at))
        failures.append(f"one-shot: payoffs leave the float range at states {_names(game, out)}")
        return VerificationReport(failures=tuple(failures), certified_gap=-np.inf)
    proven_floor = float(np.minimum.reduce(covered_at[0], initial=np.inf))
    proven_ceiling = float(np.maximum.reduce(covered_at[1], initial=-np.inf))
    if proven_floor < verdict.floor - tol:
        for v in (alpha_in & (floor_at < verdict.floor - tol)).nonzero()[0]:
            failures.append(f"one-shot: alpha guarantees {floor_at[v]} at state "
                            f"{game.states[v]!r}, below floor {verdict.floor}")
    if proven_ceiling > verdict.ceiling + tol:
        for v in (beta_in & (ceiling_at > verdict.ceiling + tol)).nonzero()[0]:
            failures.append(f"one-shot: beta concedes {ceiling_at[v]} at state "
                            f"{game.states[v]!r}, above ceiling {verdict.ceiling}")

    if verdict.kind == ERGODIC:
        for name, covered in (("alpha", alpha_in), ("beta", beta_in)):
            if np.count_nonzero(covered) < game.n:
                failures.append(f"ergodic {name} misses states {_names(game, ~covered)}")
        if not verdict.ceiling - verdict.floor <= 24 * verdict.eps:
            failures.append(f"band [{verdict.floor}, {verdict.ceiling}] is wider than "
                            f"24*eps = {24 * verdict.eps}")
    else:
        if proven_floor == np.inf or proven_ceiling == -np.inf:  # a set is empty
            failures.append("witness alpha and beta sets must not be empty")
        shared = _names(game, alpha_in & beta_in)
        if shared:
            failures.append(f"witness alpha and beta sets share states {shared}")
        if not verdict.floor > verdict.ceiling:
            failures.append(f"floor {verdict.floor} does not exceed ceiling {verdict.ceiling}")
        # with (b)'s slack, stored floor > ceiling does not separate the proven ones
        if not proven_floor - proven_ceiling > tol:
            failures.append(f"proven floor {proven_floor} does not exceed proven "
                            f"ceiling {proven_ceiling} by more than the slack {tol}")
    return VerificationReport(tuple(failures), certified_gap=proven_floor - proven_ceiling)
