"""The one result record, Verdict, and the one independent check of it.

A solve ends in one of three kinds. An ERGODIC or NON_ERGODIC verdict holds
stationary strategies under a potential x: alpha gives the row player's
mixed action at each state it covers, beta the column player's, each one
game.Strategy array. Its claim is one-shot: at every alpha state, alpha's
potential-adjusted payoff against any pure column is at least `floor`, and
at every beta state, any pure row's payoff against beta is at most
`ceiling`. When no action in a strategy's support can move mass out of the
states it covers, the potential telescopes along every play, so the row
player guarantees `floor` from every alpha state and the column player
concedes at most `ceiling` from every beta state. An INCONCLUSIVE verdict
holds only its reason and certifies nothing.

Both certified kinds take their strategies from the local solves
(matrix_game.LocalSolve) at the certified potential, and settle no game
twice: an ergodic verdict from the solve that measured its band, a witness
from the pump's last solve, which lists its high set, and one local_solve
of its low set. An ergodic verdict covers every state with both
players' optimal local strategies (so closure is vacuous) and claims
ceiling - floor <= 24*eps. A non-ergodicity
witness covers two disjoint closed sets, the high one with alpha and the
low one with beta, and claims floor > ceiling, which its proven one-shot
bounds must bear out. Its strategies are the optimal local ones of the
states it covers, each truncated to the actions that cannot leak out of its
set.

The record goes from decide_ergodicity, which stamps its reward shift on it
as value_offset, through the documents module to verify_witness, which takes
the game as given and is independent of construction: the same shift, which
must match value_offset, then closure exactly on the transition records, then
every one-shot bound in one vectorised pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .game import (GameSpec, Potential, Strategy, as_potential, covered_states, local_payoffs,
                   normalize_rewards, state_mask)
from .matrix_game import LocalSolve, left_sum, local_solve

ERGODIC = "ergodic-24eps"
NON_ERGODIC = "non-ergodic"
INCONCLUSIVE = "inconclusive"
# slack of every comparison with a computed payoff: eps/10, but never above this
_MAX_VERIFY_SLACK = 1e-6


class WitnessBuildError(RuntimeError):
    pass


class Verdict(NamedTuple):
    """The result of a solve, as written to and read from a certificate.

    value_offset is the shift normalization added to every original reward,
    which decide_ergodicity stamps on the verdict it returns; floor, ceiling
    and the potential are in normalized units. A certified kind (ERGODIC or
    NON_ERGODIC) holds potential, floor, ceiling, alpha, one read-only
    Strategy over the game's global rows, and beta, one over its global
    columns, each NaN outside the states it covers: a witness's high and low
    sets. An INCONCLUSIVE one holds reason instead and leaves them None.
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
    = ceiling_raw + eps. Fails loudly when a strategy has no mass on
    set-preserving actions (none at all, or none its optimal strategy
    plays), which signals a violated precondition rather than a recoverable
    condition. game is the normalized game the solve ran on; the verdict's
    value_offset is left for decide_ergodicity.
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


def verify_witness(game: GameSpec, verdict: Verdict) -> VerificationReport:
    """Check a verdict's certificate against the game alone, as given.

    First, the shift to [0, R] that decide_ergodicity makes must equal
    value_offset exactly (it round-trips bit-exactly); alpha and beta hold
    one entry per global row and column, the states they cover those with
    no NaN entry; the potential holds one finite entry per state; floor and
    ceiling are numbers (float or int, not NaN) and eps a positive finite
    one. Then, on the shifted game:
    (a) closure, exact on the transition records: no action in the support
        of alpha (beta) moves any mass out of the alpha (beta) states;
    (b) one-shot bounds, one pass over the flat view: alpha's payoff against
        every pure column reaches floor, and every pure row's payoff against
        beta stays within ceiling, each up to one slack;
    (c) the claim: an ergodic certificate covers every state with both
        alpha and beta, and ceiling - floor <= 24*eps on its stored bounds;
        a witness's alpha and beta sets are non-empty and disjoint, floor >
        ceiling on its stored bounds, and the proven floor exceeds the
        proven ceiling by more than the slack. An inconclusive verdict
        certifies nothing and fails.

    No LP, policy iteration or per-state loop runs. certified_gap is the
    proven one-shot floor minus the proven one-shot ceiling (-inf when the
    verdict is inconclusive or malformed: a field fails its first check).
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
    malformed = [f"{name}: expected an array of {first[-1]} entries, one per {player} action, "
                 f"got {getattr(mix, 'shape', type(mix).__name__)}"
                 for name, mix, first, player in sides if np.shape(mix) != (first[-1],)]
    try:
        x = as_potential(verdict.potential, game.n)
    except (TypeError, ValueError) as exc:
        malformed.append(str(exc))
    for name, value in (("floor", verdict.floor), ("ceiling", verdict.ceiling)):
        if not isinstance(value, (float, int)) or value != value:
            malformed.append(f"{name}: expected a number, got {value!r}")
    if not (isinstance(verdict.eps, (float, int)) and 0.0 < verdict.eps < math.inf):
        malformed.append(f"eps: expected a positive finite number, got {verdict.eps!r}")
    if malformed:
        return VerificationReport(failures=tuple(failures + malformed), certified_gap=-np.inf)
    tol = min(verdict.eps / 10.0, _MAX_VERIFY_SLACK)
    alpha, beta = (np.asarray(mix, dtype=np.float64) for _, mix, _, _ in sides)
    alpha_in, beta_in = covered_states(alpha, flat.first_row), covered_states(beta, flat.first_col)

    for player, mix, covered, action_of, first in (
            ("row", alpha, alpha_in, flat.slot_row, flat.first_row),
            ("col", beta, beta_in, flat.slot_col, flat.first_col)):
        leaks = (covered[flat.rec_state] & ~covered[flat.rec_to]
                 & (mix[action_of[flat.rec_slot]] > 0.0))
        for r in leaks.nonzero()[0]:
            v, u = flat.rec_state[r], flat.rec_to[r]
            action = action_of[flat.rec_slot[r]] - first[v]
            failures.append(
                f"closure: {player} action {action} at state {game.states[v]!r} leaks to "
                f"{game.states[u]!r} with probability {flat.rec_p[r]}")

    payoffs = local_payoffs(game, x)
    # alpha's payoff against each column action, each row action's against beta
    vs_col = np.bincount(flat.slot_col, alpha[flat.slot_row] * payoffs, int(flat.first_col[-1]))
    vs_row = np.bincount(flat.slot_row, beta[flat.slot_col] * payoffs, int(flat.first_row[-1]))
    floor_at = np.minimum.reduceat(vs_col, flat.first_col[:-1])
    ceiling_at = np.maximum.reduceat(vs_row, flat.first_row[:-1])
    for v in (alpha_in & (floor_at < verdict.floor - tol)).nonzero()[0]:
        failures.append(f"one-shot: alpha guarantees {floor_at[v]} at state "
                        f"{game.states[v]!r}, below floor {verdict.floor}")
    for v in (beta_in & (ceiling_at > verdict.ceiling + tol)).nonzero()[0]:
        failures.append(f"one-shot: beta concedes {ceiling_at[v]} at state "
                        f"{game.states[v]!r}, above ceiling {verdict.ceiling}")

    proven_floor = float(floor_at[alpha_in].min(initial=np.inf))
    proven_ceiling = float(ceiling_at[beta_in].max(initial=-np.inf))
    if verdict.kind == ERGODIC:
        for name, covered in (("alpha", alpha_in), ("beta", beta_in)):
            if not covered.all():
                missing = [game.states[v] for v in (~covered).nonzero()[0]]
                failures.append(f"ergodic {name} misses states {missing}")
        if not verdict.ceiling - verdict.floor <= 24 * verdict.eps:
            failures.append(f"band [{verdict.floor}, {verdict.ceiling}] is wider than "
                            f"24*eps = {24 * verdict.eps}")
    else:
        if not (alpha_in.any() and beta_in.any()):
            failures.append("witness alpha and beta sets must not be empty")
        shared = [game.states[v] for v in (alpha_in & beta_in).nonzero()[0]]
        if shared:
            failures.append(f"witness alpha and beta sets share states {shared}")
        if not verdict.floor > verdict.ceiling:
            failures.append(f"floor {verdict.floor} does not exceed ceiling {verdict.ceiling}")
        # the slack on (b) lets each proven bound fall short of the stored
        # one, so the separation itself is checked on the proven bounds
        if not proven_floor - proven_ceiling > tol:
            failures.append(f"proven floor {proven_floor} does not exceed proven "
                            f"ceiling {proven_ceiling} by more than the slack {tol}")
    return VerificationReport(failures=tuple(failures),
                              certified_gap=proven_floor - proven_ceiling)
