"""Non-ergodicity witnesses: construction and independent verification.

A witness is a pair of disjoint state sets with stationary strategies that
keep the play inside each set and force separated payoffs: the row player
guarantees at least `floor` from every high state, the column player caps
the payoff at `ceiling` from every low state. Strategies are built by
solving the potential-adjusted local games and truncating the optimal mixed
strategies to the actions that cannot leak out of the set.

Verification is independent of construction: exact closure checks on the
rational transition data, one-shot payoff checks against every opposing
pure action, and a global best-response computation over the whole game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameSpec, Potential, as_potential, local_payoffs
from .markov import best_response_value
from .matrix_game import solve_matrix_game


# verification slack: eps/10, but never above this absolute amount
_MAX_VERIFY_SLACK = 1e-6


class WitnessBuildError(RuntimeError):
    pass


@dataclass(frozen=True)
class WitnessCertificate:
    """Certified value gap between two closed sets of starting positions.

    floor is the value guaranteed from every high state, ceiling the value
    conceded from every low state; floor_raw/ceiling_raw are the pre-margin
    band thresholds they were derived from (floor = floor_raw - eps,
    ceiling = ceiling_raw + eps).
    """

    high_states: frozenset
    low_states: frozenset
    high_strategies: dict  # state -> row player's mixed action vector
    low_strategies: dict  # state -> column player's mixed action vector
    potential: Potential
    floor: float
    ceiling: float
    floor_raw: float
    ceiling_raw: float
    eps: float


@dataclass(frozen=True)
class VerificationReport:
    structural_ok: bool
    local_ok: bool
    global_ok: bool
    failures: tuple
    guaranteed_floor: float  # global check: worst value the high side achieves
    guaranteed_ceiling: float  # global check: best value the low side concedes
    certified_gap: float

    @property
    def ok(self) -> bool:
        return self.structural_ok and self.local_ok and self.global_ok


def bar_actions(game: GameSpec, v: int, inside, player: str) -> frozenset:
    """Actions at v that keep all transition mass inside `inside`.

    For the row player an action k qualifies when no column can move any
    probability out of the set; symmetric for the column player. Only
    transitions with nonzero exact probability are recorded, so a record
    leaving the set is a leak.
    """
    if player not in ("row", "col"):
        raise ValueError("player must be 'row' or 'col'")
    inside = set(inside)
    leaking = {k if player == "row" else l
               for k, l, u, _p, _r in game.transitions[v] if u not in inside}
    size = game.num_row_actions(v) if player == "row" else game.num_col_actions(v)
    return frozenset(range(size)) - leaking


def _truncate(strategy: np.ndarray, keep: frozenset, v: int):
    mass = float(sum(strategy[k] for k in keep))
    if mass <= 0.0:
        raise WitnessBuildError(
            f"witness preconditions violated at state {v}: optimal strategy "
            "has no mass on set-preserving actions"
        )
    out = np.zeros_like(strategy)
    for k in keep:
        out[k] = strategy[k] / mass
    return out


def build_witness(
    game: GameSpec,
    x: Potential,
    high_states,
    low_states,
    ceiling_raw: float,
    floor_raw: float,
    eps: float,
) -> WitnessCertificate:
    """Build truncated stationary strategies certifying the value gap.

    Requires the closed-set gap conditions to hold at x (supersets of the
    top/bottom bands with saturated potential gaps). Fails loudly when some
    state has no set-preserving action, which signals a violated
    precondition rather than a recoverable condition.
    """
    x = as_potential(x, game.n)
    high_states = frozenset(int(v) for v in high_states)
    low_states = frozenset(int(v) for v in low_states)
    if not high_states or not low_states or (high_states & low_states):
        raise WitnessBuildError("witness sets must be non-empty and disjoint")
    if floor_raw - ceiling_raw < 3 * eps:
        raise WitnessBuildError(
            f"threshold separation {floor_raw - ceiling_raw} is below the "
            f"required 3*eps = {3 * eps}"
        )
    payoffs = local_payoffs(game, x)
    strategies = {"row": {}, "col": {}}
    for player, members, side in (("row", high_states, "high"), ("col", low_states, "low")):
        for v in sorted(members):
            matrix = game.state_matrix(payoffs, v)
            # negated and transposed, the column player's game is a row player's game
            sol = solve_matrix_game(matrix if player == "row" else -matrix.T)
            keep = bar_actions(game, v, members, player)
            if not keep:
                raise WitnessBuildError(
                    f"witness preconditions violated at state {v}: no {player} action "
                    f"keeps the play inside the {side} set"
                )
            strategies[player][v] = _truncate(sol.row_strategy, keep, v)

    return WitnessCertificate(
        high_states=high_states,
        low_states=low_states,
        high_strategies=strategies["row"],
        low_strategies=strategies["col"],
        potential=x,
        floor=floor_raw - eps,
        ceiling=ceiling_raw + eps,
        floor_raw=floor_raw,
        ceiling_raw=ceiling_raw,
        eps=eps,
    )


def _extend_uniform(game: GameSpec, partial: dict, states, player: str):
    out = []
    for v in range(game.n):
        size = game.num_row_actions(v) if player == "row" else game.num_col_actions(v)
        if v in states:
            out.append(np.asarray(partial[v], dtype=np.float64))
        else:
            out.append(np.full(size, 1.0 / size))
    return tuple(out)


def verify_witness(game: GameSpec, cert: WitnessCertificate) -> VerificationReport:
    """Three independent checks of a witness certificate.

    (a) structural: support actions keep all mass inside their set, checked
        exactly on the rational transitions;
    (b) local: one-shot payoffs against every opposing pure action clear the
        floor (high side) and stay strictly under the ceiling (low side);
    (c) global: extending the strategies uniformly outside their sets, the
        opponent's optimal mean-payoff response still respects the bounds.
    """
    tol = min(cert.eps / 10.0, _MAX_VERIFY_SLACK)
    x = as_potential(cert.potential, game.n)
    failures = []

    structural_ok = True
    for v in sorted(cert.high_states):
        strategy = cert.high_strategies[v]
        for k, l, u, p, _r in game.transitions[v]:
            if strategy[k] > 0.0 and u not in cert.high_states:
                structural_ok = False
                failures.append(
                    f"structural: high state {v} action {k} leaks to {u} "
                    f"under column {l} with probability {p}"
                )
    for u in sorted(cert.low_states):
        strategy = cert.low_strategies[u]
        for k, l, w, p, _r in game.transitions[u]:
            if strategy[l] > 0.0 and w not in cert.low_states:
                structural_ok = False
                failures.append(
                    f"structural: low state {u} action {l} leaks to {w} "
                    f"under row {k} with probability {p}"
                )

    local_ok = True
    payoffs = local_payoffs(game, x)
    for v in sorted(cert.high_states):
        payoff = cert.high_strategies[v] @ game.state_matrix(payoffs, v)
        worst = float(np.min(payoff))
        if worst < cert.floor - tol:
            local_ok = False
            failures.append(
                f"local: high state {v} one-shot guarantee {worst} is below "
                f"floor {cert.floor}"
            )
    for u in sorted(cert.low_states):
        payoff = game.state_matrix(payoffs, u) @ cert.low_strategies[u]
        best = float(np.max(payoff))
        if best > cert.ceiling - tol:
            local_ok = False
            failures.append(
                f"local: low state {u} one-shot concession {best} is not strictly "
                f"under ceiling {cert.ceiling}"
            )

    alpha_full = _extend_uniform(game, cert.high_strategies, cert.high_states, "row")
    gain_high, _ = best_response_value(game, alpha_full, "row")
    beta_full = _extend_uniform(game, cert.low_strategies, cert.low_states, "col")
    gain_low, _ = best_response_value(game, beta_full, "col")

    global_ok = True
    for v in sorted(cert.high_states):
        if gain_high[v] < cert.floor - tol:
            global_ok = False
            failures.append(
                f"global: best response pushes high state {v} to {gain_high[v]}, "
                f"below floor {cert.floor}"
            )
    for u in sorted(cert.low_states):
        if gain_low[u] > cert.ceiling + tol:
            global_ok = False
            failures.append(
                f"global: best response lifts low state {u} to {gain_low[u]}, "
                f"above ceiling {cert.ceiling}"
            )

    guaranteed_floor = float(min(gain_high[v] for v in cert.high_states))
    guaranteed_ceiling = float(max(gain_low[u] for u in cert.low_states))
    return VerificationReport(
        structural_ok=structural_ok,
        local_ok=local_ok,
        global_ok=global_ok,
        failures=tuple(failures),
        guaranteed_floor=guaranteed_floor,
        guaranteed_ceiling=guaranteed_ceiling,
        certified_gap=guaranteed_floor - guaranteed_ceiling,
    )
