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
from fractions import Fraction

import numpy as np

from .game import GameSpec, Potential, as_potential, local_reward_matrix
from .markov import best_response_value
from .matrix_game import local_values, solve_matrix_game


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
    high_exact: dict | None = None  # Fractions, present in exact mode
    low_exact: dict | None = None


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
    probability out of the set; symmetric for the column player. Zero tests
    run on the exact rational transition data.
    """
    inside = set(inside)
    keep = []
    if player == "row":
        for k in range(game.num_row_actions(v)):
            leaks = any(
                game.prob[v][k][l][u] != 0
                for l in range(game.num_col_actions(v))
                for u in range(game.n)
                if u not in inside
            )
            if not leaks:
                keep.append(k)
    elif player == "col":
        for l in range(game.num_col_actions(v)):
            leaks = any(
                game.prob[v][k][l][u] != 0
                for k in range(game.num_row_actions(v))
                for u in range(game.n)
                if u not in inside
            )
            if not leaks:
                keep.append(l)
    else:
        raise ValueError("player must be 'row' or 'col'")
    return frozenset(keep)


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


def _truncate_exact(strategy, keep):
    mass = sum((strategy[k] for k in keep), Fraction(0))
    if mass <= 0:
        return None
    return tuple(strategy[k] / mass if k in keep else Fraction(0) for k in range(len(strategy)))


def build_witness(
    game: GameSpec,
    x: Potential,
    high_states,
    low_states,
    ceiling_raw: float,
    floor_raw: float,
    eps: float,
    *,
    reflect_value: float | None = None,
    tol: float = 1e-9,
    exact: bool = False,
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
    if reflect_value is None:
        m = local_values(game, x, tol=tol)
        reflect_value = float(np.nanmax(m))

    high_strategies, low_strategies = {}, {}
    high_exact = {} if exact else None
    low_exact = {} if exact else None
    floor = floor_raw - eps
    ceiling = ceiling_raw + eps

    for v in sorted(high_states):
        matrix = local_reward_matrix(game, v, x).entries
        sol = solve_matrix_game(matrix, tol=tol, exact=exact)
        keep = bar_actions(game, v, high_states, "row")
        if not keep:
            raise WitnessBuildError(
                f"witness preconditions violated at state {v}: no row action "
                "keeps the play inside the high set"
            )
        high_strategies[v] = _truncate(sol.row_strategy, keep, v)
        if exact:
            trunc = _truncate_exact(sol.row_exact, keep)
            if trunc is not None:
                high_exact[v] = trunc

    for u in sorted(low_states):
        matrix = local_reward_matrix(game, u, x).entries
        # reflect so the column player's problem becomes a row problem
        reflected = reflect_value * np.ones_like(matrix.T) - matrix.T
        sol = solve_matrix_game(reflected, tol=tol, exact=exact)
        keep = bar_actions(game, u, low_states, "col")
        if not keep:
            raise WitnessBuildError(
                f"witness preconditions violated at state {u}: no column action "
                "keeps the play inside the low set"
            )
        low_strategies[u] = _truncate(sol.row_strategy, keep, u)
        if exact:
            trunc = _truncate_exact(sol.row_exact, keep)
            if trunc is not None:
                low_exact[u] = trunc

    return WitnessCertificate(
        high_states=high_states,
        low_states=low_states,
        high_strategies=high_strategies,
        low_strategies=low_strategies,
        potential=x,
        floor=floor,
        ceiling=ceiling,
        floor_raw=floor_raw,
        ceiling_raw=ceiling_raw,
        eps=eps,
        high_exact=high_exact,
        low_exact=low_exact,
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


def verify_witness(game: GameSpec, cert: WitnessCertificate, tol: float | None = None) -> VerificationReport:
    """Three independent checks of a witness certificate.

    (a) structural: support actions keep all mass inside their set, checked
        exactly on the rational transitions;
    (b) local: one-shot payoffs against every opposing pure action clear the
        floor (high side) and stay strictly under the ceiling (low side);
    (c) global: extending the strategies uniformly outside their sets, the
        opponent's optimal mean-payoff response still respects the bounds.
    """
    if tol is None:
        tol = min(cert.eps / 10.0, 1e-6)
    x = as_potential(cert.potential, game.n)
    failures = []

    structural_ok = True
    for v in sorted(cert.high_states):
        strategy = cert.high_strategies[v]
        for k in range(game.num_row_actions(v)):
            if strategy[k] <= 0.0:
                continue
            for u in range(game.n):
                if u in cert.high_states:
                    continue
                for l in range(game.num_col_actions(v)):
                    if game.prob[v][k][l][u] != 0:
                        structural_ok = False
                        failures.append(
                            f"structural: high state {v} action {k} leaks to {u} "
                            f"under column {l} with probability {game.prob[v][k][l][u]}"
                        )
    for u in sorted(cert.low_states):
        strategy = cert.low_strategies[u]
        for l in range(game.num_col_actions(u)):
            if strategy[l] <= 0.0:
                continue
            for w in range(game.n):
                if w in cert.low_states:
                    continue
                for k in range(game.num_row_actions(u)):
                    if game.prob[u][k][l][w] != 0:
                        structural_ok = False
                        failures.append(
                            f"structural: low state {u} action {l} leaks to {w} "
                            f"under row {k} with probability {game.prob[u][k][l][w]}"
                        )

    local_ok = True
    for v in sorted(cert.high_states):
        payoff = cert.high_strategies[v] @ local_reward_matrix(game, v, x).entries
        worst = float(np.min(payoff))
        if worst < cert.floor - tol:
            local_ok = False
            failures.append(
                f"local: high state {v} one-shot guarantee {worst} is below "
                f"floor {cert.floor}"
            )
    for u in sorted(cert.low_states):
        payoff = local_reward_matrix(game, u, x).entries @ cert.low_strategies[u]
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
