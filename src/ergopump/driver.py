"""Outer solve loop: repeated pumping, one measurement of local values per potential.

decide_ergodicity returns a witness.Verdict, the one result record; the
three verdict kinds are defined there and bound here for callers that import
them from the driver.

Each outer iteration reads the local-value band at the current potential and
stops once its width is at most 24*eps: the potential and optimal local
strategies at it certify that all game values sit in the band. Otherwise one
pump pass, started from those values, runs over all states; if it collapses
the band, the loop goes on from the pump's last potential and local solve,
not re-centred (a constant shift changes no local game), with a band at most
3/4 as wide. If it instead finds closed candidate sets, a second pass pumps
only the high set against the upper half-band; either that collapses too
(band at most 7/8 as wide) or the run exits with a non-ergodicity witness
whose certified thresholds are (m_plus + m_minus) / 2 and
(5*m_plus + 3*m_minus) / 8.

Each potential's local games are settled once. The loop holds the
matrix_game.LocalSolve that measured its band: the h = 0 solve, the pump's
last step, or the re-solve of all states after a high-set phase. An ergodic
exit lays out that solve's strategies instead of solving again, and
DriverStats.local_games counts every local game a run settles.

Every pump phase is capped at HARD_CAP steps. The paper bounds a phase by
2*n*kappa + 1 steps, with kappa = base**(2**n - 1) * n*n*R/delta and
base = n*N*W*R/eps (N the most actions of a player at a state, W the
granularity, R the reward bound). That bound is never below HARD_CAP: a
phase runs only when n >= 2 and 24*eps < band <= R (bands only shrink from
the h = 0 band, which lies in [0, R]), and delta <= band/4, so base > 48,
R/delta >= 4 and 2*n*kappa >= 4 * 48**3 * 16, about 7.1e6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import GameSpec, Potential, as_potential, game_params, normalize_rewards
from .matrix_game import MatrixGameError, local_solve
from .pump import PumpInvariantError, modified_pump
from .witness import (
    ERGODIC,
    INCONCLUSIVE,
    NON_ERGODIC,
    Verdict,
    WitnessBuildError,
    build_witness,
)

HARD_CAP = 2_000_000  # pump steps per phase; the module docstring says why


def __getattr__(name):
    # scipy's linprog, loaded only when looked up: nothing here calls it, but
    # bench/tracing.py times driver.linprog. ROADMAP item 1 deletes this hook.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DriverConfig:
    pump_cap: int = HARD_CAP  # pump steps per phase
    collect_trace: bool = False


@dataclass
class DriverStats:
    """Counters of one solve.

    phases holds one record per outer iteration: its index h, the entry band
    and, per pump phase run ("phase1", "phase2"), the outcome kind and pump
    steps, plus for "phase2" the band that emptied (None if none did). With
    DriverConfig.collect_trace, trace holds every landed pump step's record
    tagged with its h and phase, in run order. local_games counts the local
    games settled, by the screen or a solve: every state each local solve
    lists. Like outer_iterations it is deterministic, but it is not written
    to the certificate.
    """

    outer_iterations: int = 0
    local_games: int = 0
    phases: list = field(default_factory=list)
    trace: list = field(default_factory=list)


def default_outer_cap(reward_bound: float, eps: float) -> int:
    """Outer-iteration budget from the 7/8 shrink factor per iteration."""
    if reward_bound <= 24 * eps:
        return 1
    return math.ceil(math.log(reward_bound / (24 * eps)) / math.log(8.0 / 7.0)) + 1


def reduce_potential(game: GameSpec, x: Potential) -> tuple[Potential, dict]:
    """Re-compact the potential by subtracting its mean.

    A constant shift of the potential leaves every local game, and so every
    local value, unchanged up to rounding, and the mean does not depend on
    how the states are numbered. Returns the centred potential and
    {"method": "mean-centered", "norm": its max-norm}.
    """
    x = as_potential(x, game.n)
    centered = x - float(np.mean(x))
    norm = float(np.max(np.abs(centered))) if game.n else 0.0
    return centered, {"method": "mean-centered", "norm": norm}


def decide_ergodicity(game: GameSpec, eps: float,
                      config: DriverConfig | None = None) -> tuple[Verdict, DriverStats]:
    """Certify the game 24*eps-ergodic or produce a non-ergodicity witness.

    Rewards are normalized to [0, R] internally; reported band and witness
    thresholds are in normalized units, with the shift in value_offset. The
    game needs no validation here: a GameSpec is valid by construction.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    config = config or DriverConfig()
    normalized, offset = normalize_rewards(game)
    params = game_params(normalized)

    stats = DriverStats()
    try:
        verdict = _drive(normalized, eps, config, params, offset, stats)
    except (MatrixGameError, PumpInvariantError, WitnessBuildError) as exc:
        verdict = Verdict(kind=INCONCLUSIVE, eps=eps, value_offset=offset,
                          reason=f"{type(exc).__name__}: {exc}")
    return verdict, stats


_PHASE_SCOPES = {"phase1": "full-state", "phase2": "high-set"}


def _pump_phase(phase, game, x, m0, m_minus, m_plus, eps, record, params, config, stats):
    """Run one pump phase from the local values m0 at x, capped at config.pump_cap
    steps, and record it as record[phase]; its trace records go to stats.trace."""
    out = modified_pump(game, x, m0, m_minus, m_plus, eps, config.pump_cap,
                        params=params, collect_trace=config.collect_trace)
    record[phase] = {"kind": out.kind, "iterations": out.stats.iterations}
    stats.local_games += out.stats.local_games
    if phase == "phase2":
        record[phase]["collapsed"] = out.collapsed
    if config.collect_trace:
        stats.trace += [{"h": record["h"], "phase": phase, **entry}
                        for entry in out.stats.trace]
    return out


def _drive(game, eps, config, params, offset, stats):
    outer_cap = default_outer_cap(params.reward_bound, eps)

    def stop(kind, **fields):
        stats.outer_iterations = h
        return Verdict(kind=kind, eps=eps, value_offset=offset, **fields)

    def measure(x):
        stats.local_games += game.n
        return local_solve(game, x)

    x = np.zeros(game.n)
    solve = measure(x)  # the local solve that measured the band at x
    h = 0
    while True:
        m = solve.values
        m_minus = float(np.min(m))
        m_plus = float(np.max(m))
        if m_plus - m_minus <= 24 * eps:
            alpha, beta = solve.strategies()
            return stop(ERGODIC, potential=x, floor=m_minus, ceiling=m_plus,
                        alpha=alpha, beta=beta)
        if h >= outer_cap:
            return stop(INCONCLUSIVE,
                        reason=f"outer iteration cap {outer_cap} reached with band width "
                               f"{m_plus - m_minus}")

        record = {"h": h, "band": (m_minus, m_plus)}
        stats.phases.append(record)
        mid = (m_minus + m_plus) / 2.0
        phase = "phase1"
        outcome = first = _pump_phase(phase, game, x, m, m_minus, m_plus, eps, record,
                                      params, config, stats)
        if first.kind == "witness-sets":
            phase = "phase2"
            m_high = first.m_values.copy()
            m_high[sorted(set(range(game.n)) - first.closed_high)] = np.nan
            outcome = _pump_phase(phase, game, first.x, m_high, mid, m_plus, eps, record,
                                  params, config, stats)
        if outcome.kind == "cap-exceeded":
            return stop(INCONCLUSIVE,
                        reason=f"pump step cap {config.pump_cap} exhausted in the "
                               f"{_PHASE_SCOPES[phase]} phase")
        if outcome.kind == "band-collapsed" and (phase == "phase1"
                                                 or outcome.collapsed != "bottom"):
            x = outcome.x  # measured at the pump's last step, in phase 2 on the high set only
            if phase == "phase2":
                solve = measure(x)
            elif outcome.solve is not None:  # else the pump stopped where it started
                solve = outcome.solve
            h += 1
            continue

        # witness exit: a bottom collapse of the high-set phase keeps the
        # first-phase high set, a second-phase witness refines it; the low
        # set stays fixed
        high = first.closed_high if outcome.kind == "band-collapsed" else outcome.closed_high
        low = first.closed_low
        stats.local_games += len(high) + len(low)  # the witness build's solve
        witness = build_witness(game, outcome.x, high, low, ceiling_raw=mid,
                                floor_raw=(5.0 * m_plus + 3.0 * m_minus) / 8.0, eps=eps,
                                value_offset=offset)
        stats.outer_iterations = h
        return witness
