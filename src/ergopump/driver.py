"""Outer solve loop: repeated pumping, one measurement of local values per potential.

decide_ergodicity returns a witness.Verdict, the one result record; the
three verdict kinds are defined there and bound here for callers that import
them from the driver.

The loop holds one record, the matrix_game.LocalSolve of its current
potential: the h = 0 solve at the zero potential, the pump's last step, or
the re-solve of all states after a high-set phase. Each outer iteration
reads the local-value band off it and stops once its width is at most
24*eps: the solve's potential and optimal local strategies certify that all
game values sit in the band. Otherwise one pump pass, started from that
solve, runs over all states; if it collapses the band, the loop goes on from
the pump's last solve, not re-centred (a constant shift changes no local
game), with a band at most 3/4 as wide. If it instead finds closed
candidate sets, a second pass pumps only the high set against the upper
half-band, entering with the first pass's last solve restricted to the high
set; either that collapses too (band at most 7/8 as wide) or the run exits
with a non-ergodicity witness whose certified thresholds are
(m_plus + m_minus) / 2 and (5*m_plus + 3*m_minus) / 8.

Each potential's local games are settled once: an ergodic exit lays out its
solve's strategies instead of solving again, a witness exit takes the high
set's from the pump's last solve, which lists that set, and solves only the
low set, and DriverStats.local_games counts every local game a run settles.

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
from typing import NamedTuple

import numpy as np

from .game import GameSpec, Potential, _finite, as_potential, game_params, normalize_rewards
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


class DriverConfig(NamedTuple):
    pump_cap: int = HARD_CAP  # pump steps per phase
    collect_trace: bool = False


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

    __slots__ = ("outer_iterations", "local_games", "phases", "trace")

    def __init__(self):
        self.outer_iterations = 0
        self.local_games = 0
        self.phases = []
        self.trace = []


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
    thresholds are in normalized units. The shift is stamped here, and only
    here, as value_offset on the verdict returned, certified or inconclusive.
    The game needs no validation here: a GameSpec is valid by construction.
    eps is read as verify_witness reads a verdict's: a finite int or float,
    numpy's included, a bool not, above 0; the verdict holds it as a float.
    """
    if not (_finite([eps]) and eps > 0):
        raise ValueError("eps must be positive and finite")
    eps = float(eps)
    config = config or DriverConfig()
    normalized, offset = normalize_rewards(game)

    stats = DriverStats()
    try:
        verdict = _drive(normalized, eps, config, stats)
    except (MatrixGameError, PumpInvariantError, WitnessBuildError) as exc:
        verdict = Verdict(kind=INCONCLUSIVE, eps=eps, reason=f"{type(exc).__name__}: {exc}")
    return verdict._replace(value_offset=offset), stats


_PHASE_SCOPES = {"phase1": "full-state", "phase2": "high-set"}


def _pump_phase(phase, game, entry, m_minus, m_plus, eps, record, config, stats):
    """Run one pump phase from the local solve `entry`, capped at config.pump_cap
    steps, and record it as record[phase]; its trace records go to stats.trace."""
    out = modified_pump(game, entry, m_minus, m_plus, eps, config.pump_cap,
                        collect_trace=config.collect_trace)
    record[phase] = {"kind": out.kind, "iterations": out.stats.iterations}
    stats.local_games += out.stats.local_games
    if phase == "phase2":
        record[phase]["collapsed"] = out.collapsed
    if config.collect_trace:
        stats.trace += [{"h": record["h"], "phase": phase, **step}
                        for step in out.stats.trace]
    return out


def _drive(game, eps, config, stats):
    outer_cap = default_outer_cap(game_params(game).reward_bound, eps)

    def stop(kind, **fields):
        stats.outer_iterations = h
        return Verdict(kind=kind, eps=eps, **fields)

    def measure(x):
        stats.local_games += game.n
        return local_solve(game, x)

    solve = measure(np.zeros(game.n))  # the local solve at the current potential
    h = 0
    while True:
        m = solve.values
        m_minus = float(m.min())
        m_plus = float(m.max())
        if m_plus - m_minus <= 24 * eps:
            return stop(ERGODIC, potential=solve.x, floor=m_minus, ceiling=m_plus,
                        alpha=solve.strategy("row"), beta=solve.strategy("col"))
        if h >= outer_cap:
            return stop(INCONCLUSIVE,
                        reason=f"outer iteration cap {outer_cap} reached with band width "
                               f"{m_plus - m_minus}")

        record = {"h": h, "band": (m_minus, m_plus)}
        stats.phases.append(record)
        mid = (m_minus + m_plus) / 2.0
        phase = "phase1"
        outcome = first = _pump_phase(phase, game, solve, m_minus, m_plus, eps, record,
                                      config, stats)
        if first.kind == "witness-sets":
            phase = "phase2"
            high_only = first.solve.values.copy()
            high_only[sorted(set(range(game.n)) - first.closed[0])] = np.nan
            outcome = _pump_phase(phase, game, first.solve._replace(values=high_only), mid,
                                  m_plus, eps, record, config, stats)
        if outcome.kind == "cap-exceeded":
            return stop(INCONCLUSIVE,
                        reason=f"pump step cap {config.pump_cap} exhausted in the "
                               f"{_PHASE_SCOPES[phase]} phase")
        if outcome.kind == "band-collapsed" and (phase == "phase1"
                                                 or outcome.collapsed != "bottom"):
            # phase 2 measured the high set only
            solve = measure(outcome.solve.x) if phase == "phase2" else outcome.solve
            h += 1
            continue

        # witness exit: a bottom collapse of the high-set phase keeps the
        # first-phase high set, a second-phase witness refines it; the low
        # set stays fixed
        high = (first if outcome.kind == "band-collapsed" else outcome).closed[0]
        low = first.closed[1]
        stats.local_games += len(low)  # the witness build solves the low set only
        witness = build_witness(game, outcome.solve, high, low, ceiling_raw=mid,
                                floor_raw=(5.0 * m_plus + 3.0 * m_minus) / 8.0, eps=eps)
        stats.outer_iterations = h
        return witness
