"""Outer solve loop: repeated pumping with potential reduction.

Each outer iteration measures the local-value band at the current potential
and stops once its width is at most 24*eps: the potential and the optimal
local strategies of that same measurement certify that all game values sit
in the band. Otherwise one pump pass runs over all states; if it collapses
the band, the potential is mean-centred and the loop continues with a band
at most 3/4 as wide. If it instead finds closed candidate sets, a second
pass pumps only the high set against the upper half-band; either that
collapses too (band at most 7/8 as wide) or the run exits with a
non-ergodicity witness whose certified thresholds are (m_plus + m_minus) / 2
and (5*m_plus + 3*m_minus) / 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import (
    GameParams,
    GameSpec,
    Potential,
    as_potential,
    game_params,
    normalize_rewards,
)
from .matrix_game import MatrixGameError, local_solutions
from .pump import PumpInvariantError, modified_pump
from .witness import (
    ERGODIC,
    NON_ERGODIC,
    StrategyCertificate,
    WitnessBuildError,
    build_witness,
)

INCONCLUSIVE = "inconclusive"
HARD_CAP = 2_000_000  # ceiling the computed pump-step cap saturates at


def __getattr__(name):
    # scipy's linprog, loaded only when looked up: nothing here calls it, but
    # bench/tracing.py times driver.linprog. ROADMAP item 1 deletes this hook.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DriverConfig:
    pump_cap: int | None = None  # overrides the computed per-phase cap
    collect_trace: bool = False


@dataclass(frozen=True)
class Verdict:
    kind: str  # ERGODIC, NON_ERGODIC or INCONCLUSIVE
    eps: float
    potential: Potential | None
    m_minus: float | None
    m_plus: float | None
    value_offset: float  # added to every original reward by normalization
    high_states: frozenset | None = None
    low_states: frozenset | None = None
    floor: float | None = None
    ceiling: float | None = None
    floor_raw: float | None = None
    ceiling_raw: float | None = None
    certificate: StrategyCertificate | None = None  # both certified verdicts
    reason: str | None = None


@dataclass
class DriverStats:
    """Counters of one solve.

    phases holds one record per outer iteration: its index h, the entry band
    and, per pump phase run ("phase1", "phase2"), the outcome kind, pump steps
    and step cap. With DriverConfig.collect_trace, trace holds every landed
    pump step's record tagged with its h and phase, in run order.
    """

    outer_iterations: int = 0
    phases: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    cap_saturated: bool = False


def compute_iteration_cap(params: GameParams, delta: float, eps: float) -> int:
    """Pump-step budget 2*n*kappa + 1, saturating at HARD_CAP on overflow."""
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    n = params.n_states
    base = n * params.max_actions * params.granularity * params.reward_bound / eps
    if base <= 0:
        return 1
    try:
        kappa = base ** (2 ** n - 1) * (n * n * params.reward_bound / delta)
        steps = 2 * n * kappa
        if not math.isfinite(steps) or steps >= HARD_CAP:
            return HARD_CAP
        return int(math.floor(steps)) + 1
    except OverflowError:
        return HARD_CAP


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
        verdict = Verdict(kind=INCONCLUSIVE, eps=eps, potential=None,
                          m_minus=None, m_plus=None, value_offset=offset,
                          reason=f"{type(exc).__name__}: {exc}")
    return verdict, stats


_PHASE_SCOPES = {"phase1": "full-state", "phase2": "high-set"}


def _pump_phase(phase, game, x, states, m_minus, m_plus, eps, record, params, config,
                stats):
    """Run one pump phase and record it as record[phase].

    The step cap comes from the phase's own band unless config.pump_cap
    overrides it; the trace records of the phase go to stats.trace.
    """
    cap = config.pump_cap or compute_iteration_cap(params, (m_plus - m_minus) / 4.0, eps)
    if cap == HARD_CAP:
        stats.cap_saturated = True
    out = modified_pump(game, x, states, m_minus, m_plus, eps, cap, params=params,
                        collect_trace=config.collect_trace)
    record[phase] = {"kind": out.kind, "iterations": out.stats.iterations, "cap": cap}
    if phase == "phase2":
        record[phase]["collapsed"] = out.collapsed
    if config.collect_trace:
        stats.trace += [{"h": record["h"], "phase": phase, **entry}
                        for entry in out.stats.trace]
    return out


def _drive(game, eps, config, params, offset, stats):
    outer_cap = default_outer_cap(params.reward_bound, eps)

    def stop(kind, potential, **fields):
        stats.outer_iterations = h
        return Verdict(kind=kind, eps=eps, potential=potential, m_minus=m_minus,
                       m_plus=m_plus, value_offset=offset, **fields)

    x = np.zeros(game.n)
    h = 0
    while True:
        m, alpha, beta = local_solutions(game, x)
        m_minus = float(np.min(m))
        m_plus = float(np.max(m))
        if m_plus - m_minus <= 24 * eps:
            # the band check's own optimal strategies, clipped at 0, certify the band
            alpha, beta = ({v: np.maximum(vec, 0.0) for v, vec in enumerate(side)}
                           for side in (alpha, beta))
            certificate = StrategyCertificate(kind=ERGODIC, alpha=alpha, beta=beta,
                                              potential=x, floor=m_minus, ceiling=m_plus,
                                              eps=eps)
            return stop(ERGODIC, x, certificate=certificate)
        if h >= outer_cap:
            return stop(INCONCLUSIVE, x,
                        reason=f"outer iteration cap {outer_cap} reached with band width "
                               f"{m_plus - m_minus}")

        record = {"h": h, "band": (m_minus, m_plus)}
        stats.phases.append(record)
        mid = (m_minus + m_plus) / 2.0
        phase = "phase1"
        outcome = first = _pump_phase(phase, game, x, range(game.n), m_minus, m_plus, eps,
                                      record, params, config, stats)
        if first.kind == "witness-sets":
            phase = "phase2"
            outcome = _pump_phase(phase, game, first.x, sorted(first.closed_high), mid,
                                  m_plus, eps, record, params, config, stats)
        if outcome.kind == "cap-exceeded":
            return stop(INCONCLUSIVE, outcome.x,
                        reason=f"pump step cap {record[phase]['cap']} exhausted in the "
                               f"{_PHASE_SCOPES[phase]} phase")
        if outcome.kind == "band-collapsed" and (phase == "phase1"
                                                 or outcome.collapsed != "bottom"):
            x, _ = reduce_potential(game, outcome.x)
            h += 1
            continue

        # witness exit: a bottom collapse of the high-set phase keeps the
        # first-phase high set, a second-phase witness refines it; the low
        # set stays fixed
        high = first.closed_high if outcome.kind == "band-collapsed" else outcome.closed_high
        low = first.closed_low
        ceiling_raw = mid
        floor_raw = (5.0 * m_plus + 3.0 * m_minus) / 8.0
        witness = build_witness(game, outcome.x, high, low, ceiling_raw=ceiling_raw,
                                floor_raw=floor_raw, eps=eps)
        return stop(NON_ERGODIC, outcome.x,
                    high_states=frozenset(high), low_states=frozenset(low),
                    floor=witness.floor, ceiling=witness.ceiling,
                    floor_raw=floor_raw, ceiling_raw=ceiling_raw, certificate=witness)
