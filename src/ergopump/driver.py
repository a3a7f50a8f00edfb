"""Outer solve loop: repeated pumping with potential reduction.

Each outer iteration measures the local-value band at the current potential
and stops once its width is at most 24*eps (the potential then certifies
that all game values sit in that band). Otherwise one pump pass runs over
all states; if it collapses the band, the potential is mean-centred and the
loop continues with a band at most 3/4 as wide. If it instead finds closed
candidate sets, a second pass pumps only the high set against the upper
half-band; either that collapses too (band at most 7/8 as wide) or the run
exits with a non-ergodicity witness whose certified thresholds are
(m_plus + m_minus) / 2 and (5*m_plus + 3*m_minus) / 8.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
# unused here, but bench/tracing.py looks up and times driver.linprog by name
from scipy.optimize import linprog  # noqa: F401

from .game import (
    GameParams,
    GameSpec,
    Potential,
    as_potential,
    game_params,
    normalize_rewards,
    validate,
)
from .markov import MarkovError, PolicyIterationError
from .matrix_game import MatrixGameError, local_values
from .pump import PumpInvariantError, modified_pump
from .witness import WitnessBuildError, WitnessCertificate, build_witness

ERGODIC = "ergodic-24eps"
NON_ERGODIC = "non-ergodic"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DriverConfig:
    pump_cap: int | None = None  # overrides the computed per-phase cap
    hard_cap: int = 2_000_000  # ceiling the computed cap saturates at
    outer_cap: int | None = None
    matrix_tol: float = 1e-9
    exact: bool = False  # exact-rational strategies in certificates
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
    witness: WitnessCertificate | None = None
    reason: str | None = None


@dataclass
class DriverStats:
    outer_iterations: int = 0
    phases: list = field(default_factory=list)
    cap_saturated: bool = False
    wall_time: float = 0.0


def compute_iteration_cap(params: GameParams, delta: float, eps: float,
                          hard_cap: int = 2_000_000) -> int:
    """Pump-step budget 2*n*kappa + 1, saturating at hard_cap on overflow."""
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    n = params.n_states
    base = n * params.max_actions * params.granularity * params.reward_bound / eps
    if base <= 0:
        return 1
    try:
        kappa = base ** (2 ** n - 1) * (n * n * params.reward_bound / delta)
        steps = 2 * n * kappa
        if not math.isfinite(steps) or steps >= hard_cap:
            return hard_cap
        return int(math.floor(steps)) + 1
    except OverflowError:
        return hard_cap


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
    thresholds are in normalized units, with the shift in value_offset.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    config = config or DriverConfig()
    report = validate(game)
    if not report.ok:
        raise ValueError("invalid game: " + "; ".join(report.problems[:3]))
    normalized, offset = normalize_rewards(game)
    params = game_params(normalized)
    outer_cap = config.outer_cap if config.outer_cap is not None else default_outer_cap(
        params.reward_bound, eps)

    stats = DriverStats()
    start = time.perf_counter()
    try:
        verdict = _drive(normalized, eps, config, params, outer_cap, offset, stats)
    except (MatrixGameError, MarkovError, PolicyIterationError,
            PumpInvariantError, WitnessBuildError) as exc:
        verdict = Verdict(kind=INCONCLUSIVE, eps=eps, potential=None,
                          m_minus=None, m_plus=None, value_offset=offset,
                          reason=f"{type(exc).__name__}: {exc}")
    stats.wall_time = time.perf_counter() - start
    return verdict, stats


def _drive(game, eps, config, params, outer_cap, offset, stats):
    n = game.n
    x = np.zeros(n)
    h = 0
    while True:
        m = local_values(game, x, tol=config.matrix_tol)
        m_minus = float(np.min(m))
        m_plus = float(np.max(m))
        if m_plus - m_minus <= 24 * eps:
            stats.outer_iterations = h
            return Verdict(
                kind=ERGODIC, eps=eps, potential=x, m_minus=m_minus, m_plus=m_plus,
                value_offset=offset,
            )
        if h >= outer_cap:
            stats.outer_iterations = h
            return Verdict(
                kind=INCONCLUSIVE, eps=eps, potential=x, m_minus=m_minus,
                m_plus=m_plus, value_offset=offset,
                reason=f"outer iteration cap {outer_cap} reached with band width "
                       f"{m_plus - m_minus}",
            )

        phase_record = {"h": h, "band": (m_minus, m_plus)}
        delta1 = (m_plus - m_minus) / 4.0
        cap1 = config.pump_cap or compute_iteration_cap(params, delta1, eps,
                                                        config.hard_cap)
        if cap1 == config.hard_cap:
            stats.cap_saturated = True
        first = modified_pump(
            game, x, range(n), m_minus, m_plus, eps, cap1,
            tol=config.matrix_tol, params=params,
            collect_trace=config.collect_trace,
        )
        phase_record["phase1"] = {"kind": first.kind, "iterations": first.stats.iterations,
                                  "cap": cap1}
        if config.collect_trace:
            phase_record["phase1"]["trace"] = first.stats.trace
        stats.phases.append(phase_record)

        if first.kind == "cap-exceeded":
            stats.outer_iterations = h
            return Verdict(
                kind=INCONCLUSIVE, eps=eps, potential=first.x, m_minus=m_minus,
                m_plus=m_plus, value_offset=offset,
                reason=f"pump step cap {cap1} exhausted in the full-state phase",
            )
        if first.kind == "band-collapsed":
            x, _ = reduce_potential(game, first.x)
            h += 1
            continue

        high, low = first.closed_high, first.closed_low
        mid = (m_minus + m_plus) / 2.0
        delta2 = (m_plus - mid) / 4.0
        cap2 = config.pump_cap or compute_iteration_cap(params, delta2, eps,
                                                        config.hard_cap)
        if cap2 == config.hard_cap:
            stats.cap_saturated = True
        second = modified_pump(
            game, first.x, sorted(high), mid, m_plus, eps, cap2,
            tol=config.matrix_tol, params=params,
            collect_trace=config.collect_trace,
        )
        phase_record["phase2"] = {"kind": second.kind,
                                  "iterations": second.stats.iterations,
                                  "cap": cap2, "collapsed": second.collapsed}
        if config.collect_trace:
            phase_record["phase2"]["trace"] = second.stats.trace

        if second.kind == "cap-exceeded":
            stats.outer_iterations = h
            return Verdict(
                kind=INCONCLUSIVE, eps=eps, potential=second.x, m_minus=m_minus,
                m_plus=m_plus, value_offset=offset,
                reason=f"pump step cap {cap2} exhausted in the high-set phase",
            )
        if second.kind == "band-collapsed" and second.collapsed in ("top", "both"):
            x, _ = reduce_potential(game, second.x)
            h += 1
            continue

        # witness exit: bottom collapse keeps the first-phase high set,
        # a second-phase witness refines it; the low set stays fixed
        final_high = high if second.kind == "band-collapsed" else second.closed_high
        x_final = second.x
        ceiling_raw = mid
        floor_raw = (5.0 * m_plus + 3.0 * m_minus) / 8.0
        witness = build_witness(
            game, x_final, final_high, low, ceiling_raw=ceiling_raw,
            floor_raw=floor_raw, eps=eps, reflect_value=m_plus,
            tol=config.matrix_tol, exact=config.exact,
        )
        stats.outer_iterations = h
        return Verdict(
            kind=NON_ERGODIC, eps=eps, potential=x_final,
            m_minus=m_minus, m_plus=m_plus, value_offset=offset,
            high_states=frozenset(final_high), low_states=frozenset(low),
            floor=witness.floor, ceiling=witness.ceiling,
            floor_raw=floor_raw, ceiling_raw=ceiling_raw,
            witness=witness,
        )
