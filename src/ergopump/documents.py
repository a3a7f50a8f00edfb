"""File formats: game documents, solve certificates, strategy profiles.

Documents are JSON. Probabilities travel as exact rational strings ("a/b" or
a decimal literal) so the granularity parameter survives round-trips;
rewards and potentials travel as shortest-repr floats, which round-trip
bit-exactly. Serialization sorts keys and fixes the record order, so equal
inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .game import GameSpec, make_game, normalize_rewards, to_fraction, validate
from .matrix_game import local_values
from .markov import StationaryProfile, make_profile
from .witness import WitnessCertificate, verify_witness

GAME_FORMAT = "ergopump-game/1"
CERTIFICATE_FORMAT = "ergopump-certificate/2"
PROFILE_FORMAT = "ergopump-profile/1"
MAX_REPORTED_ERRORS = 20


class DocumentError(ValueError):
    """Parse or validation failure; problems lists up to 20 findings."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("; ".join(self.problems))


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_game(game: GameSpec) -> str:
    records = []
    for v in range(game.n):
        for k in range(game.num_row_actions(v)):
            for l in range(game.num_col_actions(v)):
                for u in range(game.n):
                    p = game.prob[v][k][l][u]
                    if p == 0:
                        continue
                    records.append({
                        "from": game.states[v],
                        "row": game.row_actions[v][k],
                        "col": game.col_actions[v][l],
                        "to": game.states[u],
                        "p": _fraction_str(p),
                        "r": game.reward[v][k][l][u],
                    })
    doc = {
        "format": GAME_FORMAT,
        "states": list(game.states),
        "actions": {
            game.states[v]: {
                "row": list(game.row_actions[v]),
                "col": list(game.col_actions[v]),
            }
            for v in range(game.n)
        },
        "transitions": records,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_game(text: str) -> GameSpec:
    """Parse and validate a game document; raises DocumentError with the
    first 20 problems (JSON position for syntax, record index for content)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"JSON syntax error at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}"]) from None
    problems = []
    if not isinstance(doc, dict) or doc.get("format") != GAME_FORMAT:
        raise DocumentError([f"not a {GAME_FORMAT} document"])
    states = doc.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise DocumentError(["'states' must be a non-empty list of names"])
    if len(set(states)) != len(states):
        raise DocumentError(["duplicate state names"])
    actions = doc.get("actions", {})
    row_actions, col_actions = [], []
    for s in states:
        entry = actions.get(s)
        if not isinstance(entry, dict) or "row" not in entry or "col" not in entry:
            problems.append(f"state {s!r}: missing action declaration")
            row_actions.append(("a0",))
            col_actions.append(("b0",))
            continue
        row_actions.append(tuple(entry["row"]))
        col_actions.append(tuple(entry["col"]))

    records = doc.get("transitions")
    if not isinstance(records, list):
        raise DocumentError(problems + ["'transitions' must be a list"])
    triples = []
    for idx, rec in enumerate(records):
        if len(problems) >= MAX_REPORTED_ERRORS:
            break
        try:
            p = to_fraction(rec["p"])
            triples.append((rec["from"], rec["row"], rec["col"], rec["to"], p,
                            float(rec["r"])))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"transition record {idx}: {exc}")
    if problems:
        raise DocumentError(problems[:MAX_REPORTED_ERRORS])
    try:
        game = make_game(states, row_actions, col_actions, triples)
    except (KeyError, ValueError) as exc:
        # re-scan to attach record indices to the offending tokens
        problems = []
        for idx, rec in enumerate(records):
            try:
                make_game(states, row_actions, col_actions,
                          [(rec["from"], rec["row"], rec["col"], rec["to"],
                            to_fraction(rec["p"]), float(rec["r"]))])
            except (KeyError, ValueError) as inner:
                problems.append(f"transition record {idx}: {inner}")
            if len(problems) >= MAX_REPORTED_ERRORS:
                break
        raise DocumentError(problems or [str(exc)]) from None
    report = validate(game)
    if not report.ok:
        raise DocumentError(report.problems[:MAX_REPORTED_ERRORS])
    return game


def serialize_profile(game: GameSpec, profile: StationaryProfile) -> str:
    doc = {
        "format": PROFILE_FORMAT,
        "alpha": {game.states[v]: list(map(float, profile.alpha[v])) for v in range(game.n)},
        "beta": {game.states[v]: list(map(float, profile.beta[v])) for v in range(game.n)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_profile(text: str, game: GameSpec) -> StationaryProfile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"JSON syntax error at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}"]) from None
    if not isinstance(doc, dict) or doc.get("format") != PROFILE_FORMAT:
        raise DocumentError([f"not a {PROFILE_FORMAT} document"])

    def _vectors(key, counts):
        table = doc.get(key, {})
        out = []
        for v, name in enumerate(game.states):
            if name not in table:
                raise DocumentError([f"{key}: missing state {name!r}"])
            vec = [float(to_fraction(val)) for val in table[name]]
            if len(vec) != counts(v):
                raise DocumentError([f"{key}[{name!r}]: expected {counts(v)} entries"])
            out.append(np.array(vec))
        return out

    alpha = _vectors("alpha", game.num_row_actions)
    beta = _vectors("beta", game.num_col_actions)
    try:
        return make_profile(game, alpha, beta)
    except ValueError as exc:
        raise DocumentError([str(exc)]) from None


@dataclass(frozen=True)
class CertificateBundle:
    """A parsed certificate: the verdict payload plus solver metadata."""

    verdict_kind: str
    eps: float
    value_offset: float
    band: tuple | None
    potential: np.ndarray | None
    witness: WitnessCertificate | None
    reason: str | None
    metadata: dict


def serialize_certificate(game: GameSpec, verdict, stats) -> str:
    """Render a solve verdict as a self-contained certificate document."""
    doc = {
        "format": CERTIFICATE_FORMAT,
        "verdict": verdict.kind,
        "epsilon": verdict.eps,
        "value_offset": verdict.value_offset,
        "states": list(game.states),
        "band": None if verdict.m_minus is None else [verdict.m_minus, verdict.m_plus],
        "potential": None if verdict.potential is None else [float(t) for t in verdict.potential],
        "reason": verdict.reason,
        "non_ergodic": None,
        "metadata": {
            "outer_iterations": stats.outer_iterations,
            "phases": _strip_traces(stats.phases),
            "cap_saturated": stats.cap_saturated,
        },
    }
    w = verdict.witness
    if w is not None:
        payload = {
            "high_states": sorted(game.states[v] for v in w.high_states),
            "low_states": sorted(game.states[v] for v in w.low_states),
            "a": w.ceiling,
            "b": w.floor,
            "a_prime": w.ceiling_raw,
            "b_prime": w.floor_raw,
            "alpha": {game.states[v]: [_sig12(t) for t in vec]
                      for v, vec in sorted(w.high_strategies.items())},
            "beta": {game.states[v]: [_sig12(t) for t in vec]
                     for v, vec in sorted(w.low_strategies.items())},
        }
        if w.high_exact:
            payload["alpha_exact"] = {
                game.states[v]: [_fraction_str(f) for f in vec]
                for v, vec in sorted(w.high_exact.items())
            }
        if w.low_exact:
            payload["beta_exact"] = {
                game.states[v]: [_fraction_str(f) for f in vec]
                for v, vec in sorted(w.low_exact.items())
            }
        doc["non_ergodic"] = payload
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sig12(value: float) -> float:
    """Round to 12 significant digits (strategy entries in certificates)."""
    return float(f"{float(value):.12g}")


def _strip_traces(phases):
    out = []
    for record in phases:
        cleaned = {}
        for key, val in record.items():
            if isinstance(val, dict):
                cleaned[key] = {k: v for k, v in val.items() if k != "trace"}
            else:
                cleaned[key] = val
        out.append(cleaned)
    return out


def parse_certificate(text: str, game: GameSpec) -> CertificateBundle:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"JSON syntax error at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}"]) from None
    if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
        raise DocumentError([f"not a {CERTIFICATE_FORMAT} document"])
    if doc.get("states") != list(game.states):
        raise DocumentError(["certificate states do not match the game"])
    potential = doc.get("potential")
    if potential is not None:
        potential = np.array([float(t) for t in potential])
    witness = None
    payload = doc.get("non_ergodic")
    if payload is not None:
        if potential is None:
            raise DocumentError(["non-ergodic certificate lacks a potential vector"])
        name_to_idx = {s: i for i, s in enumerate(game.states)}
        high = frozenset(name_to_idx[s] for s in payload["high_states"])
        low = frozenset(name_to_idx[s] for s in payload["low_states"])
        witness = WitnessCertificate(
            high_states=high,
            low_states=low,
            high_strategies={
                name_to_idx[s]: np.array([float(t) for t in vec])
                for s, vec in payload["alpha"].items()
            },
            low_strategies={
                name_to_idx[s]: np.array([float(t) for t in vec])
                for s, vec in payload["beta"].items()
            },
            potential=potential,
            floor=float(payload["b"]),
            ceiling=float(payload["a"]),
            floor_raw=float(payload["b_prime"]),
            ceiling_raw=float(payload["a_prime"]),
            eps=float(doc["epsilon"]),
        )
    band = doc.get("band")
    return CertificateBundle(
        verdict_kind=doc["verdict"],
        eps=float(doc["epsilon"]),
        value_offset=float(doc.get("value_offset", 0.0)),
        band=None if band is None else (float(band[0]), float(band[1])),
        potential=potential,
        witness=witness,
        reason=doc.get("reason"),
        metadata=doc.get("metadata", {}),
    )


def recheck_certificate(game: GameSpec, bundle: CertificateBundle,
                        band_tol: float = 1e-7) -> tuple[bool, tuple]:
    """Re-establish a certificate from the game and document alone.

    Ergodic: recompute all local values at the stored potential and check the
    band is at most 24*eps wide and consistent with the stored one.
    Non-ergodic: run the full three-stage witness verification.
    """
    normalized, offset = normalize_rewards(game)
    problems = []
    if abs(offset - bundle.value_offset) > 1e-9:
        problems.append(
            f"normalization offset mismatch: game gives {offset}, "
            f"certificate says {bundle.value_offset}"
        )
    if bundle.verdict_kind == "ergodic-24eps":
        if bundle.potential is None or bundle.band is None:
            return False, ("ergodic certificate lacks potential or band",)
        m = local_values(normalized, bundle.potential)
        width = float(np.nanmax(m) - np.nanmin(m))
        if width > 24 * bundle.eps + band_tol:
            problems.append(
                f"recomputed local-value band width {width} exceeds "
                f"24*eps = {24 * bundle.eps}"
            )
        lo, hi = bundle.band
        if np.nanmin(m) < lo - band_tol or np.nanmax(m) > hi + band_tol:
            problems.append("recomputed local values leave the stored band")
    elif bundle.verdict_kind == "non-ergodic":
        if bundle.witness is None:
            return False, ("non-ergodic certificate lacks a witness payload",)
        if bundle.witness.floor <= bundle.witness.ceiling:
            problems.append(
                f"certificate floor {bundle.witness.floor} does not exceed "
                f"ceiling {bundle.witness.ceiling}"
            )
        report = verify_witness(normalized, bundle.witness)
        if not report.ok:
            problems.extend(report.failures)
    else:
        problems.append(f"cannot recheck a {bundle.verdict_kind!r} certificate")
    return not problems, tuple(problems)
