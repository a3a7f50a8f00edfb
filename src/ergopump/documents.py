"""File formats: game documents and solve certificates.

Documents are JSON. Probabilities travel as exact rational strings ("a/b" or
a decimal literal) so the granularity parameter survives round-trips;
rewards, potentials and strategy entries travel as shortest-repr floats,
which round-trip bit-exactly. Serialization sorts keys and fixes the record
order, so equal inputs produce byte-identical documents.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain

import numpy as np

from .game import (
    MAX_REPORTED_ERRORS,
    DocumentError,
    GameSpec,
    make_game,
    normalize_rewards,
    to_fraction,
)
from .witness import ERGODIC, NON_ERGODIC, StrategyCertificate, verify_witness

GAME_FORMAT = "ergopump-game/1"
CERTIFICATE_FORMAT = "ergopump-certificate/3"


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def serialize_game(game: GameSpec) -> str:
    records = [
        {
            "from": game.states[v],
            "row": game.row_actions[v][k],
            "col": game.col_actions[v][l],
            "to": game.states[u],
            "p": _fraction_str(p),
            "r": r,
        }
        for v in range(game.n)
        for k, l, u, p, r in game.transitions[v]
    ]
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
    """Parse a game document into a (validated) GameSpec; raises DocumentError
    with the first 20 problems (JSON position for syntax, record index for
    content)."""
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
    if not isinstance(actions, dict):
        raise DocumentError(["'actions' must map each state to its action lists"])
    row_actions, col_actions = [], []
    for s in states:
        entry = actions.get(s)
        if not isinstance(entry, dict) or "row" not in entry or "col" not in entry:
            problems.append(f"state {s!r}: missing action declaration")
            row_actions.append(("a0",))
            col_actions.append(("b0",))
            continue
        for player, out in (("row", row_actions), ("col", col_actions)):
            names = entry[player]
            if not isinstance(names, list) or not all(isinstance(a, str) for a in names):
                problems.append(f"state {s!r}: {player!r} actions must be a list of names")
                names = []
            out.append(tuple(names))

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
        except KeyError as exc:
            problems.append(f"transition record {idx}: missing field {exc.args[0]!r}")
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"transition record {idx}: {exc}")
    if problems:
        raise DocumentError(problems)
    return make_game(states, row_actions, col_actions, triples)


@dataclass(frozen=True)
class CertificateBundle:
    """A parsed certificate: the fields the recheck reads."""

    verdict_kind: str
    eps: float
    value_offset: float
    certificate: StrategyCertificate | None  # None for an inconclusive verdict


def _strategy_table(game: GameSpec, strategies: dict) -> dict:
    return {game.states[v]: vec.tolist() for v, vec in sorted(strategies.items())}


def serialize_certificate(game: GameSpec, verdict, stats) -> str:
    """Render a solve verdict as a self-contained certificate document."""
    cert = verdict.certificate
    doc = {
        "format": CERTIFICATE_FORMAT,
        "verdict": verdict.kind,
        "epsilon": verdict.eps,
        "value_offset": verdict.value_offset,
        "states": list(game.states),
        # only an ergodic certificate claims its band; per-phase bands stay in metadata
        "band": [verdict.m_minus, verdict.m_plus] if verdict.kind == ERGODIC else None,
        "potential": None if verdict.potential is None else [float(t) for t in verdict.potential],
        "alpha": None if cert is None else _strategy_table(game, cert.alpha),
        "beta": None if cert is None else _strategy_table(game, cert.beta),
        "reason": verdict.reason,
        "non_ergodic": None,
        "metadata": {
            "outer_iterations": stats.outer_iterations,
            "phases": stats.phases,
            "cap_saturated": stats.cap_saturated,
        },
    }
    if verdict.high_states is not None:
        doc["non_ergodic"] = {
            "high_states": sorted(game.states[v] for v in verdict.high_states),
            "low_states": sorted(game.states[v] for v in verdict.low_states),
            "a": verdict.ceiling,
            "b": verdict.floor,
        }
    # one line: json's indenting encoder runs in Python, its compact one in C
    return json.dumps(doc, sort_keys=True) + "\n"


def parse_certificate(text: str, game: GameSpec) -> CertificateBundle:
    """Parse a certificate for `game`; raises DocumentError when a field the
    recheck reads is missing, malformed or does not fit the game."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"JSON syntax error at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}"]) from None
    if not isinstance(doc, dict) or doc.get("format") != CERTIFICATE_FORMAT:
        raise DocumentError([f"not a {CERTIFICATE_FORMAT} document"])
    if doc.get("states") != list(game.states):
        raise DocumentError(["certificate states do not match the game"])
    problems = []

    def finite(values) -> bool:
        # JSON true would pass a conversion as 1, and NaN would make every
        # tolerance comparison of the recheck pass; map and all loop in C
        try:
            return ({int, float}.issuperset(map(type, values))
                    and all(map(math.isfinite, values)))
        except OverflowError:  # an int beyond the float range
            return False

    def number(value, what):
        if finite([value]):
            return float(value)
        problems.append(f"{what} must be a finite number, got {value!r}")
        return 0.0

    def vector(values, size, what) -> list:
        if isinstance(values, list) and len(values) == size and finite(values):
            return values
        problems.append(f"{what}: expected a list of {size} finite numbers")
        return [0.0] * size

    def strategies(alpha_states, beta_states):
        # any non-negative vector with a positive sum names the distribution
        # it is proportional to; the recheck reads that. Each check runs
        # once over both players' tables.
        owners, rows, sizes = [], [], []
        for key, members, size in (("alpha", alpha_states, game.num_row_actions),
                                   ("beta", beta_states, game.num_col_actions)):
            table = doc.get(key)
            table = table if isinstance(table, dict) else {}
            owners.append(sorted(members))
            got = [table.get(game.states[v]) for v in owners[-1]]
            want = [size(v) for v in owners[-1]]
            if [len(row) if isinstance(row, list) else None for row in got] != want:
                problems.append(f"{key}: expected one list per state, with one number "
                                "per action")
            rows += got
            sizes += want
        if problems:
            return {}, {}
        flat = list(chain.from_iterable(rows))
        totals = [0.0]
        with contextlib.suppress(OverflowError):  # finite entries may overflow a sum
            if finite(flat) and min(flat) >= 0:
                totals = list(map(math.fsum, rows))
        if not min(totals) > 0:
            problems.append("every strategy vector needs finite, non-negative entries "
                            "with a positive sum")
            return {}, {}
        normalized = np.array(flat, dtype=np.float64) / np.repeat(totals, sizes)
        starts = [0, *accumulate(sizes)]
        vectors = iter([normalized[a:b] for a, b in zip(starts, starts[1:])])
        # zip draws from vectors only while the player's states last
        return tuple(dict(zip(members, vectors)) for members in owners)

    verdict_kind = doc.get("verdict")
    if not isinstance(verdict_kind, str):
        problems.append("'verdict' must be a string")
    eps = number(doc.get("epsilon"), "'epsilon'")
    value_offset = number(doc.get("value_offset", 0.0), "'value_offset'")
    certificate = None
    if verdict_kind in (ERGODIC, NON_ERGODIC):
        potential = np.array(vector(doc.get("potential"), game.n, "'potential'"),
                             dtype=np.float64)
        if verdict_kind == ERGODIC:
            floor, ceiling = map(float, vector(doc.get("band"), 2, "'band'"))
            alpha_states = beta_states = range(game.n)
        else:
            payload = doc.get("non_ergodic")
            if not isinstance(payload, dict):
                raise DocumentError(["non-ergodic certificate lacks its 'non_ergodic' "
                                     "object"])
            name_to_idx = {s: i for i, s in enumerate(game.states)}

            def states(key):
                names = payload.get(key)
                known = [name_to_idx.get(s) if isinstance(s, str) else None
                         for s in (names if isinstance(names, list) else [None])]
                if None in known:
                    problems.append(f"non_ergodic.{key} must list states of the game")
                return frozenset(v for v in known if v is not None)

            high, low = states("high_states"), states("low_states")
            if not high or not low:
                problems.append("non_ergodic.high_states and non_ergodic.low_states "
                                "must not be empty")
            if high & low:
                problems.append("non_ergodic: states "
                                f"{sorted(game.states[v] for v in high & low)} are in "
                                "both the high and the low set")
            floor = number(payload.get("b"), "non_ergodic.b")
            ceiling = number(payload.get("a"), "non_ergodic.a")
            alpha_states, beta_states = high, low
        alpha, beta = strategies(alpha_states, beta_states)
        certificate = StrategyCertificate(
            kind=verdict_kind,
            alpha=alpha,
            beta=beta,
            potential=potential,
            floor=floor,
            ceiling=ceiling,
            eps=eps,
        )
    if problems:
        raise DocumentError(problems)
    return CertificateBundle(
        verdict_kind=verdict_kind,
        eps=eps,
        value_offset=value_offset,
        certificate=certificate,
    )


def recheck_certificate(game: GameSpec, bundle: CertificateBundle) -> tuple[bool, tuple]:
    """Re-establish a certificate from the game and document alone.

    The normalization offset must match exactly (it round-trips bit-exactly),
    and both verdicts get the one check of witness.verify_witness on the
    normalized game: exact closure, one vectorised pass of one-shot bounds
    and the verdict's claim on its stored bounds. No LP runs.
    """
    normalized, offset = normalize_rewards(game)
    problems = []
    if offset != bundle.value_offset:
        problems.append(
            f"normalization offset mismatch: game gives {offset}, "
            f"certificate says {bundle.value_offset}"
        )
    if bundle.certificate is None:
        problems.append(f"cannot recheck a {bundle.verdict_kind!r} certificate")
    else:
        problems.extend(verify_witness(normalized, bundle.certificate).failures)
    return not problems, tuple(problems)
