"""File formats: game documents and solve certificates.

A certificate is the document form of a witness.Verdict: serialize_certificate
writes the record a solve returns, and parse_certificate reads it back as the
same record for recheck_certificate. Documents are JSON. Probabilities travel
as exact rational strings ("a/b" or a decimal literal) so the granularity
parameter survives round-trips; rewards, potentials and strategy entries
travel as shortest-repr floats, which round-trip bit-exactly. Serialization
sorts keys and fixes the record order, so equal inputs produce byte-identical
documents.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from itertools import accumulate, chain
from operator import itemgetter

import numpy as np

from .game import DocumentError, GameSpec, _finite, make_game, normalize_rewards
from .witness import ERGODIC, INCONCLUSIVE, NON_ERGODIC, Verdict, verify_witness

GAME_FORMAT = "ergopump-game/1"
CERTIFICATE_FORMAT = "ergopump-certificate/4"
_FIELD_NAMES = ("from", "row", "col", "to", "p", "r")
_RECORD_FIELDS = itemgetter(*_FIELD_NAMES)  # a record object's (v, k, l, u, p, r)


def serialize_game(game: GameSpec) -> str:
    records = [
        {
            "from": game.states[v],
            "row": game.row_actions[v][k],
            "col": game.col_actions[v][l],
            "to": game.states[u],
            "p": str(p),  # "a/b", or "a" when b is 1
            "r": r,
        }
        for v, state_records in enumerate(game.transitions)
        for k, l, u, p, r in state_records
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


def _load(text: str, fmt: str) -> dict:
    """The JSON object of a document in format fmt; raises DocumentError on a
    syntax error (with its position), on JSON that Python cannot hold (an
    integer literal past the int string-conversion limit, or nesting past
    the recursion limit) or on another format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError([f"JSON syntax error at line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}"]) from None
    except ValueError:  # the one other ValueError: int() refuses an over-long literal
        raise DocumentError([f"JSON integer literal longer than "
                             f"{sys.get_int_max_str_digits()} digits"]) from None
    except RecursionError:
        raise DocumentError(["JSON nesting too deep to read"]) from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise DocumentError([f"not a {fmt} document"])
    return doc


def parse_game(text: str) -> GameSpec:
    """Parse a game document into a (validated) GameSpec; raises DocumentError
    with the first 20 problems (JSON position for syntax, record index for
    content). Only the shape is checked here: the format, the states list,
    the action declarations, and that each record is an object with the six
    fields. make_game checks the records' values, and validate the game."""
    doc = _load(text, GAME_FORMAT)
    problems = []
    states = doc.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise DocumentError(["'states' must be a non-empty list of names"])
    actions = doc.get("actions", {})
    if not isinstance(actions, dict):
        raise DocumentError(["'actions' must map each state to its action lists"])
    row_actions, col_actions = [], []  # read only when no problem is found
    for s in states:
        entry = actions.get(s)
        if not isinstance(entry, dict) or "row" not in entry or "col" not in entry:
            problems.append(f"state {s!r}: missing action declaration")
            continue
        for player, out in (("row", row_actions), ("col", col_actions)):
            names = entry[player]
            if not isinstance(names, list) or not all(isinstance(a, str) for a in names):
                problems.append(f"state {s!r}: {player!r} actions must be a list of names")
            out.append(names)

    records = doc.get("transitions")
    if not isinstance(records, list):
        raise DocumentError(problems + ["'transitions' must be a list"])
    try:
        triples = list(map(_RECORD_FIELDS, records))
    except (KeyError, TypeError):  # a record that is no object or lacks a field
        for idx, rec in enumerate(records):
            if not isinstance(rec, dict):
                problems.append(f"transition record {idx}: the record is not an object")
                continue
            missing = next((key for key in _FIELD_NAMES if key not in rec), None)
            if missing is not None:
                problems.append(f"transition record {idx}: missing field {missing!r}")
    if problems:
        raise DocumentError(problems)
    return make_game(states, row_actions, col_actions, triples)


def serialize_certificate(game: GameSpec, verdict: Verdict, stats) -> str:
    """Render a solve verdict as a self-contained certificate document. Both
    certified kinds write their fields the same way, so a witness's high and
    low sets are the keys of alpha and beta; an inconclusive verdict's
    potential, floor, ceiling, alpha and beta are None and written as null."""
    def named(strategies):
        return strategies and {game.states[v]: vec for v, vec in sorted(strategies.items())}

    doc = {
        "format": CERTIFICATE_FORMAT,
        "verdict": verdict.kind,
        "epsilon": verdict.eps,
        "value_offset": verdict.value_offset,
        "states": list(game.states),
        "potential": verdict.potential,
        "floor": verdict.floor,
        "ceiling": verdict.ceiling,
        "alpha": named(verdict.alpha),
        "beta": named(verdict.beta),
        "reason": verdict.reason,
        "metadata": {
            "outer_iterations": stats.outer_iterations,
            "phases": stats.phases,
        },
    }
    # one line: json's indenting encoder runs in Python, its compact one in C;
    # potential and strategy arrays go out as lists of shortest-repr floats
    return json.dumps(doc, sort_keys=True, default=np.ndarray.tolist) + "\n"


def parse_certificate(text: str, game: GameSpec) -> Verdict:
    """Parse a certificate for `game` back into the Verdict it was written
    from; raises DocumentError when the verdict kind is unknown or a field the
    recheck reads is missing, malformed or does not fit the game.

    It checks form only: what the certificate claims (which states alpha and
    beta cover, and the bounds) is for recheck_certificate to judge.
    """
    doc = _load(text, CERTIFICATE_FORMAT)
    if doc.get("states") != list(game.states):
        raise DocumentError(["certificate states do not match the game"])
    problems = []

    def number(key, positive=False):
        value = doc.get(key)
        if _finite([value]) and (value > 0 or not positive):
            return float(value)
        problems.append(f"{key!r} must be a {'positive ' if positive else ''}finite "
                        f"number, got {value!r}")
        return 0.0

    def strategies():
        # any non-negative vector with a positive sum names the distribution
        # it is proportional to; the recheck reads that. Each check runs
        # once over both players' tables.
        index = {s: v for v, s in enumerate(game.states)}
        owners, rows, sizes = [], [], []
        for key, size in (("alpha", game.num_row_actions), ("beta", game.num_col_actions)):
            table = doc.get(key)
            if not isinstance(table, dict):
                problems.append(f"{key!r} must map state names to strategy vectors")
                table = {}
            names = [s for s in table if s in index]
            if len(names) < len(table):
                problems.append(f"{key}: {sorted(set(table) - set(names))} are not "
                                "states of the game")
            owners.append([index[s] for s in names])
            got = [table[s] for s in names]
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
            # both tables may be empty: covering no state is the recheck's to judge
            if _finite(flat) and min(flat, default=0.0) >= 0:
                totals = list(map(math.fsum, rows))
        if not min(totals, default=1.0) > 0:
            problems.append("every strategy vector needs finite, non-negative entries "
                            "with a positive sum")
            return {}, {}
        normalized = np.array(flat, dtype=np.float64) / np.repeat(totals, sizes)
        starts = [0, *accumulate(sizes)]
        vectors = iter([normalized[a:b] for a, b in zip(starts, starts[1:])])
        # zip draws from vectors only while the player's states last
        return tuple(dict(zip(members, vectors)) for members in owners)

    kind = doc.get("verdict")
    if kind not in (ERGODIC, NON_ERGODIC, INCONCLUSIVE):
        problems.append(f"'verdict' must be {ERGODIC!r}, {NON_ERGODIC!r} or "
                        f"{INCONCLUSIVE!r}, got {kind!r}")
    eps = number("epsilon", positive=True)
    value_offset = number("value_offset")
    reason = doc.get("reason")
    if not (reason is None or isinstance(reason, str)):
        problems.append(f"'reason' must be a string or null, got {reason!r}")
    certified = {}
    if kind in (ERGODIC, NON_ERGODIC):
        potential = doc.get("potential")
        if isinstance(potential, list) and len(potential) == game.n and _finite(potential):
            certified["potential"] = np.array(potential, dtype=np.float64)
        else:
            problems.append(f"'potential': expected a list of {game.n} finite numbers")
        certified.update(floor=number("floor"), ceiling=number("ceiling"))
        certified["alpha"], certified["beta"] = strategies()
    if problems:
        raise DocumentError(problems)
    return Verdict(kind=kind, eps=eps, value_offset=value_offset, reason=reason, **certified)


def recheck_certificate(game: GameSpec, verdict: Verdict) -> tuple[bool, tuple]:
    """Re-establish a parsed certificate from the game and document alone.

    The normalization offset must match exactly (it round-trips bit-exactly),
    and every verdict gets the one check of witness.verify_witness on the
    normalized game: exact closure, one vectorised pass of one-shot bounds
    and the verdict's claim on its stored bounds, which an inconclusive
    verdict cannot pass. No LP runs.
    """
    normalized, offset = normalize_rewards(game)
    problems = []
    if offset != verdict.value_offset:
        problems.append(
            f"normalization offset mismatch: game gives {offset}, "
            f"certificate says {verdict.value_offset}"
        )
    problems.extend(verify_witness(normalized, verdict).failures)
    return not problems, tuple(problems)
