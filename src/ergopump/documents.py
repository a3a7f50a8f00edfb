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

import json
import math
import sys
from operator import itemgetter

import numpy as np

from .game import DocumentError, GameSpec, Strategy, make_game
from .witness import ERGODIC, INCONCLUSIVE, NON_ERGODIC, Verdict, verify_witness

GAME_FORMAT = "ergopump-game/1"
CERTIFICATE_FORMAT = "ergopump-certificate/4"
_FIELD_NAMES = ("from", "row", "col", "to", "p", "r")
_RECORD_FIELDS = itemgetter(*_FIELD_NAMES)  # a record object's (v, k, l, u, p, r)
_NUMBERS = frozenset((int, float))  # the types of a JSON number as json reads it


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
    certified kinds write alpha and beta the same way, as each covered state's
    name to its slice of the array, so a witness's high and low sets are their
    keys; an inconclusive verdict's potential, floor, ceiling, alpha and beta
    are None and written as null."""
    def named(strategy, first):  # one tolist per player; NaN != NaN skips a state
        if strategy is None:
            return None
        values, first = strategy.tolist(), first.tolist()
        return {name: values[start:stop] for name, start, stop
                in zip(game.states, first, first[1:]) if values[start] == values[start]}

    doc = {
        "format": CERTIFICATE_FORMAT,
        "verdict": verdict.kind,
        "epsilon": verdict.eps,
        "value_offset": verdict.value_offset,
        "states": list(game.states),
        "potential": verdict.potential,
        "floor": verdict.floor,
        "ceiling": verdict.ceiling,
        "alpha": named(verdict.alpha, game.flat.first_row),
        "beta": named(verdict.beta, game.flat.first_col),
        "reason": verdict.reason,
        "metadata": {
            "outer_iterations": stats.outer_iterations,
            "phases": stats.phases,
        },
    }
    # one line: json's indenting encoder runs in Python, its compact one in C;
    # the potential goes out as a list of shortest-repr floats
    return json.dumps(doc, sort_keys=True, default=np.ndarray.tolist) + "\n"


def parse_certificate(text: str, game: GameSpec) -> Verdict:
    """Decode a certificate for `game` into the Verdict it was written from,
    each table row to its state's slice of a Strategy as written. Raises
    DocumentError only for what a Verdict cannot hold: another format,
    states list, verdict kind or type of reason; a table that does not map
    states of the game to one list each, one entry per action; a value
    that is not a JSON number, or an array entry past the float range; a
    NaN in a row, where it marks an uncovered action. verify_witness judges
    every value."""
    doc = _load(text, CERTIFICATE_FORMAT)
    if doc.get("states") != list(game.states):
        raise DocumentError(["certificate states do not match the game"])
    problems = []

    def number(key):
        if type(doc.get(key)) not in _NUMBERS:
            problems.append(f"{key!r} must be a number, got {doc.get(key)!r}")
        return doc.get(key)

    def arrays():
        # one list, decoded at once: alpha's global rows, then beta's global
        # columns, NaN at the states a table does not list, then the potential
        index = {s: v for v, s in enumerate(game.states)}
        first_row, first_col = game.flat.first_row, game.flat.first_col
        rows_total, total = int(first_row[-1]), int(first_row[-1] + first_col[-1])
        mix, entries = [math.nan] * total, 0
        for key, first, offset in (("alpha", first_row.tolist(), 0),
                                   ("beta", first_col.tolist(), rows_total)):
            table = doc.get(key)
            unknown = sorted(table.keys() - index.keys()) if isinstance(table, dict) else None
            if unknown != []:  # no table, or one naming a state the game lacks
                problems.append(f"{key}: {unknown} are not states of the game" if unknown
                                else f"{key!r} must map state names to strategy vectors")
                continue
            owners, rows = [index[s] for s in table], list(table.values())
            if ([len(row) if isinstance(row, list) else None for row in rows]
                    != [first[v + 1] - first[v] for v in owners]):
                problems.append(f"{key}: expected one list per state, one number per action")
                continue
            for v, row in zip(owners, rows):
                mix[offset + first[v]:offset + first[v + 1]] = row
                entries += len(row)
        if not isinstance(doc.get("potential"), list):
            problems.append("'potential' must be a list of numbers")
        if problems:
            return {}
        mix += doc["potential"]
        try:  # JSON numbers only: a conversion would take true as 1, "0.5" as 0.5
            mix = np.array(mix, dtype=np.float64) if _NUMBERS.issuperset(map(type, mix)) else None
        except OverflowError:  # an int past the float range
            mix = None
        # every NaN among the strategies' entries is an uncovered state's placeholder
        if mix is None or np.count_nonzero(np.isnan(mix[:total])) != total - entries:
            problems.append("'potential', 'alpha' and 'beta' must hold numbers, strategies no NaN")
            return {}
        return {"potential": mix[total:], "alpha": Strategy(mix[:rows_total], first_row),
                "beta": Strategy(mix[rows_total:total], first_col)}

    kind = doc.get("verdict")
    if kind not in (ERGODIC, NON_ERGODIC, INCONCLUSIVE):
        problems.append(f"'verdict' must be {ERGODIC!r}, {NON_ERGODIC!r} or "
                        f"{INCONCLUSIVE!r}, got {kind!r}")
    eps, value_offset = number("epsilon"), number("value_offset")
    reason = doc.get("reason")
    if not (reason is None or isinstance(reason, str)):
        problems.append(f"'reason' must be a string or null, got {reason!r}")
    certified = {}
    if kind in (ERGODIC, NON_ERGODIC):
        certified = dict(arrays(), floor=number("floor"), ceiling=number("ceiling"))
    if problems:
        raise DocumentError(problems)
    return Verdict(kind=kind, eps=eps, value_offset=value_offset, reason=reason, **certified)


def recheck_certificate(game: GameSpec, verdict: Verdict) -> tuple[bool, tuple]:
    """Re-establish a parsed certificate from the game and document alone:
    witness.verify_witness's report on the game as given, as (ok, problems)."""
    report = verify_witness(game, verdict)
    return report.ok, report.failures
