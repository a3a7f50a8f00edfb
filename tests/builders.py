"""Tiny game constructors and test helpers shared across test modules."""

import sys
from collections import Counter
from fractions import Fraction

import numpy as np

import reference
from ergopump.game import Strategy, make_game, state_mask
from ergopump.witness import NON_ERGODIC, Verdict


def one_state(reward=5.0):
    return make_game(["s"], [["a"]], [["x"]], [("s", "a", "x", "s", 1, reward)])


def disconnected(low=0.0, high=10.0):
    return make_game(
        ["low", "high"], [["a"], ["a"]], [["x"], ["x"]],
        [("low", "a", "x", "low", 1, low), ("high", "a", "x", "high", 1, high)],
    )


def leaky_pair(leak="1e-300", low=0.0, high=10.0):
    """Two absorbing-but-for-a-leak states: each moves to the other with the
    exact probability leak, so W is 1/leak, which may exceed the float range."""
    stay = str(1 - Fraction(leak))
    return make_game(
        ["low", "high"], [["a"], ["a"]], [["x"], ["x"]],
        [("low", "a", "x", "low", stay, low), ("low", "a", "x", "high", leak, low),
         ("high", "a", "x", "high", stay, high), ("high", "a", "x", "low", leak, high)],
    )


def two_cycle(r_forward=0.0, r_back=4.0):
    return make_game(
        ["v", "u"], [["a"], ["a"]], [["x"], ["x"]],
        [("v", "a", "x", "u", 1, r_forward), ("u", "a", "x", "v", 1, r_back)],
    )


def big_match():
    return make_game(
        ["live", "win", "lose"],
        [["dare", "wait"], ["stay"], ["stay"]],
        [["left", "right"], ["stay"], ["stay"]],
        [
            ("live", "dare", "left", "win", 1, 1.0),
            ("live", "dare", "right", "lose", 1, 0.0),
            ("live", "wait", "left", "live", 1, 0.0),
            ("live", "wait", "right", "live", 1, 1.0),
            ("win", "stay", "stay", "win", 1, 1.0),
            ("lose", "stay", "stay", "lose", 1, 0.0),
        ],
    )


def matrix_as_game(matrix):
    """A 1-state game whose single local game is `matrix` (all self-loops)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    m, n = matrix.shape
    rows = [f"a{k}" for k in range(m)]
    cols = [f"b{l}" for l in range(n)]
    records = [
        ("s", rows[k], cols[l], "s", 1, float(matrix[k, l]))
        for k in range(m)
        for l in range(n)
    ]
    return make_game(["s"], [rows], [cols], records)


def _named_records(game):
    """The game's records as (v, k, l, u, p, r) names, p exact."""
    return [(game.states[v], game.row_actions[v][k], game.col_actions[v][l], game.states[u], p, r)
            for v, recs in enumerate(game.transitions) for k, l, u, p, r in recs]


def permute_actions(game, rng):
    """The same game with each state's row and column actions declared in an
    rng-drawn order, so every action has a new index."""
    row_actions, col_actions = ([[acts[i] for i in rng.permutation(len(acts))] for acts in actions]
                                for actions in (game.row_actions, game.col_actions))
    return make_game(game.states, row_actions, col_actions, _named_records(game))


def duplicate_action(game, rng):
    """The same game with one rng-drawn action of each player, at an
    rng-drawn state each, repeated under a new name at an rng-drawn index:
    the copy's records are the original's."""
    actions = [list(map(list, game.row_actions)), list(map(list, game.col_actions))]
    records = _named_records(game)
    for player, declared in enumerate(actions):
        v = int(rng.integers(game.n))
        original = declared[v][int(rng.integers(len(declared[v])))]
        copy = original + "'"
        while copy in declared[v]:
            copy += "'"
        declared[v].insert(int(rng.integers(len(declared[v]) + 1)), copy)
        state = game.states[v]
        records += [rec[:1 + player] + (copy,) + rec[2 + player:] for rec in records
                    if rec[0] == state and rec[1 + player] == original]
    return make_game(game.states, *actions, records)


def strategy(game, tables, player):
    """One player's Strategy from per-state vectors {state: vector}, laid out
    by reference.layout."""
    first = game.flat.first_row if player == "row" else game.flat.first_col
    return Strategy(reference.layout(game, tables, player), first)


def verdict(game, alpha, beta, kind=NON_ERGODIC, **fields):
    """A certified Verdict for game built in code, its strategies given as
    per-state vectors {state: vector}."""
    return Verdict(kind=kind, alpha=strategy(game, alpha, "row"),
                   beta=strategy(game, beta, "col"), **fields)


def random_dense_game(rng, n=3, max_actions=2, denominator=4, reward_lo=0.0, reward_hi=8.0):
    """Random game with full-support grid transitions (always valid)."""
    from fractions import Fraction

    states = [f"s{v}" for v in range(n)]
    row_actions = [[f"a{k}" for k in range(int(rng.integers(1, max_actions + 1)))]
                   for _ in range(n)]
    col_actions = [[f"b{l}" for l in range(int(rng.integers(1, max_actions + 1)))]
                   for _ in range(n)]
    records = []
    for v in range(n):
        for k in range(len(row_actions[v])):
            for l in range(len(col_actions[v])):
                cuts = sorted(rng.choice(np.arange(1, denominator * n), size=n - 1,
                                         replace=False).tolist()) if n > 1 else []
                edges = [0] + cuts + [denominator * n]
                for u in range(n):
                    part = edges[u + 1] - edges[u]
                    if part == 0:
                        continue
                    records.append((
                        states[v], row_actions[v][k], col_actions[v][l], states[u],
                        Fraction(part, denominator * n),
                        round(float(rng.uniform(reward_lo, reward_hi)), 6),
                    ))
    return make_game(states, row_actions, col_actions, records)


def max_mass_into(game, targets):
    """Per state v, the largest probability, over the action pairs at v, of
    moving into targets, summed exactly over v's transition records; the
    records are derived once per call."""
    masses = []
    for records in game.transitions:
        mass = {}
        for k, l, u, p, _r in records:
            mass[k, l] = mass.get((k, l), 0) + (p if u in targets else 0)
        masses.append(float(max(mass.values())))
    return masses


def count_calls(monkeypatch, names, weight=None):
    """Count calls of the named functions: each is replaced, in every loaded
    ergopump module that binds it, by a wrapper adding to the returned
    Counter 1 per call, or weight(*args, **kwargs) if given."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1 if weight is None else weight(*args, **kwargs)
            return original(*args, **kwargs)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] != "ergopump":
            continue
        for name in names:
            original = vars(module).get(name)
            if callable(original):
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


def count_local_games(monkeypatch):
    """Count the local games settled, by the pure-saddle screen or a solve:
    the states each local_solve call lists (all of them when it lists none,
    the true entries of a bool mask), summed by the returned Counter's
    total(). local_values settles its games through local_solve."""
    def listed(game, x, states=None):
        return game.n if states is None else int(np.count_nonzero(state_mask(game.n, states)))

    return count_calls(monkeypatch, ("local_solve",), weight=listed)


# ways to break a certificate: per case, the game, the eps to solve it at,
# the edit, and None where parse_certificate rejects the document, else a
# failure recheck_certificate must report. The parser only decodes, so a
# value a Verdict can hold (a bound, epsilon, the potential's length, a
# strategy's entries and sums) and what a certificate claims (which states
# alpha and beta cover) fail the recheck, which names the field.
# disconnected(0, 10) gives a non-ergodicity witness at eps 0.1 and an
# ergodic certificate at 1.0; _SPLIT a witness whose high set is the
# 2-cycle of u and v; the matrix game [[3, 1], [0, 2]] an ergodic
# certificate with alpha (1/2, 1/2)
_DISCONNECTED = disconnected(0.0, 10.0)
_SPLIT = make_game(
    ["low", "u", "v"], [["a"]] * 3, [["x"]] * 3,
    [("low", "a", "x", "low", 1, 0.0), ("u", "a", "x", "v", 1, 10.0),
     ("v", "a", "x", "u", 1, 10.0)],
)
_MIXED = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
MALFORMED_CERTIFICATES = {
    "unknown high state": (_DISCONNECTED, 0.1, lambda doc: doc.update(
        alpha={"ghost": doc["alpha"]["high"]}), None),
    "unknown verdict": (_DISCONNECTED, 0.1, lambda doc: doc.update(verdict="maybe"), None),
    "missing epsilon": (_DISCONNECTED, 0.1, lambda doc: doc.pop("epsilon"), None),
    # NaN would disable every tolerance
    "NaN epsilon": (_DISCONNECTED, 0.1, lambda doc: doc.update(epsilon=float("nan")),
                    "eps: expected a positive finite number, got nan"),
    # a slack of min(eps/10, 1e-6) that is 0 or negative breaks every bound
    "zero epsilon": (_DISCONNECTED, 0.1, lambda doc: doc.update(epsilon=0.0),
                     "eps: expected a positive finite number, got 0.0"),
    "negative epsilon": (_DISCONNECTED, 1.0, lambda doc: doc.update(epsilon=-1.0),
                         "eps: expected a positive finite number, got -1.0"),
    "missing value_offset": (_DISCONNECTED, 0.1, lambda doc: doc.pop("value_offset"), None),
    "short potential": (_DISCONNECTED, 0.1, lambda doc: doc.update(
        potential=doc["potential"][:1]), "potential: expected 2 finite numbers"),
    # v's only action moves to u, which alpha no longer covers
    "alpha misses a high state": (_SPLIT, 0.1, lambda doc: doc["alpha"].pop("u"),
                                  "leaks to 'u'"),
    "beta of the wrong length": (_DISCONNECTED, 0.1, lambda doc: doc["beta"].update(
        low=[0.5, 0.5]), None),
    "negative strategy entry": (_DISCONNECTED, 0.1, lambda doc: doc["alpha"].update(
        high=[-1.0]), "alpha: expected non-negative entries"),
    "empty high set": (_DISCONNECTED, 0.1, lambda doc: doc.update(alpha={}),
                       "must not be empty"),
    "state in both sets": (_DISCONNECTED, 0.1, lambda doc: doc["beta"].update(high=[1.0]),
                           "share states ['high']"),
    "ergodic alpha misses a state": (_DISCONNECTED, 1.0, lambda doc: doc["alpha"].pop("low"),
                                     "ergodic alpha misses states ['low']"),
    "ergodic beta of the wrong length": (_DISCONNECTED, 1.0, lambda doc: doc["beta"].update(
        low=[0.5, 0.5]), None),
    "ergodic negative strategy entry": (_DISCONNECTED, 1.0, lambda doc: doc["alpha"].update(
        high=[-1.0]), "alpha: expected non-negative entries"),
    "ergodic band missing": (_DISCONNECTED, 1.0, lambda doc: doc.update(
        floor=None, ceiling=None), None),
    # finite entries whose sum leaves the float range
    "strategy sum overflows": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[1e308, 1e308]), "alpha: expected non-negative entries with a finite sum"),
    # entries that a float conversion would take: JSON true as 1, "0.5" as 0.5
    "boolean strategy entry": (_DISCONNECTED, 0.1, lambda doc: doc["alpha"].update(
        high=[True]), None),
    "string strategy entry": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[0.5, "0.5"]), None),
    # NaN marks an uncovered action, so a row cannot hold one
    "NaN strategy entry": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[0.5, float("nan")]), None),
    # a float array cannot hold an int past the float range
    "strategy entry past the float range": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[10 ** 400, 1]), None),
    "text in the potential": (_DISCONNECTED, 0.1, lambda doc: doc.update(
        potential=["a", "b"]), None),
    "infinite strategy entry": (_MIXED, 0.05, lambda doc: doc["beta"].update(
        s=[float("inf"), 0.0]), "beta: expected non-negative entries with a finite sum"),
    "all-zero strategy": (_MIXED, 0.05, lambda doc: doc["beta"].update(s=[0.0, 0.0]),
                          "beta: expected non-negative entries"),
    "negative entry, positive sum": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[-0.5, 1.5]), "alpha: expected non-negative entries"),
}
