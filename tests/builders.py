"""Tiny game constructors and test helpers shared across test modules."""

import sys
from collections import Counter

import numpy as np

from ergopump.game import make_game


def one_state(reward=5.0):
    return make_game(["s"], [["a"]], [["x"]], [("s", "a", "x", "s", 1, reward)])


def disconnected(low=0.0, high=10.0):
    return make_game(
        ["low", "high"], [["a"], ["a"]], [["x"], ["x"]],
        [("low", "a", "x", "low", 1, low), ("high", "a", "x", "high", 1, high)],
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


def max_mass_into(game, v, targets):
    """Largest probability, over the action pairs at v, of moving into
    targets, summed exactly over v's transition records."""
    mass = {}
    for k, l, u, p, _r in game.transitions[v]:
        mass[k, l] = mass.get((k, l), 0) + (p if u in targets else 0)
    return float(max(mass.values()))


def count_calls(monkeypatch, names):
    """Count calls of the named functions: each is replaced, in every loaded
    ergopump module that binds it, by a wrapper adding to the returned Counter."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
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


# ways to break a certificate, each of which parse_certificate must reject:
# per case, the game, the eps to solve it at and the edit. disconnected(0, 10)
# gives a non-ergodicity witness at eps 0.1 and an ergodic certificate at 1.0;
# the matrix game [[3, 1], [0, 2]] an ergodic certificate with alpha (1/2, 1/2)
_DISCONNECTED = disconnected(0.0, 10.0)
_MIXED = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
MALFORMED_CERTIFICATES = {
    "unknown high state": (_DISCONNECTED, 0.1, lambda doc: doc["non_ergodic"].update(
        high_states=["ghost"])),
    "missing epsilon": (_DISCONNECTED, 0.1, lambda doc: doc.pop("epsilon")),
    # NaN would disable every tolerance
    "NaN epsilon": (_DISCONNECTED, 0.1, lambda doc: doc.update(epsilon=float("nan"))),
    "short potential": (_DISCONNECTED, 0.1, lambda doc: doc.update(
        potential=doc["potential"][:1])),
    "alpha misses a high state": (_DISCONNECTED, 0.1, lambda doc: doc.update(alpha={})),
    "beta of the wrong length": (_DISCONNECTED, 0.1, lambda doc: doc["beta"].update(
        low=[0.5, 0.5])),
    "negative strategy entry": (_DISCONNECTED, 0.1, lambda doc: doc["alpha"].update(
        high=[-1.0])),
    "empty high set": (_DISCONNECTED, 0.1, lambda doc: doc["non_ergodic"].update(
        high_states=[])),
    "state in both sets": (_DISCONNECTED, 0.1, lambda doc: (
        doc["non_ergodic"].update(low_states=["high", "low"]),
        doc["beta"].update(high=[1.0]))),
    "ergodic alpha misses a state": (_DISCONNECTED, 1.0, lambda doc: doc["alpha"].pop("low")),
    "ergodic beta of the wrong length": (_DISCONNECTED, 1.0, lambda doc: doc["beta"].update(
        low=[0.5, 0.5])),
    "ergodic negative strategy entry": (_DISCONNECTED, 1.0, lambda doc: doc["alpha"].update(
        high=[-1.0])),
    "ergodic band missing": (_DISCONNECTED, 1.0, lambda doc: doc.update(band=None)),
    # finite entries whose sum leaves the float range
    "strategy sum overflows": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[1e308, 1e308])),
    # entries that a float conversion would take: JSON true as 1, "0.5" as 0.5
    "boolean strategy entry": (_DISCONNECTED, 0.1, lambda doc: doc["alpha"].update(
        high=[True])),
    "string strategy entry": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[0.5, "0.5"])),
    "all-zero strategy": (_MIXED, 0.05, lambda doc: doc["beta"].update(s=[0.0, 0.0])),
    "negative entry, positive sum": (_MIXED, 0.05, lambda doc: doc["alpha"].update(
        s=[-0.5, 1.5])),
}
