"""Tiny game constructors shared across test modules."""

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


# ways to break the certificate of disconnected(0, 10) solved at eps = 0.1,
# each of which parse_certificate must reject
MALFORMED_CERTIFICATES = {
    "unknown high state": lambda doc: doc["non_ergodic"].update(high_states=["ghost"]),
    "missing epsilon": lambda doc: doc.pop("epsilon"),
    "NaN epsilon": lambda doc: doc.update(epsilon=float("nan")),  # would disable every tolerance
    "short potential": lambda doc: doc.update(potential=doc["potential"][:1]),
    "alpha misses a high state": lambda doc: doc["non_ergodic"].update(alpha={}),
    "beta of the wrong length": lambda doc: doc["non_ergodic"]["beta"].update(low=[0.5, 0.5]),
    "negative strategy entry": lambda doc: doc["non_ergodic"]["alpha"].update(high=[-1.0]),
    "empty high set": lambda doc: doc["non_ergodic"].update(high_states=[], alpha={}),
    "state in both sets": lambda doc: doc["non_ergodic"].update(
        low_states=["high", "low"], beta={"high": [1.0], "low": [1.0]}),
}

# ways to break a profile document of disconnected(), each of which
# parse_profile must reject with DocumentError
MALFORMED_PROFILES = {
    "entry not a number": lambda doc: doc["alpha"].update(low=["abc"]),
    "vector given as a string": lambda doc: doc["alpha"].update(low="x"),
    "vector given as a number": lambda doc: doc["beta"].update(high=5),
}
