"""Evaluation of fixed stationary strategies and best responses.

A stationary strategy is one float array per player over that player's
global actions, state v's from FlatView.first_row[v] (first_col[v] for the
column player), as a Verdict holds it; check_strategy requires each state's
slice to be a distribution. A pair of them induces a finite Markov chain;
its limiting (Cesaro) matrix is computed structurally — recurrent classes
from the strongly connected components of the positive-transition digraph,
one stationary distribution per class (GTH elimination, no subtractions),
and absorption probabilities for transient states — so periodic chains are
handled exactly.

Best responses against a fixed opponent strategy reduce to a mean-payoff
MDP, solved by multichain policy iteration with the gain-then-bias
lexicographic improvement rule.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

_ARC_EPS = 1e-14  # entries below this are no arcs when classifying states
_DISTRIBUTION_TOL = 1e-12  # of a strategy's entries and of each state's sum
_RESIDUAL_TOL = 1e-8
_PI_TOL = 1e-9
_PI_MAX_ITERS = 500


class MarkovError(RuntimeError):
    pass


class PolicyIterationError(RuntimeError):
    """Improvement cycled; carries the last two policies and their gains."""

    def __init__(self, message, policies, gains):
        super().__init__(message)
        self.policies = policies
        self.gains = gains


def _first(game, player: str) -> np.ndarray:
    """Where each state's actions start among player's global actions."""
    if player == "row":
        return game.flat.first_row
    if player == "col":
        return game.flat.first_col
    raise ValueError("player must be 'row' or 'col'")


def check_strategy(game, mix, player: str) -> np.ndarray:
    """mix as a float array over player's ("row" or "col") global actions,
    once each state's slice is a distribution: no entry below -1e-12 and a
    sum within 1e-12 of 1. Raises ValueError naming the first state where
    it is not, or, for an array of the wrong shape, the first state whose
    slice it does not hold."""
    first = _first(game, player)
    mix = np.asarray(mix, dtype=np.float64)
    total = int(first[-1])
    if mix.shape != (total,):
        size = mix.size if mix.ndim == 1 else 0
        v = min(int(np.searchsorted(first, size, side="right")) - 1, game.n - 1)
        raise ValueError(f"{player} strategy of shape {mix.shape} does not match the "
                         f"{total} {player} actions: state {v} has entries "
                         f"{first[v]} to {first[v + 1] - 1}")
    starts = first[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf in a sum is NaN, and fails
        good = ((np.minimum.reduceat(mix, starts) >= -_DISTRIBUTION_TOL)
                & (np.abs(np.add.reduceat(mix, starts) - 1.0) <= _DISTRIBUTION_TOL))
    if not good.all():  # also where a slice holds a NaN
        raise ValueError(f"{player} strategy at state {int(good.argmin())} is not a "
                         "probability distribution")
    return mix


def uniform_strategy(game, player: str) -> np.ndarray:
    """player's strategy that mixes each state's actions uniformly."""
    counts = np.diff(_first(game, player))
    return np.repeat(1.0 / counts, counts)


def pure_strategy(game, player: str, actions) -> np.ndarray:
    """player's strategy that plays action actions[v] of state v, a unit
    array per state."""
    first = _first(game, player)
    mix = np.zeros(int(first[-1]))
    mix[first[:-1] + np.asarray(actions, dtype=np.int64)] = 1.0
    return mix


def _slot_weights(game, alpha, beta) -> np.ndarray:
    """Each slot's probability under alpha and beta, once both are checked."""
    flat = game.flat
    return (check_strategy(game, alpha, "row")[flat.slot_row]
            * check_strategy(game, beta, "col")[flat.slot_col])


def induced_chain(game, alpha, beta) -> np.ndarray:
    """Transition matrix of the Markov chain that alpha and beta play."""
    flat, n = game.flat, game.n
    weight = _slot_weights(game, alpha, beta)[flat.rec_slot] * flat.rec_p
    return np.bincount(flat.rec_state * n + flat.rec_to, weights=weight,
                       minlength=n * n).reshape(n, n)


def _gth_stationary(T: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix (GTH)."""
    A = np.array(T, dtype=np.float64)
    m = A.shape[0]
    for k in range(m - 1, 0, -1):
        s = A[k, :k].sum()
        if s <= 0.0:
            raise MarkovError("ill-conditioned chain: GTH elimination hit a zero pivot")
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def limiting_matrix(P: np.ndarray) -> np.ndarray:
    """Cesaro-limit matrix q of a row-stochastic P; satisfies qP=Pq=q, q²=q."""
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    adj = csr_matrix(P > _ARC_EPS)
    n_comp, labels = connected_components(adj, directed=True, connection="strong")

    # recurrent components have no arcs into other components
    outgoing = np.zeros(n_comp, dtype=bool)
    src, dst = (P > _ARC_EPS).nonzero()
    for i, j in zip(src, dst):
        if labels[i] != labels[j]:
            outgoing[labels[i]] = True
    recurrent_labels = [c for c in range(n_comp) if not outgoing[c]]
    classes = [np.flatnonzero(labels == c) for c in recurrent_labels]

    q = np.zeros((n, n))
    stationary = []
    for members in classes:
        block = P[np.ix_(members, members)]
        block = block / block.sum(axis=1, keepdims=True)
        pi = _gth_stationary(block)
        stationary.append(pi)
        q[np.ix_(members, members)] = np.tile(pi, (len(members), 1))

    transient = np.flatnonzero(~np.isin(labels, recurrent_labels))
    if transient.size:
        Q = P[np.ix_(transient, transient)]
        B = np.column_stack([P[np.ix_(transient, members)].sum(axis=1) for members in classes])
        try:
            H = np.linalg.solve(np.eye(len(transient)) - Q, B)
        except np.linalg.LinAlgError as exc:
            raise MarkovError("ill-conditioned chain: absorption system is singular") from exc
        residual = np.abs((np.eye(len(transient)) - Q) @ H - B).max()
        if residual > _RESIDUAL_TOL:
            raise MarkovError(f"ill-conditioned chain: absorption residual {residual:.3e}")
        for col, members in enumerate(classes):
            q[np.ix_(transient, members)] += np.outer(H[:, col], stationary[col])
    return q


def profile_step_reward(game, alpha, beta) -> np.ndarray:
    """Expected one-step payoff at each state under alpha and beta."""
    flat = game.flat
    return np.bincount(flat.slot_state, weights=_slot_weights(game, alpha, beta)
                       * flat.slot_reward, minlength=game.n)


def evaluate_stationary_pair(game, alpha, beta) -> np.ndarray:
    """Mean payoff per start state: limiting matrix times local payoffs."""
    chain = induced_chain(game, alpha, beta)
    return limiting_matrix(chain) @ profile_step_reward(game, alpha, beta)


def _mdp_tables(game, fixed, fixed_player: str):
    """The free player's MDP (trans, rew, first) against fixed, the fixed
    player's strategy: its actions are numbered across all states, from
    first[v] at state v, and action a moves to u with probability trans[a, u]
    and pays rew[a] in expectation."""
    flat, n = game.flat, game.n
    weight = check_strategy(game, fixed, fixed_player)
    if fixed_player == "row":
        weight, free, first = weight[flat.slot_row], flat.slot_col, flat.first_col
    else:
        weight, free, first = weight[flat.slot_col], flat.slot_row, flat.first_row
    actions = int(first[-1])
    trans = np.bincount(free[flat.rec_slot] * n + flat.rec_to,
                        weights=weight[flat.rec_slot] * flat.rec_p, minlength=actions * n)
    rew = np.bincount(free, weights=weight * flat.slot_reward, minlength=actions)
    return trans.reshape(actions, n), rew, first


def best_response_value(game, fixed, fixed_player: str):
    """Optimal mean-payoff response against fixed, one player's strategy.

    If the row player's strategy is fixed the column player minimizes, and
    vice versa. Returns (gain vector, pure stationary policy: the free
    player's local action at each state).
    """
    trans, rew, first = _mdp_tables(game, fixed, fixed_player)
    maximize = fixed_player == "col"
    sign = 1.0 if maximize else -1.0
    n = game.n

    policy = np.zeros(n, dtype=int)
    seen = {}
    prev = None
    for _ in range(_PI_MAX_ITERS):
        chosen = first[:-1] + policy
        P_d, r_d = trans[chosen], rew[chosen]
        q = limiting_matrix(P_d)
        gain = q @ r_d
        deviation = np.linalg.solve(np.eye(n) - P_d + q, r_d - gain)
        action_gain = trans @ gain
        action_bias = rew + trans @ deviation

        new_policy = policy.copy()
        for v in range(n):
            g_vals = action_gain[first[v]:first[v + 1]]
            best_g = g_vals.max() if maximize else g_vals.min()
            candidates = np.flatnonzero(sign * (best_g - g_vals) <= _PI_TOL)
            if sign * (best_g - g_vals[policy[v]]) > _PI_TOL:
                new_policy[v] = candidates[0]
                continue
            b_vals = action_bias[first[v]:first[v + 1]][candidates]
            cur = action_bias[chosen[v]]
            best_b = b_vals.max() if maximize else b_vals.min()
            if sign * (best_b - cur) > _PI_TOL:
                new_policy[v] = candidates[int(np.flatnonzero(
                    sign * (best_b - b_vals) <= _PI_TOL)[0])]
        if np.array_equal(new_policy, policy):
            return gain, tuple(int(a) for a in policy)
        key = tuple(new_policy)
        if key in seen:
            raise PolicyIterationError(
                "policy iteration cycled",
                policies=(tuple(policy), key),
                gains=(gain, seen[key]),
            )
        seen[tuple(policy)] = gain
        prev = policy
        policy = new_policy
    raise PolicyIterationError(
        "policy iteration did not settle",
        policies=(tuple(prev) if prev is not None else None, tuple(policy)),
        gains=(None, None),
    )
