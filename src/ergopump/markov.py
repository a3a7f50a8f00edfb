"""Evaluation of fixed stationary strategy profiles and best responses.

A stationary profile induces a finite Markov chain; its limiting (Cesaro)
matrix is computed structurally — recurrent classes from the strongly
connected components of the positive-transition digraph, one stationary
distribution per class (GTH elimination, no subtractions), and absorption
probabilities for transient states — so periodic chains are handled exactly.

Best responses against a fixed opponent strategy reduce to a mean-payoff
MDP, solved by multichain policy iteration with the gain-then-bias
lexicographic improvement rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

_ARC_EPS = 1e-14  # entries below this are no arcs when classifying states
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


@dataclass(frozen=True)
class StationaryProfile:
    """One mixed action distribution per state for each player."""

    alpha: tuple  # tuple of arrays, alpha[v] over row actions at v
    beta: tuple


@dataclass(frozen=True)
class MarkovEvaluation:
    transition: np.ndarray  # n x n chain of the profile
    limiting: np.ndarray  # Cesaro limit matrix q
    gain: np.ndarray  # mean payoff per start state


def make_profile(game, alpha, beta) -> StationaryProfile:
    """Validate and freeze a stationary profile given as per-state vectors."""
    a_out, b_out = [], []
    for v in range(game.n):
        a = np.asarray(alpha[v], dtype=np.float64)
        b = np.asarray(beta[v], dtype=np.float64)
        if a.shape != (game.num_row_actions(v),) or b.shape != (game.num_col_actions(v),):
            raise ValueError(f"profile dimensions do not match action sets at state {v}")
        for vec, who in ((a, "alpha"), (b, "beta")):
            if np.any(vec < -1e-12) or abs(vec.sum() - 1.0) > 1e-12:
                raise ValueError(f"{who}[{v}] is not a probability distribution")
        a.setflags(write=False)
        b.setflags(write=False)
        a_out.append(a)
        b_out.append(b)
    return StationaryProfile(alpha=tuple(a_out), beta=tuple(b_out))


def uniform_profile(game) -> StationaryProfile:
    return make_profile(
        game,
        [np.full(game.num_row_actions(v), 1.0 / game.num_row_actions(v)) for v in range(game.n)],
        [np.full(game.num_col_actions(v), 1.0 / game.num_col_actions(v)) for v in range(game.n)],
    )


def pure_profile(game, rows, cols) -> StationaryProfile:
    alpha = []
    beta = []
    for v in range(game.n):
        a = np.zeros(game.num_row_actions(v))
        a[rows[v]] = 1.0
        b = np.zeros(game.num_col_actions(v))
        b[cols[v]] = 1.0
        alpha.append(a)
        beta.append(b)
    return make_profile(game, alpha, beta)


def induced_chain(game, profile: StationaryProfile) -> np.ndarray:
    """Transition matrix of the Markov chain the profile plays: the column
    player's MDP against alpha, averaged over beta."""
    trans, _rew, first = _mdp_tables(game, profile.alpha, "row")
    return np.add.reduceat(np.concatenate(profile.beta)[:, None] * trans, first[:-1])


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


def profile_step_reward(game, profile: StationaryProfile) -> np.ndarray:
    """Expected one-step payoff at each state under the profile."""
    flat = game.flat
    weight = (np.concatenate(profile.alpha)[flat.slot_row]
              * np.concatenate(profile.beta)[flat.slot_col])
    return np.bincount(flat.slot_state, weights=weight * flat.slot_reward, minlength=game.n)


def evaluate_stationary_pair(game, profile: StationaryProfile) -> MarkovEvaluation:
    """Mean payoff per start state: limiting matrix times local payoffs."""
    P = induced_chain(game, profile)
    q = limiting_matrix(P)
    g = q @ profile_step_reward(game, profile)
    return MarkovEvaluation(transition=P, limiting=q, gain=g)


def _mdp_tables(game, fixed_strategy, fixed_player: str):
    """The free player's MDP (trans, rew, first): its actions are numbered
    across all states, from first[v] at state v, and action a moves to u
    with probability trans[a, u] and pays rew[a] in expectation."""
    flat, n = game.flat, game.n
    if fixed_player == "row":
        fixed, free = flat.slot_row, flat.slot_col
        fixed_first, first = flat.first_row, flat.first_col
    elif fixed_player == "col":
        fixed, free = flat.slot_col, flat.slot_row
        fixed_first, first = flat.first_col, flat.first_row
    else:
        raise ValueError("fixed_player must be 'row' or 'col'")
    vectors = [np.asarray(f, dtype=np.float64) for f in fixed_strategy]
    if [f.shape for f in vectors] != [(k,) for k in np.diff(fixed_first).tolist()]:
        raise ValueError("fixed strategy does not match the fixed player's action sets")
    weight = np.concatenate(vectors)[fixed]
    actions = int(first[-1])
    trans = np.bincount(free[flat.rec_slot] * n + flat.rec_to,
                        weights=weight[flat.rec_slot] * flat.rec_p, minlength=actions * n)
    rew = np.bincount(free, weights=weight * flat.slot_reward, minlength=actions)
    return trans.reshape(actions, n), rew, first


def best_response_value(game, fixed_strategy, fixed_player: str):
    """Optimal mean-payoff response against one player's fixed strategy.

    If the row player's strategy is fixed the column player minimizes, and
    vice versa. Returns (gain vector, pure stationary policy).
    """
    trans, rew, first = _mdp_tables(game, fixed_strategy, fixed_player)
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
