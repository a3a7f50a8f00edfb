"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
The corpus (200 seeded random instances plus the named generators, all
solved at eps = 0.05) is built once per session.
"""

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import reference
from builders import (
    duplicate_action,
    matrix_as_game,
    max_mass_into,
    permute_actions,
    shifted_union,
)
from ergopump import matrix_game, pump
from ergopump.documents import (
    parse_certificate,
    parse_game,
    recheck_certificate,
    serialize_certificate,
)
from ergopump.driver import decide_ergodicity, default_outer_cap
from ergopump.game import game_params, normalize_rewards
from ergopump.generators import big_match, cycle, disconnected, generate, random_game
from ergopump.markov import evaluate_stationary_pair, pure_strategy, uniform_strategy
from ergopump.matrix_game import local_values, solve_matrix_game
from ergopump.oracle import enumerate_pure_bounds, simulate_mean_payoff
from ergopump.witness import verify_witness

EPS = 0.05
N_RANDOM = 200


@dataclass
class SolvedInstance:
    name: str
    game: object
    n: int
    verdict: object
    stats: object
    seconds: float


def _solve(name, game, eps=EPS):
    start = time.perf_counter()
    verdict, stats = decide_ergodicity(game, eps)
    return SolvedInstance(name=name, game=game, n=game.n, verdict=verdict,
                          stats=stats, seconds=time.perf_counter() - start)


def _corpus_game(seed):
    return random_game(
        n=2 + seed % 4,  # 2..5
        max_actions=1 + seed % 3,  # 1..3
        granularity=1 + seed % 8,  # 1..8
        reward_bound=8.0,
        seed=seed,
    )


@pytest.fixture(scope="session")
def corpus():
    instances = [_solve(f"random-{seed}", _corpus_game(seed)) for seed in range(N_RANDOM)]
    instances.append(_solve("big-match", big_match()))
    instances.append(_solve("disconnected", disconnected(0.0, 10.0)))
    for seed in (0, 1, 2):
        instances.append(_solve(f"cycle-{seed}", cycle(n=3 + seed, seed=seed)))
    return instances


def _report(number, detail):
    print(f"\nACCEPTANCE {number}: PASS — {detail}")


def test_criterion_1_dichotomy(corpus):
    kinds = {"ergodic-24eps": 0, "non-ergodic": 0, "inconclusive": 0}
    for inst in corpus:
        kinds[inst.verdict.kind] += 1
        if inst.n <= 3:
            assert inst.verdict.kind != "inconclusive", (
                f"{inst.name} (n={inst.n}) came back inconclusive: "
                f"{inst.verdict.reason}")
    total = sum(inst.seconds for inst in corpus)
    assert total < 1200, f"corpus took {total:.0f}s; expected minutes, not hours"
    _report(1, f"{len(corpus)} instances in {total:.1f}s — "
               f"{kinds['ergodic-24eps']} ergodic, {kinds['non-ergodic']} witnessed, "
               f"{kinds['inconclusive']} inconclusive (none with n<=3)")


def test_criterion_2_certificate_soundness(corpus):
    checked = witnesses = 0
    for inst in corpus:
        if inst.verdict.kind == "inconclusive":
            continue
        verdict = inst.verdict
        text = serialize_certificate(inst.game, verdict, inst.stats)
        ok, problems = recheck_certificate(inst.game, parse_certificate(text, inst.game))
        assert ok, f"{inst.name}: certificate failed its recheck: {problems[:3]}"
        # the one-shot bounds the recheck accepted hold globally as well
        normalized, _ = normalize_rewards(inst.game)
        floor, ceiling = reference.global_bounds(normalized, verdict)
        assert floor >= verdict.floor - 1e-6 and ceiling <= verdict.ceiling + 1e-6, (
            f"{inst.name}: best responses reach {floor} / {ceiling} against the "
            f"certified floor {verdict.floor} / ceiling {verdict.ceiling}")
        checked += 1
        if verdict.kind != "non-ergodic":
            continue
        assert verdict.floor - verdict.ceiling >= verdict.eps - 1e-12, (
            f"{inst.name}: certified gap {verdict.floor - verdict.ceiling} < eps")
        oracle = enumerate_pure_bounds(normalized)
        for v in verdict.high_states:
            assert oracle.lo[v] >= verdict.floor - 1e-6, (
                f"{inst.name}: oracle lo[{v}]={oracle.lo[v]} below floor "
                f"{verdict.floor}")
            assert oracle.hi[v] >= verdict.floor - 1e-6  # containment side
        for u in verdict.low_states:
            assert oracle.hi[u] <= verdict.ceiling + 1e-6, (
                f"{inst.name}: oracle hi[{u}]={oracle.hi[u]} above ceiling "
                f"{verdict.ceiling}")
            assert oracle.lo[u] <= verdict.ceiling + 1e-6
        witnesses += 1
    assert witnesses > 0, "corpus produced no non-ergodic instances to check"
    _report(2, f"{checked} certificates round-tripped and rechecked, each within its "
               f"global best-response bounds; {witnesses} witnesses within the "
               "enumeration bounds")


def test_certificate_round_trips_the_verdict(corpus):
    # the document is the solver's Verdict on disk: parsing it gives back the
    # record the CLI and the benchmark report, bit for bit. The eps sweep on
    # seed 184 adds the benchmark's pump-long instances that the corpus lacks
    sweep = [_solve(f"random-184@eps={eps}", _corpus_game(184), eps)
             for eps in (0.02, 0.01, 0.005, 0.0025)]
    for inst in corpus + sweep:
        solved = inst.verdict
        parsed = parse_certificate(serialize_certificate(inst.game, solved, inst.stats),
                                   inst.game)
        assert solved.kind != "inconclusive", inst.name
        for field in ("kind", "eps", "value_offset", "floor", "ceiling", "reason"):
            assert getattr(parsed, field) == getattr(solved, field), (inst.name, field)
        assert parsed.potential.tobytes() == solved.potential.tobytes(), inst.name
        assert (parsed.alpha.states, parsed.beta.states) == (solved.alpha.states,
                                                             solved.beta.states), inst.name
    assert all(inst.verdict.kind == "non-ergodic" for inst in sweep)


def test_criterion_3_ergodic_validity(corpus):
    recomputed = 0
    for inst in corpus:
        if inst.verdict.kind != "ergodic-24eps":
            continue
        verdict = inst.verdict
        normalized, _ = normalize_rewards(inst.game)
        m = local_values(normalized, verdict.potential)
        width = float(np.max(m) - np.min(m))
        assert width <= 24 * EPS + 1e-7, (
            f"{inst.name}: recomputed band width {width} exceeds 24*eps")
        recomputed += 1
    # known constant values: deterministic cycles and matrix-game extensions
    for seed in range(5):
        game = cycle(n=3 + seed % 3, seed=seed)
        mean = float(np.mean([records[0][4] for records in game.transitions]))
        verdict, _ = decide_ergodicity(game, EPS)
        assert verdict.kind == "ergodic-24eps"
        assert verdict.floor - 1e-6 <= mean <= verdict.ceiling + 1e-6, (
            f"cycle-{seed}: value {mean} outside band")
    for seed in range(3):
        text = generate("ergodic-extension", {}, seed=seed)
        game = parse_game(text)
        rng = np.random.default_rng(seed)
        base = np.round(rng.uniform(0.0, 8.0, size=(2, 2)), 6)
        value = reference.value_lp(base)
        verdict, _ = decide_ergodicity(game, EPS)
        assert verdict.kind == "ergodic-24eps"
        assert verdict.floor - 1e-6 <= value <= verdict.ceiling + 1e-6
    # oracle intervals intersect the certified band on small instances
    intersected = 0
    for inst in corpus:
        if inst.verdict.kind != "ergodic-24eps" or inst.n > 3:
            continue
        normalized, _ = normalize_rewards(inst.game)
        oracle = enumerate_pure_bounds(normalized)
        for v in range(inst.n):
            assert oracle.lo[v] <= inst.verdict.ceiling + 1e-6
            assert oracle.hi[v] >= inst.verdict.floor - 1e-6
        intersected += 1
    _report(3, f"{recomputed} ergodic bands rechecked, 8 known-value instances, "
               f"{intersected} oracle intersections")


def test_criterion_4_shrink_rate(corpus):
    pairs = 0
    for inst in corpus:
        phases = inst.stats.phases
        widths = [rec["band"][1] - rec["band"][0] for rec in phases]
        for before, after in zip(widths, widths[1:]):
            assert after <= before * (7.0 / 8.0 + 1e-9), (
                f"{inst.name}: band width went {before} -> {after}")
            pairs += 1
        if inst.verdict.kind == "ergodic-24eps":
            normalized, _ = normalize_rewards(inst.game)
            bound = default_outer_cap(game_params(normalized).reward_bound, EPS)
            assert inst.stats.outer_iterations <= bound, (
                f"{inst.name}: {inst.stats.outer_iterations} outer iterations "
                f"exceed the bound {bound}")
    _report(4, f"{pairs} consecutive outer iterations all shrank by <= 7/8")


def test_criterion_5_pump_invariants(corpus):
    # the pump asserts band monotonicity, the per-step drift bound and the
    # payoff-bound inequality on every iteration; any violation would have
    # surfaced as an inconclusive verdict carrying PumpInvariantError
    for inst in corpus:
        reason = inst.verdict.reason or ""
        assert "PumpInvariantError" not in reason, f"{inst.name}: {reason}"
    # refined drift bounds on 100 randomized (subset, delta) probes
    rng = np.random.default_rng(2024)
    probes = 0
    while probes < 100:
        game = random_game(n=int(rng.integers(2, 5)), max_actions=2,
                           granularity=4, reward_bound=8.0,
                           seed=int(rng.integers(0, 10_000)))
        x = rng.normal(size=game.n) * 4
        subset = {v for v in range(game.n) if rng.random() < 0.5}
        if not subset:
            continue
        delta = float(rng.uniform(0.05, 2.0))
        bumped = x.copy()
        bumped[sorted(subset)] -= delta
        before = local_values(game, x)
        after = local_values(game, bumped)
        mass_out = max_mass_into(game, [u for u in range(game.n) if u not in subset])
        mass_in = max_mass_into(game, subset)
        for v in range(game.n):
            if v in subset:
                assert before[v] - delta * mass_out[v] - 1e-9 <= after[v] <= before[v] + 1e-9
            else:
                assert before[v] - 1e-9 <= after[v] <= before[v] + delta * mass_in[v] + 1e-9
        probes += 1
    _report(5, "per-iteration pump assertions held on the whole corpus; "
               "100 randomized drift probes passed")


def test_criterion_6_matrix_solver():
    rng = np.random.default_rng(616)
    worst_gap = 0.0
    closed_form_checked = 0
    for trial in range(1000):
        shape = rng.integers(1, 7, size=2)
        A = rng.uniform(-10, 10, size=shape)
        sol = solve_matrix_game(A)
        worst_gap = max(worst_gap, sol.duality_gap)
        assert sol.duality_gap <= 1e-9
        if shape[0] == shape[1] == 2:
            assert sol.value == pytest.approx(reference.value_2x2(A), abs=1e-10)
            closed_form_checked += 1
    # property sweeps: shift equivariance and monotonicity
    for trial in range(200):
        shape = rng.integers(1, 6, size=2)
        A = rng.uniform(-10, 10, size=shape)
        c = float(rng.uniform(-20, 20))
        assert solve_matrix_game(A + c).value == pytest.approx(
            solve_matrix_game(A).value + c, abs=1e-8)
        B = A + rng.uniform(0, 4, size=shape)
        assert solve_matrix_game(A).value <= solve_matrix_game(B).value + 1e-9
    _report(6, f"1000 solves, worst duality gap {worst_gap:.2e}; "
               f"{closed_form_checked} closed-form matches; 200 property sweeps")


def test_criterion_7_markov_evaluation():
    from ergopump.markov import limiting_matrix

    rng = np.random.default_rng(717)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 8))
        if trial % 3 == 0:
            P = np.zeros((n, n))
            perm = rng.permutation(n)
            for i in range(n):
                P[i, perm[i]] = 1.0  # periodic permutation chains
        elif trial % 3 == 1:
            P = rng.dirichlet(np.ones(n), size=n)
        else:
            P = np.where(rng.random((n, n)) < 0.5, rng.random((n, n)), 0.0) + 1e-3
            P = P / P.sum(axis=1, keepdims=True)
        q = limiting_matrix(P)
        worst = max(worst,
                    float(np.abs(q @ P - q).max()),
                    float(np.abs(q @ q - q).max()))
        assert worst <= 1e-8
    # simulation agreement on 50 seeded cases
    for case in range(50):
        rng_case = np.random.default_rng(9000 + case)
        game = random_game(n=int(rng_case.integers(2, 5)), max_actions=2,
                           granularity=4, reward_bound=8.0, seed=9000 + case)
        rows = [int(rng_case.integers(0, game.num_row_actions(v)))
                for v in range(game.n)]
        cols = [int(rng_case.integers(0, game.num_col_actions(v)))
                for v in range(game.n)]
        profile = pure_strategy(game, "row", rows), pure_strategy(game, "col", cols)
        start = int(rng_case.integers(0, game.n))
        exact = evaluate_stationary_pair(game, *profile)[start]
        # the truncation bias of a finite trajectory is O(1/steps), so give
        # the 3-sigma band a small absolute allowance on top
        steps = 20_000
        draws = np.array([simulate_mean_payoff(game, *profile, start, steps, seed=s)
                          for s in range(8)])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 3 * se + 1e-3, (
            f"case {case}: simulation {draws.mean()} vs evaluation {exact} "
            f"(se {se})")
    # potential invariance with large potentials
    for trial in range(20):
        rng_t = np.random.default_rng(500 + trial)
        game = random_game(n=4, max_actions=2, granularity=4, reward_bound=8.0,
                           seed=500 + trial)
        from ergopump.game import apply_potential
        x = rng_t.uniform(-1e3, 1e3, size=4)
        profile = uniform_strategy(game, "row"), uniform_strategy(game, "col")
        before = evaluate_stationary_pair(game, *profile)
        after = evaluate_stationary_pair(apply_potential(game, x), *profile)
        assert np.abs(before - after).max() <= 1e-8
    _report(7, f"500 limiting matrices (worst residual {worst:.2e}), "
               "50 simulation cross-checks, 20 large-potential invariance runs")


def test_criterion_8_known_instances():
    bm_verdict, _ = decide_ergodicity(big_match(), eps=0.01)
    assert bm_verdict.kind == "non-ergodic"
    report = verify_witness(big_match(), bm_verdict)
    assert report.ok
    assert report.certified_gap >= 1.0 - 1e-6
    assert bm_verdict.high_states == {1} and bm_verdict.low_states == {2}

    disc_verdict, _ = decide_ergodicity(disconnected(0.0, 10.0), eps=0.1)
    assert disc_verdict.kind == "non-ergodic"
    report = verify_witness(disconnected(0.0, 10.0), disc_verdict)
    assert report.ok
    assert report.certified_gap >= 10.0 - 1e-6

    rng = np.random.default_rng(88)
    for trial in range(10):
        shape = rng.integers(1, 5, size=2)
        game = matrix_as_game(rng.uniform(0, 8, size=shape))
        verdict, _ = decide_ergodicity(game, eps=0.05)
        assert verdict.kind == "ergodic-24eps"
        assert verdict.ceiling - verdict.floor <= 1e-9
    _report(8, "big match gap 1 certified, disconnected gap 10 certified, "
               "10 one-state games certified with zero-width bands")


# sha256 of the 512+512 union's certificate at eps 0.05
UNION_CERTIFICATE = "80e5ccda6fc79529c6089c010df804debf2c2a6e7d7afe097eb5a31f112b6ff9"


def test_union_at_scale_is_a_witness(monkeypatch):
    # ROADMAP item 4's union of two n = 512 games, the second's rewards 20
    # higher, ends non-ergodic with each game as one set, and its
    # certificate rechecks and keeps its bits. On the way its local solves
    # batch more than 100 mixed games in a call and its witness checks reach
    # the first hop's bulk comparison, as no benchmark workload does
    game = shifted_union(512)
    batch_sizes, bulk = [], []
    kernels, threshold = matrix_game._batch_kernels, pump._first_hop_threshold

    def batched(payoffs, flat, games, *rest):
        batch_sizes.append(len(games))
        return kernels(payoffs, flat, games, *rest)

    def sized(solve, v, *rest):
        bulk.append(isinstance(v, np.ndarray))
        return threshold(solve, v, *rest)

    monkeypatch.setattr(matrix_game, "_batch_kernels", batched)
    monkeypatch.setattr(pump, "_first_hop_threshold", sized)
    verdict, stats = decide_ergodicity(game, EPS)
    assert verdict.kind == "non-ergodic"
    assert verdict.high_states == frozenset(range(512, 1024))
    assert verdict.low_states == frozenset(range(512))
    assert max(batch_sizes) > 100 and any(bulk)
    text = serialize_certificate(game, verdict, stats)
    ok, problems = recheck_certificate(game, parse_certificate(text, game))
    assert ok, problems
    assert hashlib.sha256(text.encode()).hexdigest() == UNION_CERTIFICATE


def test_action_relabelling_keeps_the_verdict(corpus):
    # each state's actions in another order, or one action of each player
    # repeated, is the same game: the verdict kind and a witness's high and
    # low sets stay as they were. The n = 128 game's local solves settle
    # their mixed games in matrix_game's batch, which tries the 2x2
    # candidates in the order of the action indices
    rng = np.random.default_rng(0)
    ladder = _solve("random-n128", random_game(128, max_actions=3, seed=0))
    for inst in [*corpus, ladder]:
        for changed in (permute_actions(inst.game, rng), duplicate_action(inst.game, rng)):
            verdict, _ = decide_ergodicity(changed, EPS)
            assert verdict.kind == inst.verdict.kind, inst.name
            assert verdict.high_states == inst.verdict.high_states, inst.name
            assert verdict.low_states == inst.verdict.low_states, inst.name


def test_criterion_9_determinism(corpus):
    sample = [inst for inst in corpus if inst.verdict.kind != "inconclusive"][:3]
    sample.append(next(inst for inst in corpus
                       if inst.verdict.kind == "non-ergodic"))
    for inst in sample:
        again, again_stats = decide_ergodicity(inst.game, EPS)
        first = serialize_certificate(inst.game, inst.verdict, inst.stats)
        second = serialize_certificate(inst.game, again, again_stats)
        assert first == second, f"{inst.name}: certificates differ between runs"
    _report(9, f"{len(sample)} instances re-solved to byte-identical certificates")
