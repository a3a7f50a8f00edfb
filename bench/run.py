"""ergopump benchmark: solve and verify one workload, check, print metrics.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

A run follows the path that `ergopump solve` and `ergopump verify` take
through the library: parse_game, decide_ergodicity, serialize_certificate,
then parse_certificate and recheck_certificate. Instances run one after
another in this one process. The workloads are defined in workloads.py.

With --trace 0 the run reports the end-to-end metrics:

- solve_s: decide_ergodicity plus serialize_certificate for every instance.
  Rounds of one solve pass over the workload, VERIFY_SHARE of --seconds of
  verify passes and one fresh-process set-up repeat until --seconds have
  passed, MIN_SOLVE_PASSES are done and MIN_SETUPS set-ups are done. Each
  instance's time is its mean over the passes. solve_s is the sum of these
  times, and solve_p50_ms / solve_p95_ms their median and 95th percentile.
- setup_s: a fresh process's `import ergopump` (from cached bytecode, as
  for an installed package) plus parse_game of every document; the median
  over the run's set-ups.
- verify_s: parse_certificate plus recheck_certificate for every
  certificate, aggregated like solve_s over all the verify passes.
- peak_rss_mb: ru_maxrss of this process.

Every time above is in reference seconds (see calibration.py): the reference
kernel runs between the measured intervals, at least every PROBE_EVERY_S,
and each interval is scaled by REFERENCE_S over the kernel's time around
it. A shared machine's speed swings by up to half for seconds to minutes at
a time, which scaling cancels where measuring longer does not. The unscaled
wall seconds are printed on a line of their own, and every interval and
kernel run of the run is written to bench/out/timings-<workload>-seed<seed>.json.

With --trace 1 the run reports per-layer metrics instead: one untraced solve
pass, then parse, solve and verify once more with every function listed in
tracing.LAYERS wrapped in a span, plus counts read from the library's return
values, the median import time of MIN_SETUPS fresh processes, and the
tracing overhead (traced over untraced solve time in reference seconds,
minus one). The spans are written to bench/out/spans-<workload>-seed<seed>.npz.

Correctness is checked outside the timed regions. An instance fails when its
solve raises or ends inconclusive, when its certificate differs between
passes, when recheck_certificate rejects it, or, for a non-ergodic verdict
on at most ORACLE_MAX_STATES states, when the pure-strategy enumeration
oracle contradicts the certified floor or ceiling. Each failure is printed
by instance name.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the environment and
an exact fingerprint of the run (verdict tally, pump steps, outer
iterations, sha256 over the certificates; traced runs add local-value solve
calls), which repeats exactly for the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PROBE = BENCH / "setup_probe.py"
OUT = BENCH / "out"

MIN_SETUPS = 5
MIN_SOLVE_PASSES = 3  # each instance reports its mean over the passes
VERIFY_SHARE = 1 / 30  # verify time per round, as a share of --seconds
PROBE_TIMEOUT_S = 170
ORACLE_MAX_STATES = 5
ORACLE_TOL = 1e-6  # as in the acceptance suite's criterion 2


@dataclass
class Solved:
    start: float  # perf_counter stamps around decide_ergodicity + serialize_certificate
    end: float
    verdict: object = None
    stats: object = None
    certificate: str | None = None
    error: str | None = None


def fresh_setup(texts, probe=None):
    """Import ergopump and parse `texts` in a new interpreter.

    Returns the child's perf_counter stamps (start, imported, parsed); the
    clock is system-wide, so they can be scaled like this process's own.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if probe is not None:
        probe.due()
    done = subprocess.run([sys.executable, str(PROBE)], input=json.dumps(texts),
                          capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, env=env)
    if probe is not None:
        probe.sample()
    return json.loads(done.stdout)


def solve_pass(instances, games, probe=None):
    from ergopump import documents, driver

    out = []
    for inst, game in zip(instances, games):
        if probe is not None:
            probe.due()
        start = time.perf_counter()
        try:
            verdict, stats = driver.decide_ergodicity(game, inst.eps)
            certificate = documents.serialize_certificate(game, verdict, stats)
        except Exception as exc:  # a raising solve fails its instance, not the run
            out.append(Solved(start, time.perf_counter(),
                              error=f"solve raised {type(exc).__name__}: {exc}"))
            continue
        out.append(Solved(start, time.perf_counter(), verdict, stats, certificate))
    return out


def verify_pass(games, solved, probe=None):
    """(start, end, problems) per instance; problems is empty when the recheck passes."""
    from ergopump import documents

    out = []
    for game, result in zip(games, solved):
        if probe is not None:
            probe.due()
        start = time.perf_counter()
        if result.certificate is None:
            out.append((start, start, ("no certificate to verify",)))
            continue
        try:
            bundle = documents.parse_certificate(result.certificate, game)
            ok, problems = documents.recheck_certificate(game, bundle)
        except Exception as exc:  # a raising verify fails its instance, not the run
            ok, problems = False, (f"verify raised {type(exc).__name__}: {exc}",)
        out.append((start, time.perf_counter(), () if ok else problems))
    return out


def oracle_misses(game, verdict):
    """Where pure-strategy enumeration contradicts a witness's certified bounds."""
    from ergopump.game import normalize_rewards
    from ergopump.oracle import enumerate_pure_bounds

    normalized, _ = normalize_rewards(game)
    bounds = enumerate_pure_bounds(normalized)
    misses = [f"oracle lo[{game.states[v]}] = {bounds.lo[v]:.9g} is below the "
              f"certified floor {verdict.floor:.9g}"
              for v in sorted(verdict.high_states)
              if bounds.lo[v] < verdict.floor - ORACLE_TOL]
    misses += [f"oracle hi[{game.states[u]}] = {bounds.hi[u]:.9g} is above the "
               f"certified ceiling {verdict.ceiling:.9g}"
               for u in sorted(verdict.low_states)
               if bounds.hi[u] > verdict.ceiling + ORACLE_TOL]
    return misses


def find_failures(instances, games, passes, verifies):
    """Failure reasons per instance name, from every solve and verify pass."""
    from ergopump.driver import INCONCLUSIVE, NON_ERGODIC

    failures = {}
    for i, (inst, game) in enumerate(zip(instances, games)):
        first = passes[0][i]
        if first.error is not None:
            failures[inst.name] = [first.error]
            continue
        reasons = []
        if any(p[i].certificate != first.certificate for p in passes[1:]):
            reasons.append("certificate differs between passes")
        if first.verdict.kind == INCONCLUSIVE:
            reasons.append(f"inconclusive: {first.verdict.reason}")
        rejected = next((v[i][2] for v in verifies if v[i][2]), ())
        if rejected:
            reasons.append("recheck failed: " + "; ".join(rejected[:3]))
        if first.verdict.kind == NON_ERGODIC and game.n <= ORACLE_MAX_STATES:
            reasons += oracle_misses(game, first.verdict)
        if reasons:
            failures[inst.name] = reasons
    return failures


def per_instance_mean(rows):
    """Each instance's mean time over the passes; rows are passes."""
    return [statistics.fmean(column) for column in zip(*rows)]


def fingerprint(instances, solved):
    kinds = Counter(s.verdict.kind for s in solved if s.verdict is not None)
    steps = sum(record.get(phase, {}).get("iterations", 0)
                for s in solved if s.stats is not None
                for record in s.stats.phases for phase in ("phase1", "phase2"))
    digest = hashlib.sha256()
    for inst, s in zip(instances, solved):
        digest.update(f"{inst.name}\n{s.certificate}\n".encode())
    return {
        "verdicts": dict(sorted(kinds.items())),
        "pump.steps": steps,
        "driver.outer_iterations": sum(s.stats.outer_iterations
                                       for s in solved if s.stats is not None),
        "certificates_sha256": digest.hexdigest(),
    }


def end_to_end_run(instances, games, seconds, workload, seed):
    probe = calibration.SpeedProbe()
    texts = [inst.text for inst in instances]
    passes, verifies, setups = [], [], []

    def verify():
        verifies.append(verify_pass(games, passes[0], probe))

    start = time.perf_counter()
    while (len(passes) < MIN_SOLVE_PASSES or len(setups) < MIN_SETUPS
           or time.perf_counter() - start < seconds):
        if len(passes) < MIN_SOLVE_PASSES or time.perf_counter() - start < seconds:
            passes.append(solve_pass(instances, games, probe))
        verify_start = time.perf_counter()
        verify()
        while time.perf_counter() - verify_start < seconds * VERIFY_SHARE:
            verify()
        setups.append(fresh_setup(texts, probe))
    probe.sample()
    OUT.mkdir(exist_ok=True)
    (OUT / f"timings-{workload}-seed{seed}.json").write_text(json.dumps({
        "kernel": probe.intervals(),
        "solve": [[(s.start, s.end) for s in p] for p in passes],
        "verify": [[(a, b) for a, b, _ in v] for v in verifies],
        "setup": setups}))

    def scaled(intervals):
        return [probe.scaled(a, b) for a, b in intervals]

    solve_times = per_instance_mean([scaled((s.start, s.end) for s in p) for p in passes])
    verify_times = per_instance_mean([scaled((a, b) for a, b, _ in v) for v in verifies])
    setup_times = scaled((s["start"], s["parsed"]) for s in setups)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (sum(solve_times), "s"),
        "solve_p50_ms": (1e3 * statistics.median(solve_times), "ms"),
        "solve_p95_ms": (1e3 * float(np.percentile(solve_times, 95)), "ms"),
        "verify_s": (sum(verify_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_solve = per_instance_mean([[s.end - s.start for s in p] for p in passes])
    raw_verify = per_instance_mean([[b - a for a, b, _ in v] for v in verifies])
    kernel = [end - start for start, end in probe.intervals()]
    print(f"passes: {len(passes)} solve, {len(verifies)} verify, {len(setups)} set-up; "
          f"{len(kernel)} reference kernel runs, median {1e3 * statistics.median(kernel):.3f} ms "
          f"(reference {1e3 * calibration.REFERENCE_S:.3f} ms)")
    print(f"unscaled wall seconds: setup_s "
          f"{statistics.median(s['parsed'] - s['start'] for s in setups):.4f}, "
          f"solve_s {sum(raw_solve):.4f}, verify_s {sum(raw_verify):.4f}")
    return metrics, passes, verifies, {}


def traced_run(instances, games, workload, seed):
    from ergopump import documents

    probe = calibration.SpeedProbe()
    imports = [fresh_setup([]) for _ in range(MIN_SETUPS)]
    baseline = solve_pass(instances, games, probe)

    counts = Counter()

    def on_pump(outcome):
        counts["pump.steps"] += outcome.stats.iterations
        counts["pump.witness_checks"] += outcome.stats.witness_checks

    def on_reduce(result):
        counts["lp_accepts"] += result[1]["method"] == "feasibility-lp"

    tracer = tracing.Tracer()
    tracer.observe("pump.modified_pump", on_pump)
    tracer.observe("driver.reduce_potential", on_reduce)
    tracer.install()
    try:
        start = time.perf_counter()
        traced_games = [documents.parse_game(inst.text) for inst in instances]
        parse_s = time.perf_counter() - start
        traced = solve_pass(instances, traced_games, probe)
        verify = verify_pass(traced_games, traced)
    finally:
        tracer.uninstall()
    probe.sample()

    summary = tracer.summary()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload}-seed{seed}.npz")

    traced_s = sum(s.end - s.start for s in traced)
    verify_s = sum(b - a for a, b, _ in verify)
    accounted = summary.pop("self_s_total")
    print(f"trace: span self times sum to {accounted:.4f} s of the traced "
          f"parse + solve + verify {parse_s + traced_s + verify_s:.4f} s")

    metrics = {}
    for name, value in summary.items():
        metrics[name] = (value, "count" if name.endswith(".calls") else "s")
    reduce_calls = summary["driver.reduce_potential.calls"]
    potentials = [float(np.max(np.abs(s.verdict.potential))) for s in traced
                  if s.verdict is not None and s.verdict.potential is not None]
    metrics.update({
        "pump.steps": (counts["pump.steps"], "count"),
        "pump.witness_checks": (counts["pump.witness_checks"], "count"),
        "driver.outer_iterations": (sum(s.stats.outer_iterations
                                        for s in traced if s.stats is not None), "count"),
        "driver.reduce_potential.lp_accept_ratio": (
            counts["lp_accepts"] / reduce_calls if reduce_calls else 0.0, "ratio"),
        "driver.max_abs_potential": (max(potentials, default=0.0), "reward"),
        "setup.import_s": (statistics.median(s["imported"] - s["start"] for s in imports), "s"),
        "trace.overhead_frac": (sum(probe.scaled(s.start, s.end) for s in traced)
                                / sum(probe.scaled(s.start, s.end) for s in baseline) - 1.0,
                                "ratio"),
    })
    extra = {"matrix_game.solve_value.calls": summary["matrix_game.solve_value.calls"]}
    return metrics, [baseline, traced], [verify], extra


def environment():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 writes the documents as serialize_game does; others reorder their records")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="minimum length of the solve measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ergopump" / "__init__.py").is_file():
        sys.exit(f"error: no ergopump sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False  # set-up children import from this bytecode
    import ergopump

    if not Path(ergopump.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: ergopump was imported from {ergopump.__file__}, not {SRC}")

    instances = workloads.build(args.workload, args.seed)
    games = [inst.game for inst in instances]
    print("environment: " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        metrics, passes, verifies, extra = traced_run(instances, games,
                                                      args.workload, args.seed)
    else:
        metrics, passes, verifies, extra = end_to_end_run(
            instances, games, args.seconds, args.workload, args.seed)

    failures = find_failures(instances, games, passes, verifies)
    for name, reasons in failures.items():
        for reason in reasons:
            print(f"FAILED {name}: {reason}")
    print("fingerprint: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                        **fingerprint(instances, passes[-1]), **extra}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(instances),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
