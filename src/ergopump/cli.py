"""Command-line interface: solve, verify and gen.

Exit codes: solve on one game returns 0 when the game is certified
ergodic, 2 when a non-ergodicity witness is certified, 3 when
inconclusive; solve on several games returns 3 when any of them is
inconclusive and 0 otherwise, witnesses included. verify returns 0 on pass
and 1 on fail; gen returns 0. Usage errors, an unknown subcommand among
them, exit 64 and I/O errors 66.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import documents, generators
from .driver import HARD_CAP, DriverConfig, decide_ergodicity
from .witness import ERGODIC, NON_ERGODIC

EX_USAGE = 64
EX_IOERR = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(EX_IOERR)


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(EX_IOERR)


def _load_game(path: str):
    try:
        return documents.parse_game(_read(path))
    except documents.DocumentError as exc:
        print(f"{path}: invalid game document:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        sys.exit(EX_USAGE)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _solve_one(game, eps: float, cap: int, trace_path: str | None, out_path: str):
    """Solve one parsed game, write its certificate (and trace); returns the verdict."""
    config = DriverConfig(pump_cap=cap, collect_trace=trace_path is not None)
    verdict, stats = decide_ergodicity(game, eps, config)
    _write(out_path, documents.serialize_certificate(game, verdict, stats))
    if trace_path is not None:
        _write(trace_path, "".join(json.dumps(entry, sort_keys=True) + "\n"
                                   for entry in stats.trace))
    return verdict


def _cmd_solve(args) -> int:
    if len(args.game) > 1 and args.trace is not None:
        print("--trace takes a single game", file=sys.stderr)
        return EX_USAGE
    if len(args.game) > 1 and args.out is not None:
        out_dir = Path(args.out)
        if not out_dir.is_dir():
            print("--out must be a directory when solving multiple games",
                  file=sys.stderr)
            return EX_USAGE
    jobs = []
    for game_path in args.game:
        if args.out is None:
            out_path = str(Path(game_path).with_suffix(".cert.json"))
        elif len(args.game) > 1:
            out_path = str(Path(args.out) / (Path(game_path).stem + ".cert.json"))
        else:
            out_path = args.out
        jobs.append((game_path, out_path))
    # every file the solve writes, against each other and against every input
    writers = {}
    for game_path, out_path in jobs:
        writers.setdefault(Path(out_path).resolve(), []).append(
            f"the certificate of {game_path}")
    if args.trace is not None:
        writers.setdefault(Path(args.trace).resolve(), []).append("the trace")
    inputs = {Path(game_path).resolve() for game_path in args.game}
    clashes = [(target, what) for target, what in writers.items()
               if len(what) > 1 or target in inputs]
    for target, what in clashes:
        if len(what) > 1:
            print(f"{' and '.join(what)} would be written to the same file {target}",
                  file=sys.stderr)
        if target in inputs:
            print(f"{what[0]} would overwrite the input game {target}", file=sys.stderr)
    if clashes:
        return EX_USAGE

    # every game is read and validated before the first certificate is written
    games = [_load_game(game_path) for game_path, _ in jobs]
    work = [(game, args.epsilon, args.cap, args.trace, out_path)
            for game, (_, out_path) in zip(games, jobs)]
    if len(work) > 1 and args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        # a fork-based pool starts all its workers up front: no more than games
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(work))) as pool:
            verdicts = list(pool.map(_solve_one_star, work))
    else:
        verdicts = [_solve_one(*item) for item in work]

    code = 0
    for (game_path, out_path), game, verdict in zip(jobs, games, verdicts):
        if verdict.kind == ERGODIC:
            print(f"{game_path}: ergodic within 24*eps; local values in "
                  f"[{_fmt(verdict.floor)}, {_fmt(verdict.ceiling)}] "
                  f"(normalized units, offset {_fmt(verdict.value_offset)}); "
                  f"certificate: {out_path}")
            this = 0
        elif verdict.kind == NON_ERGODIC:
            high = ", ".join(game.states[v] for v in sorted(verdict.high_states))
            low = ", ".join(game.states[v] for v in sorted(verdict.low_states))
            print(f"{game_path}: NOT ergodic; values from {{{high}}} stay >= "
                  f"{_fmt(verdict.floor)} while values from {{{low}}} stay <= "
                  f"{_fmt(verdict.ceiling)}; certificate: {out_path}")
            this = 2
        else:
            print(f"{game_path}: inconclusive ({verdict.reason}); "
                  f"certificate: {out_path}")
            this = 3
        if len(jobs) == 1:
            code = this
        elif this == 3:
            code = 3
    return code


def _solve_one_star(job):
    return _solve_one(*job)


def _cmd_verify(args) -> int:
    game = _load_game(args.game)
    try:
        verdict = documents.parse_certificate(_read(args.certificate), game)
    except documents.DocumentError as exc:
        print(f"{args.certificate}: invalid certificate document:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    ok, problems = documents.recheck_certificate(game, verdict)
    if ok:
        print(f"{args.certificate}: PASS ({verdict.kind})")
        return 0
    print(f"{args.certificate}: FAIL")
    for problem in problems:
        print(f"  - {problem}")
    return 1


def _parse_param(token: str):
    if "=" not in token:
        raise ValueError(f"expected key=value, got {token!r}")
    key, raw = token.split("=", 1)
    if raw.startswith("["):
        return key, json.loads(raw)
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _cmd_gen(args) -> int:
    try:
        params = dict(_parse_param(tok) for tok in args.param)
        text = generators.generate(args.kind, params, seed=args.seed)
    except (ValueError, TypeError) as exc:
        print(f"generator error: {exc}", file=sys.stderr)
        return EX_USAGE
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write(args.out, text)
    return 0


def _epsilon(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ergopump",
                     description="Certify (non-)ergodicity of zero-sum stochastic games.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the solver and write a certificate")
    solve.add_argument("game", nargs="+", help="game document path(s)")
    solve.add_argument("--epsilon", type=_epsilon, required=True)
    solve.add_argument("--cap", type=_positive_int, default=HARD_CAP,
                       help="pump steps allowed per phase (default: %(default)s)")
    solve.add_argument("--trace", default=None,
                       help="write per landed pump step trace records to this file "
                            "(single game only)")
    solve.add_argument("--out", default=None,
                       help="certificate path (or directory for multiple games)")
    solve.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel workers for multi-file batches")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="recheck a certificate from scratch")
    verify.add_argument("game")
    verify.add_argument("certificate")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("gen", help="generate a game document")
    gen.add_argument("kind", choices=generators.KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.add_argument("-p", "--param", action="append", default=[],
                     help="generator parameter as key=value (repeatable)")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
