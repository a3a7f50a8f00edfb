"""The benchmark's tracer and harness use library names and result fields;
each must still exist and mean what the harness reads it as."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from ergopump.documents import serialize_game
from ergopump.generators import cycle, disconnected

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        # run.py imports its sibling modules by bare name, and its dataclasses
        # look their module up in sys.modules
        monkeypatch.syspath_prepend(str(BENCH))
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _load("tracing")
    missing = [
        f"ergopump.{module}.{fn}"
        for module, fns in tracing.LAYERS.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"ergopump.{module}"), fn, None))
    ]
    assert not missing, f"bench/tracing.py times functions that are gone: {missing}"


def test_harness_reads_solver_results(monkeypatch):
    run = _load("run", monkeypatch)
    games = [disconnected(0.0, 10.0), cycle(n=3)]
    instances = [run.workloads.Instance(name=f"game-{i}", text=serialize_game(g), eps=0.05, game=g)
                 for i, g in enumerate(games)]
    solved = run.solve_pass(instances, games)
    verified = run.verify_pass(games, solved)
    assert run.find_failures(instances, games, [solved, solved], [verified]) == {}
    fingerprint = run.fingerprint(instances, solved)
    assert sum(fingerprint["verdicts"].values()) == len(games)
    assert fingerprint["verdicts"].get("non-ergodic") == 1
    assert fingerprint["pump.steps"] > 0


def test_verdict_path_imports_no_scipy():
    # scipy serves only the reference modules markov and oracle, which the
    # package and its CLI never import
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import ergopump, ergopump.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"
