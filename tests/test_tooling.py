"""The benchmark's tracer and harness use library names and result fields;
each must still exist and mean what the harness reads it as."""

import hashlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from builders import count_calls
from ergopump.documents import CERTIFICATE_FORMAT, parse_game, serialize_game
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
    # the traced run reads each verdict's potential for driver.max_abs_potential
    assert [s.verdict.potential.shape for s in solved] == [(g.n,) for g in games]
    assert all(np.isfinite(float(np.max(np.abs(s.verdict.potential)))) for s in solved)


# certificates_sha256 of `bench/run.py --workload W --seed 0`
GOLDEN_CERTIFICATES = {
    "corpus": "c4f51694ac3d9f616c10f640a66e95b515f2ca6a884793ec2384540c44c85b9a",
    "ladder": "d732e59b1d472ea293c6f877cb6799be1790d4f8073bc3b070074b3d4b457676",
    "pump-long": "b8f05ed6c95c01ba05a3ed64b4a17bc01885fb3207b87e56f29e642ff6632f50",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_CERTIFICATES))
def test_benchmark_certificates_are_unchanged(workload, monkeypatch):
    """The benchmark's workloads at seed 0, parsed from the documents that
    bench/workloads.build writes, solve to certificates whose hash is the
    one bench/run.py's fingerprint reports. A change that alters any
    certificate bit fails here. ROADMAP items 2, 5 and 6 change certificate
    bits on purpose: such a change refreshes these values, and records the
    new fingerprints in CHANGES.md."""
    run = _load("run", monkeypatch)
    instances = run.workloads.build(workload, 0)
    games = [parse_game(inst.text) for inst in instances]
    solved = run.solve_pass(instances, games)
    assert run.find_failures(instances, games, [solved], []) == {}
    assert run.fingerprint(instances, solved)["certificates_sha256"] == GOLDEN_CERTIFICATES[workload]


GOLDEN_DOCUMENTS = {
    "corpus": "0e3fb6af8b53d1bb803464e504c18feddbdbac9afc00dee7cc28084d27094d63",
    "ladder": "f64b104b267b716afbaba9b6df6cde28fe4c2747394b61353129bf5b9e21a0c2",
    "pump-long": "125b98997400c5063cf819d8a4184dd3204837d3f4a63dd29b78c3dbdcdef901",
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_DOCUMENTS))
def test_benchmark_documents_are_unchanged(workload, monkeypatch):
    """The game documents bench/workloads.build writes at seed 0 hash as
    they did: serialize_game writes every record of every game in the same
    order and format, so the benchmark's parser reads the same input."""
    digest = hashlib.sha256()
    for inst in _load("workloads", monkeypatch).build(workload, 0):
        digest.update(inst.text.encode())
    assert digest.hexdigest() == GOLDEN_DOCUMENTS[workload]


@pytest.mark.parametrize("workload, conversions", [("corpus", 761), ("ladder", 8)])
def test_each_distinct_probability_is_converted_once(workload, conversions, monkeypatch):
    """parse_game leaves the records' values to make_game, which converts
    each distinct probability of a document to a Fraction once: the corpus's
    documents hold 761 distinct values and the ladder's 8, in some 3,800 and
    4,100 records."""
    instances = _load("workloads", monkeypatch).build(workload, 0)
    calls = count_calls(monkeypatch, ("to_fraction",))
    for inst in instances:
        parse_game(inst.text)
    assert calls == {"to_fraction": conversions}


def test_verdict_path_imports_no_scipy():
    # scipy serves only the reference modules markov and oracle, which the
    # package and its CLI never import
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import ergopump, ergopump.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


def test_import_path_execs_no_generated_code():
    # no dataclass on the import path: each one execs generated methods on
    # every start, which no bytecode cache keeps. hashlib serves only the
    # trace, and multiprocessing only the CLI's --jobs pool
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import ergopump; "
             "print(sorted({'dataclasses', 'hashlib'} & set(sys.modules))); "
             "import ergopump.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines() == ["[]", "[]"]


def test_readme_names_the_certificate_format():
    # a format bump must update the README's account of the document
    readme = (BENCH.parent / "README.md").read_text()
    assert f"`{CERTIFICATE_FORMAT}`" in readme
