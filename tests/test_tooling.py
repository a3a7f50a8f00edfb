"""The benchmark's tracer and harness use library names and result fields;
each must still exist and mean what the harness reads it as."""

import ast
import hashlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from builders import count_calls
from ergopump import matrix_game, pump
from ergopump.documents import CERTIFICATE_FORMAT, parse_certificate, parse_game, serialize_game
from ergopump.game import GameSpec
from ergopump.generators import cycle, disconnected

BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = BENCH.parent / "src" / "ergopump"


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
    # the oracle check reads a witness's high and low sets as state indices
    witness = solved[0].verdict
    assert witness.high_states == frozenset({1}) and witness.low_states == frozenset({0})
    assert run.oracle_misses(games[0], witness) == []


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


@pytest.mark.parametrize("workload", ["corpus", "ladder"])
def test_parsed_strategies_match_the_per_state_layout(workload, monkeypatch):
    """On every benchmark certificate at seed 0, parse_certificate's arrays
    are the document's tables laid out one state at a time, bit for bit, NaN
    positions included. The ladder's tables list their states as the names
    sort, s0, s1, s10, ..., not in index order."""
    run = _load("run", monkeypatch)
    instances = run.workloads.build(workload, 0)
    games = [parse_game(inst.text) for inst in instances]
    for game, result in zip(games, run.solve_pass(instances, games)):
        parsed = parse_certificate(result.certificate, game)
        assert [np.asarray(mix).tobytes() for mix in (parsed.alpha, parsed.beta)] == [
            mix.tobytes() for mix in reference.document_strategies(game, result.certificate)]


@pytest.mark.parametrize("workload, batched", [("corpus", False), ("ladder", True)])
def test_each_dispatch_side_has_a_workload(workload, batched, monkeypatch):
    """matrix_game settles a call's mixed games in one batch from
    _BATCH_MIN_GAMES games on, else one at a time. At seed 0 every ladder
    local solve takes the batch and no corpus local solve does, so the
    benchmark times each side; a workload change that moves a side out of
    it fails here."""
    run = _load("run", monkeypatch)
    instances = run.workloads.build(workload, 0)
    games = [parse_game(inst.text) for inst in instances]
    calls = count_calls(monkeypatch, ("local_solve", "_batch_kernels"))
    run.solve_pass(instances, games)
    assert calls["local_solve"] > 0
    assert calls["_batch_kernels"] == (calls["local_solve"] if batched else 0)


@pytest.mark.parametrize("workload, numpy_form", [("corpus", False), ("ladder", True)])
def test_each_state_loop_form_has_a_workload(workload, numpy_form, monkeypatch):
    """pump.partition, the extremes of pump._first_hop_leaks and
    LocalSolve.strategy walk the states in Python below
    matrix_game._NUMPY_MIN_STATES states and run in numpy from there on. At
    seed 0 every ladder call of the three takes the numpy form and no corpus
    call does, so the benchmark times each side; a workload or threshold
    change that moves a side out of it fails here."""
    run = _load("run", monkeypatch)
    instances = run.workloads.build(workload, 0)
    games = [parse_game(inst.text) for inst in instances]
    sizes = {"partition": [], "_first_hop_leaks": [], "strategy": []}

    def sized(name, original, size):
        def wrapper(*args, **kwargs):
            sizes[name].append(size(*args))
            return original(*args, **kwargs)
        return wrapper

    def state_count(values, *_):
        return len(values)

    monkeypatch.setattr(pump, "partition", sized("partition", pump.partition, state_count))
    monkeypatch.setattr(pump, "_first_hop_leaks",
                        sized("_first_hop_leaks", pump._first_hop_leaks, state_count))
    monkeypatch.setattr(matrix_game.LocalSolve, "strategy",
                        sized("strategy", matrix_game.LocalSolve.strategy,
                              lambda solve, _: solve.game.n))
    run.solve_pass(instances, games)
    for name, seen in sizes.items():
        assert seen, name
        assert {n >= matrix_game._NUMPY_MIN_STATES for n in seen} == {numpy_form}, name


@pytest.mark.parametrize("workload, block", [("corpus", False), ("ladder", True)])
def test_each_screen_form_has_a_workload(workload, block, monkeypatch):
    """local_solve screens a game of at least matrix_game._NUMPY_MIN_STATES
    states, each of at most 3 actions per player, as one padded 3x3 block
    (GameSpec.padded_view), and any other game by segmented reductions. At
    seed 0 every ladder local_solve call takes the block and no corpus call
    does, so the benchmark times each side; a workload or threshold change
    that moves a side out of it fails here."""
    run = _load("run", monkeypatch)
    instances = run.workloads.build(workload, 0)
    games = [parse_game(inst.text) for inst in instances]
    views, padded_view = [], GameSpec.padded_view

    def recorded(game):
        view = padded_view(game)
        views.append(view is not None)
        return view

    monkeypatch.setattr(GameSpec, "padded_view", recorded)
    calls = count_calls(monkeypatch, ("local_solve",))
    run.solve_pass(instances, games)
    assert calls["local_solve"] > 0
    assert views == [True] * calls["local_solve"] if block else views == []


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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the README's library example, as written, on a game with negative
    # rewards, whose verdict carries a nonzero value_offset
    readme = (BENCH.parent / "README.md").read_text()
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "game.json").write_text(serialize_game(disconnected(-2.0, 10.0)))
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("certified gap: ")


def _callers(name):
    """module.function for every function in src/ergopump that calls name."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)  # set on calls only
                if name in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                    found.add(f"{path.stem}.{fn.name}")
    return found


def test_reward_shift_has_one_owner_per_side():
    # the solve shifts rewards in decide_ergodicity and stamps the shift on
    # its verdict; the check shifts them in verify_witness and compares.
    # A reward scale beside the shift then has these two places to change
    assert _callers("normalize_rewards") == {"driver.decide_ergodicity",
                                             "witness.verify_witness"}


def test_gap_thresholds_have_one_owner_per_side():
    # the gap graph sizes its thresholds, and the witness check's first hop
    # sizes lower ones from the local solve's bounds, through one rule: the
    # first hop is sound only while its thresholds stay below the graph's
    assert _callers("gap_thresholds") == {"pump.auxiliary_graph", "pump._first_hop_threshold"}


def test_set_preserving_actions_have_one_rule():
    # witness truncation and the check's closure test read which actions
    # keep a set closed from one leak rule, one call per set and player: a
    # call per state would bring back the quadratic witness build
    assert _callers("bar_actions") == {"witness._truncate", "witness.verify_witness"}


def test_strategies_are_laid_out_one_player_at_a_time():
    # a certificate reads one player's strategy from each solve it lays out:
    # the witness build the row player's of the pump's solve and the column
    # player's of the low set's, the ergodic exit both players' of its solve
    assert _callers("strategy") == {"driver._drive", "witness.build_witness"}


def test_payoff_bounds_have_two_readers():
    # payoff bounds size the gap graph's thresholds, and the pump's
    # payoff-bound check reads them only where the screen's minimax leaves a
    # state open: a new reader outside the graph and the check would pay for
    # bounds the minimax already settles
    assert _callers("r_bounds") == {"pump.auxiliary_graph", "pump.modified_pump"}
