"""CLI contract: subcommands, exit codes, determinism."""

import concurrent.futures
import json
import re
from pathlib import Path

import pytest

from builders import MALFORMED_CERTIFICATES, disconnected, leaky_pair
from ergopump import cli, documents
from ergopump.cli import build_parser, main
from ergopump.documents import serialize_game
from ergopump.generators import random_game


def run(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse-level exits
        return exc.code


@pytest.fixture
def disconnected_path(tmp_path):
    path = tmp_path / "disc.json"
    assert run(["gen", "disconnected", "-p", "low_reward=0", "-p", "high_reward=10",
                "--out", str(path)]) == 0
    return path


class TestSolveExitCodes:
    def test_one_state_is_ergodic_exit_zero(self, tmp_path, capsys):
        game = tmp_path / "one.json"
        run(["gen", "cycle", "-p", "n=1", "-p", "rewards=[2.0]", "--out", str(game)])
        assert run(["solve", str(game), "--epsilon", "0.05"]) == 0
        assert (tmp_path / "one.cert.json").exists()

    def test_non_ergodic_exit_two_then_verify_zero(self, disconnected_path, tmp_path):
        cert = tmp_path / "out.cert.json"
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1",
                    "--out", str(cert)]) == 2
        assert run(["verify", str(disconnected_path), str(cert)]) == 0

    def test_inconclusive_exit_three(self, disconnected_path, tmp_path):
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1",
                    "--cap", "3"]) == 3

    def test_granularity_beyond_the_float_range_exit_three(self, tmp_path):
        # W = 10**400 has no float; the solve ends inconclusive, not in a traceback
        game = tmp_path / "leaky.json"
        game.write_text(serialize_game(leaky_pair("1e-400")))
        assert run(["solve", str(game), "--epsilon", "0.05"]) == 3

    def test_tampered_certificate_fails_verify(self, disconnected_path, tmp_path):
        cert = tmp_path / "c.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc["floor"] = doc["ceiling"] - 1.0
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(disconnected_path), str(cert)]) == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_exit_one(self, case, tmp_path, capsys):
        game, eps, edit, failure = MALFORMED_CERTIFICATES[case]
        game_path, cert = tmp_path / "g.json", tmp_path / "c.json"
        game_path.write_text(serialize_game(game))
        run(["solve", str(game_path), "--epsilon", str(eps), "--out", str(cert)])
        doc = json.loads(cert.read_text())
        edit(doc)
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(game_path), str(cert)]) == 1
        out = capsys.readouterr()
        if failure is None:
            assert "invalid certificate document" in out.err
        else:
            assert "FAIL" in out.out and failure in out.out

    def test_trace_written(self, disconnected_path, tmp_path):
        trace = tmp_path / "trace.jsonl"
        cert = tmp_path / "c.json"
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1",
                    "--out", str(cert), "--trace", str(trace)]) == 2
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines and {"tau", "m_min", "m_max", "potential_hash"} <= set(lines[0])

    def test_each_game_parsed_once(self, disconnected_path, monkeypatch):
        calls = []
        parse = documents.parse_game

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(documents, "parse_game", counting_parse)
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1"]) == 2
        assert len(calls) == 1


class TestUsageAndIO:
    def test_usage_error_exit_64(self):
        assert run(["solve"]) == 64

    def test_unknown_flag_exit_64(self):
        assert run(["solve", "x", "--epsilon", "0.1", "--bogus"]) == 64

    def test_missing_file_exit_66(self, tmp_path):
        assert run(["solve", str(tmp_path / "missing.json"), "--epsilon", "0.1"]) == 66

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "-1"), ("--epsilon", "0"), ("--epsilon", "nan"),
        ("--epsilon", "inf"), ("--cap", "-5"), ("--cap", "0"),
        ("--jobs", "-3"), ("--jobs", "0"),
    ])
    def test_bad_number_exit_64(self, flag, value, disconnected_path):
        args = ["solve", str(disconnected_path), "--epsilon", "0.1", flag, value]
        assert run(args) == 64
        assert not disconnected_path.with_suffix(".cert.json").exists()

    @pytest.mark.parametrize("command", ["eval", "oracle"])
    def test_unknown_subcommand_exit_64(self, command, disconnected_path, capsys):
        assert run([command, str(disconnected_path)]) == 64
        assert "invalid choice" in capsys.readouterr().err

    def test_trace_with_several_games_exit_64(self, disconnected_path, tmp_path, capsys):
        other = tmp_path / "other.json"
        run(["gen", "cycle", "--out", str(other)])
        out_dir = tmp_path / "certs"
        out_dir.mkdir()
        assert run(["solve", str(disconnected_path), str(other), "--epsilon", "0.1",
                    "--out", str(out_dir), "--trace", str(tmp_path / "t.jsonl")]) == 64
        assert "--trace takes a single game" in capsys.readouterr().err
        assert not list(out_dir.iterdir())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_second_game_writes_nothing(self, disconnected_path, tmp_path, jobs,
                                                capsys):
        # every game is validated before the first one is solved
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["solve", str(disconnected_path), str(bad), "--epsilon", "0.1",
                    "--out", str(tmp_path), "--jobs", jobs]) == 64
        out = capsys.readouterr()
        assert f"{bad}: invalid game document" in out.err and not out.out
        assert not list(tmp_path.glob("*.cert.json"))

    @pytest.mark.parametrize("document, code, what", [("game", 64, "game"),
                                                      ("certificate", 1, "certificate")])
    def test_integer_literal_past_the_digit_limit(self, document, code, what, disconnected_path,
                                                  tmp_path, capsys):
        # json.loads raises ValueError, not JSONDecodeError, on such a literal;
        # the document is invalid, as any other invalid game or certificate
        cert = tmp_path / "c.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(cert)])
        path = disconnected_path if document == "game" else cert
        doc = json.loads(path.read_text())
        if document == "game":
            doc["transitions"][0]["r"] = "HUGE"
        else:
            doc["floor"] = "HUGE"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
        capsys.readouterr()
        assert run(["verify", str(disconnected_path), str(cert)]) == code
        err = capsys.readouterr().err
        assert f"invalid {what} document" in err and "JSON integer literal" in err

    def test_slot_sum_past_the_digit_limit_exit_64(self, tmp_path, capsys):
        big = 10**2500
        records = [("s", "s", f"1/{big + 1}"), ("s", "t", f"1/{big + 3}"), ("t", "t", "1")]
        game = tmp_path / "long.json"
        game.write_text(json.dumps({
            "format": "ergopump-game/1", "states": ["s", "t"],
            "actions": {s: {"row": ["a"], "col": ["b"]} for s in ("s", "t")},
            "transitions": [{"from": v, "row": "a", "col": "b", "to": u, "p": p, "r": 0.0}
                            for v, u, p in records]}))
        assert run(["solve", str(game), "--epsilon", "0.1"]) == 64
        err = capsys.readouterr().err
        assert "invalid game document" in err and "('s', k=0, l=0)" in err
        assert "Traceback" not in err

    def test_invalid_game_document_exit_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["solve", str(bad), "--epsilon", "0.1"]) == 64


class TestOtherCommands:
    def test_gen_determinism(self, capsys):
        assert run(["gen", "random", "--seed", "7", "-p", "n=4"]) == 0
        first = capsys.readouterr().out
        assert run(["gen", "random", "--seed", "7", "-p", "n=4"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_multi_game_solve(self, tmp_path):
        paths = []
        for i, kind in enumerate(("disconnected", "cycle")):
            p = tmp_path / f"g{i}.json"
            run(["gen", kind, "--out", str(p)])
            paths.append(str(p))
        out_dir = tmp_path / "certs"
        out_dir.mkdir()
        code = run(["solve", *paths, "--epsilon", "0.1", "--out", str(out_dir),
                    "--jobs", "2"])
        assert code == 0
        assert sorted(f.name for f in out_dir.iterdir()) == ["g0.cert.json",
                                                             "g1.cert.json"]

    @pytest.mark.parametrize("layout", ["same-stem", "same-file", "out-is-game",
                                        "trace-is-certificate"])
    def test_clashing_certificate_paths_exit_64(self, layout, tmp_path, capsys, monkeypatch):
        # a solve that would write one file twice, or over an input game, is
        # refused before any game is solved, and the message names the clash
        monkeypatch.setattr(cli, "decide_ergodicity", lambda *args: pytest.fail("solved"))
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(str(tmp_path / folder / "g.json"))
            run(["gen", "disconnected", "--out", paths[-1]])
        games = {path: Path(path).read_text() for path in paths}
        cert = str(tmp_path / "c.json")
        if layout == "same-stem":
            out = tmp_path / "out"
            out.mkdir()
            args, named = [*paths, "--out", str(out)], [*paths, "g.cert.json"]
        elif layout == "same-file":
            args, named = [paths[0], paths[0]], [paths[0], "g.cert.json"]
        elif layout == "out-is-game":
            args, named = [paths[0], "--out", paths[0]], [paths[0], "input game"]
        else:
            args, named = [paths[0], "--out", cert, "--trace", cert], [cert, "trace"]
        assert run(["solve", *args, "--epsilon", "0.1"]) == 64
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert not list(tmp_path.rglob("*.cert.json")) and not Path(cert).exists()
        assert {path: Path(path).read_text() for path in paths} == games

    def test_jobs_capped_at_game_count(self, tmp_path, monkeypatch):
        # the pool is replaced by a serial stand-in, so no process starts
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # cli imports the pool class where it starts one, from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        paths = []
        for kind in ("disconnected", "cycle"):
            paths.append(str(tmp_path / f"{kind}.json"))
            run(["gen", kind, "--out", paths[-1]])
        assert run(["solve", *paths, "--epsilon", "0.1", "--out", str(tmp_path),
                    "--jobs", "500"]) == 0
        assert pools == [2]

    def test_jobs_write_the_same_certificates(self, tmp_path):
        # --jobs 2 pickles each parsed game to a worker, flat view and game
        # constants with it; its certificates must be --jobs 1's, byte for byte
        paths = []
        for name, game in (("coarse", random_game(6, max_actions=2, granularity=7, seed=3)),
                           ("disconnected", disconnected(-2.0, 10.0))):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(serialize_game(game))
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            out.mkdir()
            assert run(["solve", *map(str, paths), "--epsilon", "0.05", "--out", str(out),
                        "--jobs", jobs]) in (0, 2)
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(written[0]) == 2 and written[0] == written[1]

    def test_certificate_bytes_stable_via_cli(self, disconnected_path, tmp_path):
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(c1)])
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()


def test_readme_command_table_matches_parser():
    # every option of a subcommand is listed in README's table, and every
    # flag listed there exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)([^`]*)` \|", readme, flags=re.MULTILINE)
    subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    assert sorted(name for name, _ in rows) == sorted(subparsers.choices)
    for name, usage in rows:
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", usage))
        options = [a.option_strings for a in subparsers.choices[name]._actions
                   if a.option_strings and "--help" not in a.option_strings]
        assert listed <= {flag for strings in options for flag in strings}, name
        for strings in options:
            assert listed & set(strings), f"{name}: {strings} missing from README"
