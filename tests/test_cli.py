"""CLI contract: subcommands, exit codes, determinism."""

import json

import pytest

from builders import MALFORMED_CERTIFICATES, MALFORMED_PROFILES
from ergopump.cli import main
from ergopump.documents import parse_game, serialize_profile
from ergopump.markov import uniform_profile


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

    def test_tampered_certificate_fails_verify(self, disconnected_path, tmp_path):
        cert = tmp_path / "c.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc["non_ergodic"]["b"] = doc["non_ergodic"]["a"] - 1.0
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(disconnected_path), str(cert)]) == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_exit_one(self, case, disconnected_path, tmp_path, capsys):
        cert = tmp_path / "c.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        MALFORMED_CERTIFICATES[case](doc)
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(disconnected_path), str(cert)]) == 1
        assert "invalid certificate document" in capsys.readouterr().err

    def test_trace_written(self, disconnected_path, tmp_path):
        trace = tmp_path / "trace.jsonl"
        cert = tmp_path / "c.json"
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1",
                    "--out", str(cert), "--trace", str(trace)]) == 2
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert lines and {"tau", "m_min", "m_max", "potential_hash"} <= set(lines[0])

    def test_exact_flag_stores_rationals(self, disconnected_path, tmp_path):
        cert = tmp_path / "c.json"
        assert run(["solve", str(disconnected_path), "--epsilon", "0.1",
                    "--exact", "--out", str(cert)]) == 2
        doc = json.loads(cert.read_text())
        assert "alpha_exact" in doc["non_ergodic"]


class TestUsageAndIO:
    def test_usage_error_exit_64(self):
        assert run(["solve"]) == 64

    def test_unknown_flag_exit_64(self):
        assert run(["solve", "x", "--epsilon", "0.1", "--bogus"]) == 64

    def test_missing_file_exit_66(self, tmp_path):
        assert run(["solve", str(tmp_path / "missing.json"), "--epsilon", "0.1"]) == 66

    def test_invalid_game_document_exit_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run(["solve", str(bad), "--epsilon", "0.1"]) == 64


class TestOtherCommands:
    def test_eval_prints_gains(self, tmp_path, capsys):
        game_path = tmp_path / "g.json"
        run(["gen", "cycle", "-p", "n=2", "-p", "rewards=[0.0,4.0]",
             "--out", str(game_path)])
        game = parse_game(game_path.read_text())
        profile_path = tmp_path / "p.json"
        profile_path.write_text(serialize_profile(game, uniform_profile(game)))
        assert run(["eval", str(game_path), str(profile_path)]) == 0
        out = capsys.readouterr().out
        assert "c0: 2" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED_PROFILES))
    def test_malformed_profile_exit_64(self, case, disconnected_path, tmp_path, capsys):
        game = parse_game(disconnected_path.read_text())
        doc = json.loads(serialize_profile(game, uniform_profile(game)))
        MALFORMED_PROFILES[case](doc)
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(doc))
        assert run(["eval", str(disconnected_path), str(profile_path)]) == 64
        assert "invalid profile document" in capsys.readouterr().err

    def test_oracle_prints_intervals(self, disconnected_path, capsys):
        assert run(["oracle", str(disconnected_path)]) == 0
        out = capsys.readouterr().out
        assert "[0, 0]" in out and "[10, 10]" in out

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

    def test_certificate_bytes_stable_via_cli(self, disconnected_path, tmp_path):
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(c1)])
        run(["solve", str(disconnected_path), "--epsilon", "0.1", "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()
