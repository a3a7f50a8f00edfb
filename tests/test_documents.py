"""Document formats: round-trips, error reporting, certificate rechecks."""

import json

import numpy as np
import pytest

from builders import disconnected
from ergopump.documents import (
    DocumentError,
    parse_certificate,
    parse_game,
    parse_profile,
    recheck_certificate,
    serialize_certificate,
    serialize_game,
    serialize_profile,
)
from ergopump.driver import decide_ergodicity
from ergopump.generators import KINDS, generate
from ergopump.markov import uniform_profile

MINIMAL = """
{
  "format": "ergopump-game/1",
  "states": ["s"],
  "actions": {"s": {"row": ["a"], "col": ["x"]}},
  "transitions": [
    {"from": "s", "row": "a", "col": "x", "to": "s", "p": "1", "r": 5.0}
  ]
}
"""


class TestGameDocuments:
    def test_minimal_document_parses(self):
        game = parse_game(MINIMAL)
        assert game.states == ("s",)
        assert game.reward[0][0][0][0] == 5.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_round_trip_all_generators(self, kind):
        text = generate(kind, {}, seed=3)
        game = parse_game(text)
        assert parse_game(serialize_game(game)) == game

    def test_substochastic_row_reports_index(self):
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["p"] = "9/10"
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert any("non-stopping" in p for p in err.value.problems)

    def test_unknown_state_named(self):
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["to"] = "ghost"
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert any("ghost" in p and "record 0" in p for p in err.value.problems)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DocumentError) as err:
            parse_game("{not json")
        assert "line 1" in err.value.problems[0]

    def test_error_cap_at_twenty(self):
        doc = json.loads(MINIMAL)
        doc["transitions"] = [
            {"from": "s", "row": "a", "col": "x", "to": f"ghost{i}", "p": "1", "r": 0.0}
            for i in range(40)
        ]
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert len(err.value.problems) <= 20

    def test_probabilities_survive_as_rationals(self):
        text = generate("random", {"n": 3, "granularity": 7}, seed=5)
        game = parse_game(text)
        from ergopump.game import game_params
        assert game_params(game).granularity <= 7
        again = parse_game(serialize_game(game))
        assert again.prob == game.prob


class TestProfileDocuments:
    def test_round_trip(self):
        g = disconnected()
        profile = uniform_profile(g)
        text = serialize_profile(g, profile)
        parsed = parse_profile(text, g)
        for v in range(g.n):
            assert np.allclose(parsed.alpha[v], profile.alpha[v])

    def test_missing_state_rejected(self):
        g = disconnected()
        with pytest.raises(DocumentError, match="missing state"):
            parse_profile(json.dumps({"format": "ergopump-profile/1",
                                      "alpha": {}, "beta": {}}), g)


class TestCertificates:
    def _solve(self, eps=0.1):
        game = disconnected(0.0, 10.0)
        verdict, stats = decide_ergodicity(game, eps)
        return game, verdict, stats

    def test_round_trip_and_recheck(self):
        game, verdict, stats = self._solve()
        text = serialize_certificate(game, verdict, stats)
        bundle = parse_certificate(text, game)
        assert bundle.verdict_kind == "non-ergodic"
        ok, problems = recheck_certificate(game, bundle)
        assert ok, problems

    def test_byte_identical_across_runs(self):
        game1, verdict1, stats1 = self._solve()
        game2, verdict2, stats2 = self._solve()
        text1 = serialize_certificate(game1, verdict1, stats1)
        text2 = serialize_certificate(game2, verdict2, stats2)
        assert text1 == text2

    def test_tampered_floor_fails_recheck(self):
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc["non_ergodic"]["b"] = doc["non_ergodic"]["a"] - 0.1
        bundle = parse_certificate(json.dumps(doc), game)
        ok, problems = recheck_certificate(game, bundle)
        assert not ok
        assert any("floor" in p for p in problems)

    def test_ergodic_certificate_recheck(self):
        game = disconnected(4.0, 4.5)
        verdict, stats = decide_ergodicity(game, eps=0.5)
        assert verdict.kind == "ergodic-24eps"
        text = serialize_certificate(game, verdict, stats)
        bundle = parse_certificate(text, game)
        ok, problems = recheck_certificate(game, bundle)
        assert ok, problems

    def test_ergodic_band_tamper_detected(self):
        game = disconnected(4.0, 4.5)
        verdict, stats = decide_ergodicity(game, eps=0.5)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc["epsilon"] = 1e-4  # claims a much tighter band than achievable
        bundle = parse_certificate(json.dumps(doc), game)
        ok, problems = recheck_certificate(game, bundle)
        assert not ok

    def test_format_one_rejected(self):
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        assert doc["format"] == "ergopump-certificate/2"
        doc["format"] = "ergopump-certificate/1"
        with pytest.raises(DocumentError, match="not a ergopump-certificate/2"):
            parse_certificate(json.dumps(doc), game)

    def test_wrong_game_rejected(self):
        game, verdict, stats = self._solve()
        text = serialize_certificate(game, verdict, stats)
        other = disconnected(1.0, 2.0)  # same states, different rewards
        bundle = parse_certificate(text, other)
        ok, problems = recheck_certificate(other, bundle)
        assert not ok


class TestGenerators:
    def test_deterministic_documents(self):
        a = generate("random", {"n": 4, "max_actions": 2, "granularity": 4,
                                "reward_bound": 8.0}, seed=7)
        b = generate("random", {"n": 4, "max_actions": 2, "granularity": 4,
                                "reward_bound": 8.0}, seed=7)
        assert a == b
        c = generate("random", {"n": 4, "max_actions": 2, "granularity": 4,
                                "reward_bound": 8.0}, seed=8)
        assert a != c

    def test_all_kinds_validate(self):
        for kind in KINDS:
            game = parse_game(generate(kind, {}, seed=1))
            assert game.n >= 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("nope", {}, seed=0)

    def test_big_match_shape(self):
        game = parse_game(generate("big-match", {}, seed=0))
        assert game.n == 3
        assert game.num_row_actions(0) == 2
        assert game.num_col_actions(0) == 2
