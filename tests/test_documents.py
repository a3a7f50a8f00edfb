"""Document formats: round-trips, error reporting, certificate rechecks."""

import json
from fractions import Fraction

import numpy as np
import pytest

import reference
from builders import (
    MALFORMED_CERTIFICATES,
    count_calls,
    disconnected,
    matrix_as_game,
)
from ergopump import game as game_module
from ergopump.documents import (
    DocumentError,
    parse_certificate,
    parse_game,
    recheck_certificate,
    serialize_certificate,
    serialize_game,
)
from ergopump.driver import DriverConfig, decide_ergodicity
from ergopump.game import GameSpec, normalize_rewards
from ergopump.generators import KINDS, generate, random_game

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
        assert game.transitions == (((0, 0, 0, Fraction(1), 5.0),),)

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

    @pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf"),
                                        "nan", "inf"])
    def test_non_finite_reward_rejected(self, reward):
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["r"] = reward  # floats are written as NaN/Infinity literals
        with pytest.raises(DocumentError, match="reward is not finite"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("reward", [True, "2.5", 10**400])
    def test_reward_that_is_not_a_number_rejected(self, reward):
        # a float conversion would read JSON true as 1.0 and "2.5" as 2.5,
        # and raise OverflowError on an integer beyond the float range
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["r"] = reward
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == (
            f"transition record 0: reward is not finite or not a number: {reward!r}",)

    @pytest.mark.parametrize("p", ["1e400", "-1e400", 10**400], ids=["1e400", "-1e400", "int"])
    def test_probability_beyond_the_float_range_reported(self, p):
        # an exact value the float view cannot hold is reported, not raised
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["p"] = p
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == (
            f"probability out of range at ('s', k=0, l=0, u='s'): {Fraction(p)}",
            f"non-stopping condition fails at ('s', k=0, l=0): probabilities sum to "
            f"{Fraction(p)}")

    def test_zero_denominator_reported(self):
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["p"] = "1/0"
        with pytest.raises(DocumentError, match="transition record 0"):
            parse_game(json.dumps(doc))

    @pytest.mark.parametrize("record", [3, [1], "s", None])
    def test_record_that_is_no_object_named(self, record):
        # the same words whatever Python's subscript error says
        doc = json.loads(MINIMAL)
        doc["transitions"].append(record)
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("transition record 1: the record is not an object",)

    @pytest.mark.parametrize("field", ["from", "row", "col", "to"])
    def test_list_or_object_name_named(self, field):
        # an unhashable token is looked up by its str, as any other name
        doc = json.loads(MINIMAL)
        doc["transitions"][0][field] = ["s"]
        doc["transitions"].append({**doc["transitions"][0], field: {"s": 0}})
        what = {"from": "state", "to": "state", "row": "row action", "col": "column action"}
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == (f"transition record 0: unknown {what[field]} \"['s']\"",
                                      f"transition record 1: unknown {what[field]} "
                                      f"\"{{'s': 0}}\"")

    @pytest.mark.parametrize("text", [
        '{"format": "ergopump-game/1", "states": [' + "1" * 5000 + "]}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["integer-literal-past-the-digit-limit", "nesting-past-the-recursion-limit"])
    def test_json_python_cannot_hold_is_a_document_error(self, text):
        with pytest.raises(DocumentError, match="JSON"):
            parse_game(text)

    def test_name_and_probability_problems_reported_together(self):
        doc = json.loads(MINIMAL)
        doc["transitions"][0]["to"] = "ghost"
        doc["transitions"].append({**doc["transitions"][0], "to": "s", "p": "1/0"})
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("transition record 0: unknown state 'ghost'",
                                      "transition record 1: probability '1/0' has a zero "
                                      "denominator")

    def test_shape_problem_stops_the_parse_before_values(self):
        doc = json.loads(MINIMAL)
        doc["transitions"].append({**doc["transitions"][0], "p": "1/0", "r": "x"})
        del doc["transitions"][0]["r"]
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("transition record 0: missing field 'r'",)

    def test_repeated_state_named(self):
        doc = json.loads(MINIMAL)
        doc["states"].append("s")
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("duplicate state name 's'",)

    def test_missing_field_named(self):
        doc = json.loads(MINIMAL)
        del doc["transitions"][0]["to"]
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("transition record 0: missing field 'to'",)

    def test_actions_must_be_a_mapping(self):
        doc = json.loads(MINIMAL)
        doc["actions"] = []
        with pytest.raises(DocumentError, match="'actions' must map"):
            parse_game(json.dumps(doc))

    def test_action_names_must_be_a_list(self):
        doc = json.loads(MINIMAL)
        doc["actions"]["s"]["row"] = "ab"
        with pytest.raises(DocumentError, match="must be a list of names"):
            parse_game(json.dumps(doc))

    def test_state_without_actions_named(self):
        doc = json.loads(MINIMAL)
        doc["states"].append("low")
        doc["actions"]["low"] = {"row": [], "col": ["x"]}
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("state 'low': row player has no actions",)

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

    def test_bad_record_reported_before_any_game_is_built(self, monkeypatch):
        doc = json.loads(serialize_game(random_game(256, max_actions=3, seed=0)))
        doc["transitions"][5]["to"] = "ghost"
        built = []
        original = GameSpec.__init__

        def counted(self, *fields):
            built.append(self)
            original(self, *fields)

        monkeypatch.setattr(GameSpec, "__init__", counted)
        with pytest.raises(DocumentError) as err:
            parse_game(json.dumps(doc))
        assert err.value.problems == ("transition record 5: unknown state 'ghost'",)
        assert not built

    def test_parse_and_solve_validate_once(self, monkeypatch):
        text = serialize_game(disconnected(0.0, 10.0))
        calls = []
        original = game_module.validate

        def counted(game):
            calls.append(game)
            return original(game)

        monkeypatch.setattr(game_module, "validate", counted)
        decide_ergodicity(parse_game(text), eps=0.1)
        assert len(calls) == 1

    def test_probabilities_survive_as_rationals(self):
        text = generate("random", {"n": 3, "granularity": 7}, seed=5)
        game = parse_game(text)
        from ergopump.game import game_params
        assert game_params(game).granularity <= 7
        again = parse_game(serialize_game(game))
        probs = [rec[3] for records in game.transitions for rec in records]
        assert all(isinstance(p, Fraction) for p in probs)
        assert [rec[3] for records in again.transitions for rec in records] == probs


class TestCertificates:
    def _solve(self, eps=0.1):
        game = disconnected(0.0, 10.0)
        verdict, stats = decide_ergodicity(game, eps)
        return game, verdict, stats

    def test_round_trip_and_recheck(self):
        game, verdict, stats = self._solve()
        text = serialize_certificate(game, verdict, stats)
        parsed = parse_certificate(text, game)
        assert parsed.kind == "non-ergodic"
        ok, problems = recheck_certificate(game, parsed)
        assert ok, problems

    def test_byte_identical_across_runs(self):
        game1, verdict1, stats1 = self._solve()
        game2, verdict2, stats2 = self._solve()
        text1 = serialize_certificate(game1, verdict1, stats1)
        text2 = serialize_certificate(game2, verdict2, stats2)
        assert text1 == text2

    def test_metadata_holds_only_phase_counters(self):
        # every phase runs under the same constant step cap, so no record
        # carries it; the witness exit runs both phases
        for game, phases in ((disconnected(0.0, 10.0), {"phase1", "phase2"}),
                             (random_game(4, max_actions=3, seed=11), {"phase1"})):
            verdict, stats = decide_ergodicity(game, 0.05)
            metadata = json.loads(serialize_certificate(game, verdict, stats))["metadata"]
            assert set(metadata) == {"outer_iterations", "phases"}
            assert metadata["phases"]
            for record in metadata["phases"]:
                assert set(record) == {"h", "band"} | phases
                assert set(record["phase1"]) == {"kind", "iterations"}
                if "phase2" in record:
                    assert set(record["phase2"]) == {"kind", "iterations", "collapsed"}

    def test_tampered_floor_fails_recheck(self):
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc["floor"] = doc["ceiling"] - 0.1
        ok, problems = recheck_certificate(game, parse_certificate(json.dumps(doc), game))
        assert not ok
        assert any("floor" in p for p in problems)

    def test_rescaled_strategy_is_renormalised(self):
        # an unnormalised alpha must not scale the one-shot payoff: read as
        # a distribution, [20.0] is [1.0] and cannot carry the 0.5 state
        # above the floor taken from the 10 state
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc["alpha"]["high"] = [20.0]
        weaker = disconnected(0.0, 0.5)
        parsed = parse_certificate(json.dumps(doc), weaker)
        assert reference.per_state(weaker, parsed.alpha, "row")[1].tolist() == [1.0]
        ok, problems = recheck_certificate(weaker, parsed)
        assert not ok
        assert any("below floor" in p for p in problems)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
    def test_malformed_certificate_rejected(self, case):
        # each case fails at one stage: the parser (failure None) or the recheck
        game, eps, edit, failure = MALFORMED_CERTIFICATES[case]
        verdict, stats = decide_ergodicity(game, eps)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        edit(doc)
        if failure is None:
            with pytest.raises(DocumentError):
                parse_certificate(json.dumps(doc), game)
        else:
            ok, problems = recheck_certificate(game, parse_certificate(json.dumps(doc), game))
            assert not ok and any(failure in p for p in problems), problems

    def test_ergodic_certificate_recheck(self):
        game = disconnected(4.0, 4.5)
        verdict, stats = decide_ergodicity(game, eps=0.5)
        assert verdict.kind == "ergodic-24eps"
        text = serialize_certificate(game, verdict, stats)
        ok, problems = recheck_certificate(game, parse_certificate(text, game))
        assert ok, problems

    def test_ergodic_band_tamper_detected(self):
        game = disconnected(4.0, 4.5)
        verdict, stats = decide_ergodicity(game, eps=0.5)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc["epsilon"] = 1e-4  # claims a much tighter band than achievable
        ok, problems = recheck_certificate(game, parse_certificate(json.dumps(doc), game))
        assert not ok

    @pytest.mark.parametrize("eps, ok", [(0.42, True), (0.41, False)])
    def test_ergodic_band_width_bound_is_24_eps(self, eps, ok):
        # the band [0, 10] certifies eps = 0.42 (24*eps = 10.08), not 0.41 (9.84)
        game, verdict, stats = self._solve(eps=1.0)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        assert doc["verdict"] == "ergodic-24eps"
        assert (doc["floor"], doc["ceiling"]) == (0.0, 10.0)
        doc["epsilon"] = eps
        assert recheck_certificate(game, parse_certificate(json.dumps(doc), game))[0] == ok

    def test_format_one_rejected(self):
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        assert doc["format"] == "ergopump-certificate/4"
        for older in ("ergopump-certificate/1", "ergopump-certificate/2",
                      "ergopump-certificate/3"):
            doc["format"] = older
            with pytest.raises(DocumentError, match="not a ergopump-certificate/4"):
                parse_certificate(json.dumps(doc), game)

    @pytest.mark.parametrize("separation", [1e-7, 1e-12])
    def test_witness_without_proven_gap_fails_recheck(self, separation):
        # both states of disconnected(0, 0) have value 0: stored bounds
        # ceiling = 0 and floor = separation hold within one slack each, but the proven
        # one-shot bounds do not separate, so nothing is proven
        game, verdict, stats = self._solve()
        doc = json.loads(serialize_certificate(game, verdict, stats))
        doc.update(epsilon=1e-5, potential=[0.0, 0.0], alpha={"high": [1.0]},
                   beta={"low": [1.0]}, ceiling=0.0, floor=separation)
        equal = disconnected(0.0, 0.0)
        doc["value_offset"] = normalize_rewards(equal)[1]
        ok, problems = recheck_certificate(equal, parse_certificate(json.dumps(doc), equal))
        assert not ok
        assert problems and all("does not exceed proven ceiling" in p for p in problems)

    def test_both_verdicts_write_one_layout(self):
        # the same fields for both verdicts, null for an inconclusive one; a
        # witness's high and low sets are the keys of alpha and beta
        fields = {"format", "verdict", "epsilon", "value_offset", "states", "potential",
                  "floor", "ceiling", "alpha", "beta", "reason", "metadata"}
        for eps, kind, high, low in ((0.1, "non-ergodic", ["high"], ["low"]),
                                     (1.0, "ergodic-24eps", ["high", "low"], ["high", "low"])):
            game, verdict, stats = self._solve(eps)
            doc = json.loads(serialize_certificate(game, verdict, stats))
            assert doc["verdict"] == kind and set(doc) == fields
            assert (sorted(doc["alpha"]), sorted(doc["beta"])) == (high, low)
            assert (doc["floor"], doc["ceiling"]) == (verdict.floor, verdict.ceiling)
        verdict, stats = decide_ergodicity(disconnected(0.0, 10.0), 0.1,
                                           config=DriverConfig(pump_cap=3))
        doc = json.loads(serialize_certificate(disconnected(0.0, 10.0), verdict, stats))
        assert doc["verdict"] == "inconclusive" and set(doc) == fields
        assert all(doc[key] is None for key in ("potential", "floor", "ceiling", "alpha",
                                                "beta"))

    def test_inconclusive_certificate_parses_and_fails_recheck(self):
        # the document gives back the record the solver returned: kind, eps,
        # offset and reason, nothing certified, and the recheck refuses it
        game = disconnected(0.0, 10.0)
        verdict, stats = decide_ergodicity(game, 0.1, config=DriverConfig(pump_cap=3))
        parsed = parse_certificate(serialize_certificate(game, verdict, stats), game)
        assert parsed == verdict and parsed.kind == "inconclusive"
        assert parsed.reason == "pump step cap 3 exhausted in the full-state phase"
        ok, problems = recheck_certificate(game, parsed)
        assert not ok and problems == ("an inconclusive verdict certifies nothing",)

    def test_nudged_offset_fails_recheck(self):
        # the offset round-trips bit-exactly, so any difference is a mismatch
        game = disconnected(-3.0, 10.0)
        verdict, stats = decide_ergodicity(game, eps=0.1)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        assert doc["value_offset"] == 3.0
        doc["value_offset"] += 1e-12
        ok, problems = recheck_certificate(game, parse_certificate(json.dumps(doc), game))
        assert not ok
        assert any("offset mismatch" in p for p in problems)

    def test_nudged_ergodic_strategy_fails_recheck(self):
        # [[3, 1], [0, 2]] has value 1.5 with optimal alpha (1/2, 1/2): the
        # nudged alpha concedes 1e-5 against column 1
        game = matrix_as_game([[3.0, 1.0], [0.0, 2.0]])
        verdict, stats = decide_ergodicity(game, eps=0.05)
        doc = json.loads(serialize_certificate(game, verdict, stats))
        assert doc["verdict"] == "ergodic-24eps"
        assert doc["alpha"] == {"s": [0.5, 0.5]}
        doc["alpha"]["s"] = [0.5 + 1e-5, 0.5 - 1e-5]
        ok, problems = recheck_certificate(game, parse_certificate(json.dumps(doc), game))
        assert not ok
        assert any("below floor" in p for p in problems)

    def test_strategies_written_as_solved(self):
        # shortest-repr floats: the parsed strategies are the solver's bits
        game = random_game(6, max_actions=3, seed=4)
        verdict, stats = decide_ergodicity(game, eps=0.05)
        read = parse_certificate(serialize_certificate(game, verdict, stats), game)
        for side, player in (("alpha", "row"), ("beta", "col")):
            solved = reference.per_state(game, getattr(verdict, side), player)
            parsed = reference.per_state(game, getattr(read, side), player)
            assert sorted(parsed) == list(range(game.n))
            for v, vec in solved.items():
                assert parsed[v].tolist() == (vec / vec.sum()).tolist()

    @pytest.mark.parametrize("game", [
        random_game(6, max_actions=3, seed=4),  # ergodic: every state covered
        random_game(3, max_actions=2, granularity=2, reward_bound=8.0, seed=169),  # a witness
    ])
    def test_parsed_strategies_match_the_per_state_layout(self, game):
        # with the game's states listed out of name order, each parsed array
        # is still the document's tables laid out one state at a time, bit
        # for bit, NaN positions included
        doc = json.loads(serialize_game(game))
        doc["states"] = [doc["states"][v] for v in np.random.default_rng(0).permutation(game.n)]
        shuffled = parse_game(json.dumps(doc))
        verdict, stats = decide_ergodicity(shuffled, 0.05)
        text = serialize_certificate(shuffled, verdict, stats)
        parsed = parse_certificate(text, shuffled)
        assert [np.asarray(mix).tobytes() for mix in (parsed.alpha, parsed.beta)] == [
            mix.tobytes() for mix in reference.document_strategies(shuffled, text)]

    def test_recheck_runs_no_solver(self, monkeypatch):
        # neither verdict's recheck settles a local game, solves a matrix
        # game or runs policy iteration
        calls = count_calls(monkeypatch, ("local_values", "local_solve", "_solve",
                                          "solve_value", "best_response_value"))
        for low, high, eps in ((0.0, 10.0, 0.1), (4.0, 4.5, 0.5)):
            game = disconnected(low, high)
            verdict, stats = decide_ergodicity(game, eps)
            text = serialize_certificate(game, verdict, stats)
            calls.clear()
            ok, _ = recheck_certificate(game, parse_certificate(text, game))
            assert ok and not calls, (verdict.kind, dict(calls))

    def test_wrong_game_rejected(self):
        game, verdict, stats = self._solve()
        text = serialize_certificate(game, verdict, stats)
        other = disconnected(1.0, 2.0)  # same states, different rewards
        ok, problems = recheck_certificate(other, parse_certificate(text, other))
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
