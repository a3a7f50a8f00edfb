"""Workload definitions: the game documents each benchmark workload solves.

Every workload is a fixed list of named instances, each a game document
(the text `ergopump solve` would read) plus the tolerance it is solved at.

- corpus: the acceptance corpus, built exactly as the acceptance suite's
  corpus fixture builds it. Many small solves, so per-call fixed costs
  (simplex set-up, Python bookkeeping per pump step) dominate the median.
- pump-long: the three slowest witness exits of the corpus formula plus an
  eps sweep on seed 184. Few states, tens of thousands of pump steps, and
  every verdict non-ergodic, so witness build and the Markov global check
  run here at volume. It runs by hand only; BENCHMARK.json leaves it out
  because a run budget of three workloads leaves too few passes per run to
  hold the spread of any of them within bound on a shared machine, and the
  corpus holds its three witness exits.
- ladder: large random games (n = 128, 256) with few pump steps, so the
  cost lies in exact-rational parsing and validation, O(n^2) per-step work
  and the potential-reduction LP. n = 512 takes about 20 s to solve and 6 s
  to parse, too long to repeat within a run at this cost.

The seed never changes the games. Seed 0 gives the documents exactly as
serialize_game writes them; any other seed writes the same games with their
transition records in a seed-drawn order. Only the parser sees different
input, so every seed does the same solver work and run-to-run differences
measure the code, not the inputs. Seeds that relabel the states were
rejected: on random_game(512, max_actions=3, seed=0) one state order makes
the solve take minutes instead of seconds, because the potential-reduction
LP then picks another optimum and the next pump phase needs thousands of
steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

EPS = 0.05
CORPUS_RANDOM = 200
PUMP_LONG_SEEDS = (32, 51, 169)
EPS_SWEEP_SEED = 184
EPS_SWEEP = (0.05, 0.02, 0.01, 0.005, 0.0025)
LADDER_SIZES = (128, 256)

WORKLOADS = ("corpus", "pump-long", "ladder")



@dataclass(frozen=True)
class Instance:
    name: str
    text: str  # game document
    eps: float
    game: object  # the GameSpec that parse_game(text) returns


def _corpus_game(seed: int):
    from ergopump.generators import random_game

    return random_game(
        n=2 + seed % 4,
        max_actions=1 + seed % 3,
        granularity=1 + seed % 8,
        reward_bound=8.0,
        seed=seed,
    )


def _games(workload: str):
    """(name, GameSpec, eps) triples of one workload at seed 0."""
    from ergopump.generators import big_match, cycle, disconnected, random_game

    if workload == "corpus":
        games = [(f"random-{s}", _corpus_game(s), EPS) for s in range(CORPUS_RANDOM)]
        games.append(("big-match", big_match(), EPS))
        games.append(("disconnected", disconnected(0.0, 10.0), EPS))
        games += [(f"cycle-{s}", cycle(n=3 + s, seed=s), EPS) for s in (0, 1, 2)]
        return games
    if workload == "pump-long":
        games = [(f"random-{s}", _corpus_game(s), EPS) for s in PUMP_LONG_SEEDS]
        sweep = _corpus_game(EPS_SWEEP_SEED)
        games += [(f"random-{EPS_SWEEP_SEED}@eps={eps}", sweep, eps) for eps in EPS_SWEEP]
        return games
    if workload == "ladder":
        return [(f"random-n{n}", random_game(n, max_actions=3, seed=0), EPS)
                for n in LADDER_SIZES]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def shuffle_records(text: str, rng: np.random.Generator) -> str:
    """The same game document with its transition records reordered."""
    doc = json.loads(text)
    records = doc["transitions"]
    doc["transitions"] = [records[i] for i in rng.permutation(len(records))]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's instances as game documents; see the module docstring."""
    from ergopump.documents import serialize_game

    instances = []
    for index, (name, game, eps) in enumerate(_games(workload)):
        text = serialize_game(game)
        if seed:
            text = shuffle_records(text, np.random.default_rng([seed, index]))
        instances.append(Instance(name=name, text=text, eps=eps, game=game))
    return instances
