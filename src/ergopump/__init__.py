"""Ergodicity certification for zero-sum stochastic mean-payoff games.

Decides, for a finite two-player zero-sum undiscounted stochastic game and a
tolerance, whether all game values lie in a narrow band (emitting a
certifying potential vector) or whether two groups of starting positions
have provably separated values (emitting closed position sets plus
stationary strategies with a certified gap).
"""

from .documents import (
    DocumentError,
    parse_certificate,
    parse_game,
    recheck_certificate,
    serialize_certificate,
    serialize_game,
)
from .driver import (
    DriverConfig,
    DriverStats,
    decide_ergodicity,
    reduce_potential,
)
from .game import (
    GameParams,
    GameSpec,
    apply_potential,
    game_params,
    local_reward_matrix,
    make_game,
    normalize_rewards,
    validate,
)
from .matrix_game import MatrixGameError, MatrixGameSolution, local_value, solve_matrix_game
from .pump import BandPartition, PumpOutcome, modified_pump, partition
from .witness import Verdict, build_witness, verify_witness

__version__ = "0.1.0"
