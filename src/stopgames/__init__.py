"""Solver and verifier for two-player stopping games on finite event trees.

Payoffs are revealed at the later of the two stop times, and each player may
adjust her plan after observing the other player's stop.  The package
computes mixed equilibria for the simultaneous-move game, pure equilibria
for the game where player 1 commits first at each stage, and saddle points
for the zero-sum case, certifying every output with exact best-response
oracles.
"""

from .dynkin import (
    ZeroSumSaddle,
    dynkin_hitting_saddle,
    dynkin_value,
    zero_sum_saddle,
)
from .errors import EnumerationCapError, GameSpecError, SolverDefectError
from .gamefile import GameDocument, generate_random_game
from .sequential import SeqEquilibrium, SeqProcessBundle, seq_equilibrium, seq_processes
from .simultaneous import (
    RandomizedDynkinEquilibrium,
    SimEquilibrium,
    SimProcessBundle,
    randomized_dynkin_equilibrium,
    sim_equilibrium,
    sim_processes,
    stage_nash_2x2,
)
from .snell import ReactionValue, SnellResult, reaction_value, snell
from .strategies import (
    AdjustmentFamily,
    PayoffField,
    RandomizedStoppingTime,
    Strategy,
    payoff_mixed_sim,
    payoff_pure,
)
from .tree import (
    EventTree,
    HittingResult,
    Node,
    StoppingTime,
    build_tree,
    constant_stopping_time,
    hitting_time,
)
from .verify import (
    EnumerationResult,
    EquilibriumReport,
    best_response,
    check_equilibrium,
    count_stopping_times,
    count_strategies,
    enumerate_oracle,
    enumerate_stopping_times,
    enumerate_strategies,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentFamily",
    "EnumerationCapError",
    "EnumerationResult",
    "EquilibriumReport",
    "EventTree",
    "GameDocument",
    "GameSpecError",
    "HittingResult",
    "Node",
    "PayoffField",
    "RandomizedDynkinEquilibrium",
    "RandomizedStoppingTime",
    "ReactionValue",
    "SeqEquilibrium",
    "SeqProcessBundle",
    "SimEquilibrium",
    "SimProcessBundle",
    "SnellResult",
    "SolverDefectError",
    "StoppingTime",
    "Strategy",
    "ZeroSumSaddle",
    "best_response",
    "build_tree",
    "check_equilibrium",
    "constant_stopping_time",
    "count_stopping_times",
    "count_strategies",
    "dynkin_hitting_saddle",
    "dynkin_value",
    "enumerate_oracle",
    "enumerate_stopping_times",
    "enumerate_strategies",
    "generate_random_game",
    "hitting_time",
    "payoff_mixed_sim",
    "payoff_pure",
    "randomized_dynkin_equilibrium",
    "reaction_value",
    "seq_equilibrium",
    "seq_processes",
    "sim_equilibrium",
    "sim_processes",
    "snell",
    "stage_nash_2x2",
    "zero_sum_saddle",
]
