"""Solver and verifier for two-player stopping games on finite event trees.

Payoffs are revealed at the later of the two stop times, and each player may
adjust her plan after observing the other player's stop.  The package
computes mixed equilibria for the simultaneous-move game, pure equilibria
for the game where player 1 commits first at each stage, and saddle points
for the zero-sum case, certifying every output with exact best-response
oracles.

``import stopgames`` loads no submodule: each public name is imported from
its module on first use (PEP 562), so a command pays only for the modules it
runs.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

#: The module that defines each public name.
_MODULES = {
    "dynkin": ("ZeroSumSaddle", "dynkin_hitting_saddle", "dynkin_value", "zero_sum_saddle"),
    "errors": ("EnumerationCapError", "GameSpecError", "SolverDefectError"),
    "gamefile": ("GameDocument", "generate_random_game"),
    "sequential": ("SeqEquilibrium", "SeqProcessBundle", "seq_equilibrium", "seq_processes"),
    "simultaneous": (
        "RandomizedDynkinEquilibrium",
        "SimEquilibrium",
        "SimProcessBundle",
        "randomized_dynkin_equilibrium",
        "sim_equilibrium",
        "sim_processes",
        "stage_nash_2x2",
    ),
    "snell": ("ReactionValue", "SnellResult", "reaction_value", "snell"),
    "strategies": (
        "AdjustmentFamily",
        "PayoffField",
        "RandomizedStoppingTime",
        "Strategy",
        "payoff_mixed_sim",
        "payoff_pure",
    ),
    "tree": (
        "EventTree",
        "HittingResult",
        "Node",
        "StoppingTime",
        "build_tree",
        "constant_stopping_time",
        "hitting_time",
    ),
    "verify": (
        "EnumerationResult",
        "EquilibriumReport",
        "best_response",
        "check_equilibrium",
        "count_stopping_times",
        "count_strategies",
        "enumerate_oracle",
        "enumerate_stopping_times",
        "enumerate_strategies",
    ),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package's module type.  Loading the submodule ``snell`` binds it
    on the package under its name; the public function of that name stays
    bound instead."""

    def __setattr__(self, name: str, value) -> None:
        if name in _HOME and isinstance(value, ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
