"""Workloads of the command-cycle benchmark and the cycle each game runs.

Every workload is a list of generated games, all derived from the run seed
and all with ``gen``'s default payoff range of +-1.  One pass runs the full
command cycle on each game in turn:

    gen, gen --zero-sum,
    solve-sim, solve-seq, solve-zs      (each with --profile-out),
    verify sim, verify seq, verify zs   (each on the profile just written)

Why these workloads:

- ``deep`` (horizon 12, branching 2: 8191 nodes, levels of up to 4096
  nodes) is dominated by per-node dynamic-programming work, where a
  level-array kernel or a shared reaction-table memo would show.
- ``chain`` (horizon 200, branching 1: one node per level) is dominated by
  per-level overhead and the dense game file; a per-level vector kernel has
  nothing to vectorize here, while a compact game format gains most.
- ``sweep`` (300 small games, the shape of the acceptance and soak tests)
  is dominated by fixed per-call cost such as building the argument parser,
  so per-call overhead added by any change shows here.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = (
    "gen",
    "gen-zs",
    "solve-sim",
    "solve-seq",
    "solve-zs",
    "verify-sim",
    "verify-seq",
    "verify-zs",
)
SOLVE_KINDS = ("solve-sim", "solve-seq", "solve-zs")
VERIFY_KINDS = ("verify-sim", "verify-seq", "verify-zs")
SWEEP_GAMES = 300


@dataclass(frozen=True)
class Game:
    index: int
    horizon: int
    branching: int
    seed: int

    @property
    def nodes(self) -> int:
        return sum(self.branching**u for u in range(self.horizon + 1))

    @property
    def entries_per_player(self) -> int:
        """Payoff entries per player: one per (s, t, node at level max(s, t))."""
        return sum((2 * u + 1) * self.branching**u for u in range(self.horizon + 1))


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    #: File the command writes, hashed with its report; None for verify.
    output: str | None
    #: Payoff entries the command reads from its game file (0 for gen).
    entries_read: int


def games(workload: str, seed: int) -> list[Game]:
    if workload == "deep":
        return [Game(0, 12, 2, seed)]
    if workload == "chain":
        return [Game(0, 200, 1, seed)]
    if workload == "sweep":
        return [
            Game(i, i % 5, 1 + i % 3, seed * 1000 + i) for i in range(SWEEP_GAMES)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def cycle(game: Game) -> list[Command]:
    """The eight commands run on one game, with relative file names."""
    plain = f"g{game.index}.json"
    zero_sum = f"z{game.index}.json"
    gen = (
        "gen",
        "--horizon", str(game.horizon),
        "--branching", str(game.branching),
        "--seed", str(game.seed),
    )
    reads = (
        ("sim", plain, 2 * game.entries_per_player),
        ("seq", plain, 2 * game.entries_per_player),
        ("zs", zero_sum, game.entries_per_player),
    )
    commands = [
        Command("gen", gen + ("-o", plain), plain, 0),
        Command("gen-zs", gen + ("--zero-sum", "-o", zero_sum), zero_sum, 0),
    ]
    for mode, path, entries in reads:
        profile = f"p{game.index}-{mode}.json"
        argv = (f"solve-{mode}", path, "--profile-out", profile)
        commands.append(Command(f"solve-{mode}", argv, profile, entries))
    for mode, path, entries in reads:
        argv = ("verify", path, "--profile", f"p{game.index}-{mode}.json", "--mode", mode)
        commands.append(Command(f"verify-{mode}", argv, None, entries))
    return commands
