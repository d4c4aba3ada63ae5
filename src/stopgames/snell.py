"""Optimal stopping on event trees via backward induction.

Computes the value envelope of a one-player stopping problem together with
its earliest optimal stopping rule.  The search window either includes the
query time ("inclusive") or starts strictly after it ("strict"); at the
horizon the strict window degenerates to the horizon itself, so a forced
stop is always available.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan
from typing import Literal, Sequence

from .errors import GameSpecError
from .strategies import AdjustmentFamily, PayoffField, adjustment_floor
from .tree import EventTree, StoppingTime

Window = Literal["inclusive", "strict"]
Direction = Literal["max", "min"]

@dataclass(frozen=True)
class SnellResult:
    """Value, earliest optimizer, and envelope of one stopping problem.

    ``value`` holds the level-t values in level order; ``envelope`` is
    indexed by node and is 0.0 below the window start.
    """

    value: tuple[float, ...]
    optimizer: StoppingTime
    envelope: tuple[float, ...]


def snell(
    tree: EventTree,
    rows: Sequence[Sequence[float]],
    t: int,
    window: Window,
    direction: Direction,
    tol: float,
) -> SnellResult:
    """Solve one optimal stopping problem rooted at level t.

    ``rows[u]`` holds the payoff of stopping at each level-u node, in level
    order; only levels from the window start to the horizon are read.  The
    envelope satisfies S_T = W_T and S_u = opt(W_u, E_u[S_{u+1}]) down to the
    window start; the value at a level-t node is S_t (inclusive window) or
    the one-step expectation of the envelope (strict window).  The optimizer
    stops at the first window node where the reward meets the envelope.
    """
    if window not in ("inclusive", "strict"):
        raise GameSpecError(f"unknown window {window!r}")
    if direction not in ("max", "min"):
        raise GameSpecError(f"unknown direction {direction!r}")
    T = tree.horizon
    if not 0 <= t <= T:
        raise GameSpecError(f"level {t} outside 0..{T}")
    start = adjustment_floor(T, t, window == "strict")
    use_max = direction == "max"

    env = [0.0] * tree.n_nodes
    for idx, w in zip(tree.leaves, rows[T]):
        env[idx] = w
    marks = [False] * tree.n_nodes
    for u in range(T - 1, start - 1, -1):
        for idx, w, cont in zip(tree.levels[u], rows[u], tree.expect_next(env, u)):
            s = max(w, cont) if use_max else min(w, cont)
            env[idx] = s
            if abs(w - s) <= tol:
                marks[idx] = True
    for leaf in tree.leaves:
        marks[leaf] = True
    # A NaN reward leaves NaN in the envelope at its own node only: max and
    # min return a NaN first argument and drop a NaN second one.  Levels are
    # visited from the horizon down, so this names the first NaN visited.
    if any(map(isnan, env)):
        idx = next(i for lv in reversed(tree.levels[start:]) for i in lv if isnan(env[i]))
        raise GameSpecError(f"reward missing at node {tree.nodes[idx].id}")

    if window == "inclusive" or t == T:
        value = env[tree.level_start[t] : tree.level_start[t + 1]]
    else:
        value = tree.expect_next(env, t)
    return SnellResult(tuple(value), StoppingTime(tuple(marks)), tuple(env))


@dataclass(frozen=True)
class ReactionValue:
    """One-sided stopping values against every possible opponent stop time.

    ``process`` collects, per node, the value of the stopping problem rooted
    at that node's own level; ``family`` packages the earliest optimizers as
    an adjustment family, strict (type A) exactly when the window is.
    """

    process: tuple[float, ...]
    family: AdjustmentFamily


def reaction_value(
    tree: EventTree,
    field: PayoffField,
    player: int,
    side: Literal["first", "second"],
    window: Window,
    direction: Direction,
) -> ReactionValue:
    """Solve, for every t, the stopping problem in one payoff argument.

    ``side="first"`` optimizes the first argument of the player's payoff
    (rewards U(u, t) over stop times u); ``side="second"`` optimizes the
    second argument (rewards U(t, u)).  The table is memoized on the field.
    """
    if player not in (1, 2):
        raise GameSpecError(f"unknown player {player}")
    if side not in ("first", "second"):
        raise GameSpecError(f"unknown side {side!r}")
    key = (tree, player, side, window, direction)
    cached = field._tables.get(key)
    if cached is not None:
        return cached
    T = tree.horizon
    process: list[float] = []
    rules = []
    for t in range(T + 1):
        # Levels below t are never read.
        if side == "first":
            rows = [None] * t + [field.row(player, u, t) for u in range(t, T + 1)]
        else:
            rows = [None] * t + [field.row(player, t, u) for u in range(t, T + 1)]
        res = snell(tree, rows, t, window, direction, field.tol)
        process += res.value
        rules.append(res.optimizer)
    table = field._tables[key] = ReactionValue(
        process=tuple(process),
        family=AdjustmentFamily(tuple(rules), strict=window == "strict"),
    )
    return table
