"""Optimal stopping on event trees via backward induction.

Computes the value envelope of a one-player stopping problem together with
its earliest optimal stopping rule.  The search window either includes the
query time ("inclusive") or starts strictly after it ("strict"); at the
horizon the strict window degenerates to the horizon itself, so a forced
stop is always available.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from functools import partial
from itertools import chain, repeat
from math import isnan
from operator import getitem, gt, le, lt, sub
from typing import Literal, NamedTuple, Sequence

from .errors import GameSpecError
from .strategies import AdjustmentFamily, PayoffField, adjustment_floor
from .tree import EventTree, StoppingTime

Window = Literal["inclusive", "strict"]
Direction = Literal["max", "min"]

class SnellResult(NamedTuple):
    """Value, earliest optimizer, and envelope of one stopping problem.

    ``value`` holds the level-t values in level order; ``envelope`` is
    indexed by node and is 0.0 below the window start.
    """

    value: tuple[float, ...]
    optimizer: StoppingTime
    envelope: tuple[float, ...]


def _check_problem(window: str, direction: str) -> None:
    if window not in ("inclusive", "strict"):
        raise GameSpecError(f"unknown window {window!r}")
    if direction not in ("max", "min"):
        raise GameSpecError(f"unknown direction {direction!r}")


def _sweep(
    tree: EventTree,
    rewards: Callable[[int, int], Sequence[Sequence[float]]],
    roots: Sequence[int],
    strict: bool,
    use_max: bool,
    tol: float,
) -> tuple[list[list[float]], list[StoppingTime]]:
    """Solve the stopping problems rooted at the levels `roots` (increasing)
    in one backward sweep; ``rewards(u, count)`` gives the level-u reward
    rows of the first `count` problems.

    At level u the sweep holds, as one flat list, the envelope of every
    problem whose window has reached u, problem k's level-u nodes at
    k * size + i: the window of a problem rooted at t starts at t, or at
    t+1 for a strict one, and every window holds the horizon.  Each problem
    keeps the operations of a one-problem induction, in the same order:
    S_T = W_T, then S_u = opt(W_u, E_u[S_{u+1}]) with the reward first, and
    the optimizer stops where abs(W_u - S_u) <= tol.

    Returns, per problem, its value at its root level (the envelope there,
    or for a strict window below the horizon the one-step expectation of
    the envelope) and its earliest optimizer.  The rewards are not checked:
    a payoff field holds only finite values.
    """
    T = tree.horizon
    n = len(roots)
    # (w, cont)[cont > w] is max(w, cont), and with < min(w, cont): the
    # comparison max and min make, the reward kept unless beaten.
    beats = gt if use_max else lt
    size = len(tree.leaves)
    env = list(chain.from_iterable(rewards(T, n)))
    values: list[list[float]] = [[]] * n
    if roots[-1] == T:
        values[-1] = env[-size:]
    # Per level from the horizon down, each problem's marks there: False
    # where its window has not reached the level.
    chunks = [repeat((True,) * size, n)]
    for u in range(T - 1, roots[0] - 1, -1):
        size = len(tree.levels[u])
        rooted = bisect_right(roots, u)
        # A window starts at its root, or one level later if strict.
        active = bisect_right(roots, u - strict)
        w = list(chain.from_iterable(rewards(u, active)))
        cont = tree.expect_batch(env, u, rooted)
        env = list(map(getitem, zip(w, cont), map(beats, cont, w)))
        marks = chain(
            map(le, map(abs, map(sub, w, env)), repeat(tol)),
            repeat(False, (n - active) * size),
        )
        chunks.append(zip(*[marks] * size))
        k = rooted - 1
        if roots[k] == u:
            values[k] = (cont if strict else env)[k * size : (k + 1) * size]
    # One transposition gives each problem's marks over every node.
    below = repeat((False,) * tree.level_start[roots[0]], n)
    marks_of = map(tuple, map(chain.from_iterable, zip(below, *reversed(chunks))))
    return values, list(map(StoppingTime, marks_of))


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
    A NaN reward is refused, naming the first met from the horizon down to
    the window start, each level in node order.  The envelope at level u is
    the value of the inclusive problem rooted at u, so the sweep behind
    :func:`reaction_value`, run over those problems, gives it.
    """
    _check_problem(window, direction)
    T = tree.horizon
    if not 0 <= t <= T:
        raise GameSpecError(f"level {t} outside 0..{T}")
    start = adjustment_floor(T, t, window == "strict")
    read = {u: rows[u] for u in range(T, start - 1, -1)}
    for u, row in read.items():
        for idx, x in zip(tree.levels[u], row):
            if isnan(x):
                raise GameSpecError(f"reward missing at node {tree.nodes[idx].id}")
    values, optimizers = _sweep(
        tree, lambda u, k: repeat(read[u], k), range(start, T + 1), False, direction == "max", tol
    )
    envelope = tuple(chain(repeat(0.0, tree.level_start[start]), *values))
    value = values[0] if t == start else tree.expect_next(envelope, t)
    return SnellResult(tuple(value), optimizers[0], envelope)


class ReactionValue(NamedTuple):
    """One-sided stopping values against every possible opponent stop time.

    ``process`` collects, per node, the value of the stopping problem rooted
    at that node's own level; ``family`` packages the earliest optimizers as
    an adjustment family, strict (type A) exactly when the window is.
    """

    process: tuple[float, ...]
    family: AdjustmentFamily


def reaction_value(
    field: PayoffField,
    player: int,
    side: Literal["first", "second"],
    window: Window,
    direction: Direction,
) -> ReactionValue:
    """Solve, for every t, the stopping problem in one payoff argument.

    ``side="first"`` optimizes the first argument of the player's payoff
    (rewards U(u, t) over stop times u); ``side="second"`` optimizes the
    second argument (rewards U(t, u)).  All T+1 problems are solved by one
    backward sweep.  The table is memoized on the field.
    """
    if player not in (1, 2):
        raise GameSpecError(f"unknown player {player}")
    if side not in ("first", "second"):
        raise GameSpecError(f"unknown side {side!r}")
    key = (player, side, window, direction)
    cached = field._tables.get(key)
    if cached is not None:
        return cached
    _check_problem(window, direction)
    strict = window == "strict"
    values, optimizers = _sweep(
        field.tree,
        partial(field.rows_at, player, side),
        tuple(range(field.tree.horizon + 1)),
        strict,
        direction == "max",
        field.tol,
    )
    table = field._tables[key] = ReactionValue(
        process=tuple(chain.from_iterable(values)),
        family=AdjustmentFamily(tuple(optimizers), strict=strict),
    )
    return table
