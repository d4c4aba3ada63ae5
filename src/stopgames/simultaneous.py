"""Mixed equilibrium for the simultaneous-move stopping game.

The strategy game reduces to a stopping game over six adapted processes:
the payoffs when one player stops first and the other answers optimally
(X, Y), and the tie payoffs (Z).  A behavioral equilibrium of that reduced
game is built by backward induction, solving one 2x2 bimatrix stage game
per node: stop/continue for each player, with the continuation values as
the (continue, continue) entries.  Composing the stage equilibria with the
one-sided optimizer families yields a mixed equilibrium of the original
game; the caller certifies it with the best-response oracle.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite
from typing import NamedTuple

from .errors import SolverDefectError
from .snell import reaction_value
from .strategies import (
    AdjustmentFamily,
    PayoffField,
    RandomizedStoppingTime,
    Strategy,
    payoff_mixed_sim,
    stop_alone_values,
)
from .tree import EventTree

class SimProcessBundle(NamedTuple):
    """Adapted processes of the reduced simultaneous stopping game.

    Each is indexed by node; at a level-t node, x1/x2 are the players'
    payoffs when player 1 stops first at t and player 2 replies with her
    optimal strictly-later rule; y1/y2 the mirror case; z1/z2 the
    simultaneous-stop payoffs.  The optimizer families behind x and y are
    kept as the equilibrium adjustments.
    """

    x1: tuple[float, ...]
    x2: tuple[float, ...]
    y1: tuple[float, ...]
    y2: tuple[float, ...]
    z1: tuple[float, ...]
    z2: tuple[float, ...]
    rho1_star: AdjustmentFamily
    tau1_star: AdjustmentFamily


def sim_processes(field: PayoffField) -> SimProcessBundle:
    """Build the six reduced-game processes and the optimizer families."""
    y1_side = reaction_value(field, 1, "first", "strict", "max")
    x2_side = reaction_value(field, 2, "second", "strict", "max")
    rho1_star = y1_side.family
    tau1_star = x2_side.family
    levels = range(field.tree.horizon + 1)
    return SimProcessBundle(
        x1=stop_alone_values(field, 1, 1, tau1_star),
        x2=x2_side.process,
        y1=y1_side.process,
        y2=stop_alone_values(field, 2, 2, rho1_star),
        z1=tuple(chain.from_iterable(field.row(1, t, t) for t in levels)),
        z2=tuple(chain.from_iterable(field.row(2, t, t) for t in levels)),
        rho1_star=rho1_star,
        tau1_star=tau1_star,
    )


class StageSolution(NamedTuple):
    """One 2x2 stage equilibrium: stop probabilities, values, and how it
    was selected ("pure:<row><col>" or "mixed")."""

    p: float
    q: float
    value1: float
    value2: float
    rule: str


def _bilinear(m: tuple[tuple[float, float], tuple[float, float]], p: float, q: float) -> float:
    return (
        p * (q * m[0][0] + (1.0 - q) * m[0][1])
        + (1.0 - p) * (q * m[1][0] + (1.0 - q) * m[1][1])
    )


_PURE_PRIORITY = ((0, 0), (0, 1), (1, 0), (1, 1))


def _indifference(s0: float, s1: float, c0: float, c1: float) -> float:
    """The opponent's stop probability x, clamped to [0, 1], at which a
    player's stop payoffs (s0 if the opponent stops too, s1 if not) and
    continue payoffs (c0, c1) have the same expectation.

    Called with s0 - c0 and s1 - c1 nonzero and of opposite signs, so the
    exact x lies in (0, 1) and its denominator is nonzero.  In floats the
    four-term denominator can still cancel to 0 on near-tie stages, for
    example (s0, s1, c0, c1) = (-1, 3 + 6u, -1 - u, 3 + 8u) with u = 2**-52;
    the difference of the two opposite-sign differences cannot.  With
    payoffs near the float limit the sums can overflow; x is scale-free, and
    a quarter of each payoff keeps them finite, so this recurses at most once.
    """
    num = c1 - s1
    denom = s0 - s1 - c0 + c1
    if not (isfinite(num) and isfinite(denom)):
        return _indifference(s0 / 4, s1 / 4, c0 / 4, c1 / 4)
    if not denom:
        denom = (s0 - c0) - (s1 - c1)
    return min(max(num / denom, 0.0), 1.0)


def stage_nash_2x2(
    a: tuple[tuple[float, float], tuple[float, float]],
    b: tuple[tuple[float, float], tuple[float, float]],
) -> StageSolution:
    """Nash equilibrium of a 2x2 bimatrix game with a fixed selection rule.

    Rows are player 1's actions (stop, continue), columns player 2's.
    Pure profiles are tried in the priority order (stop,stop), (stop,cont),
    (cont,stop), (cont,cont); if none is an equilibrium the interior mixed
    solution from the indifference equations is returned.  That solution
    always exists: with no pure equilibrium, a[0][c] - a[1][c] are nonzero
    and of opposite signs for c = 0, 1 (were both >= 0, row 0 with the
    column player's best reply to it would pass the pure test, and likewise
    row 1 were both <= 0), and so are b[r][0] - b[r][1] for r = 0, 1.
    """
    for row, col in _PURE_PRIORITY:
        if a[1 - row][col] <= a[row][col] and b[row][1 - col] <= b[row][col]:
            return StageSolution(
                p=1.0 - row,
                q=1.0 - col,
                value1=a[row][col],
                value2=b[row][col],
                rule=f"pure:{row}{col}",
            )

    q = _indifference(a[0][0], a[0][1], a[1][0], a[1][1])
    p = _indifference(b[0][0], b[1][0], b[0][1], b[1][1])
    return StageSolution(
        p=p,
        q=q,
        value1=_bilinear(a, p, q),
        value2=_bilinear(b, p, q),
        rule="mixed",
    )


class StageRecord(NamedTuple):
    """The stage game solved at one node, kept for audit."""

    node: int
    a: tuple[tuple[float, float], tuple[float, float]]
    b: tuple[tuple[float, float], tuple[float, float]]
    solution: StageSolution


class RandomizedDynkinEquilibrium(NamedTuple):
    """Behavioral equilibrium of the reduced stopping game."""

    alpha: RandomizedStoppingTime
    beta: RandomizedStoppingTime
    w1: tuple[float, ...]
    w2: tuple[float, ...]
    stages: tuple[StageRecord, ...]


def randomized_dynkin_equilibrium(
    tree: EventTree, bundle: SimProcessBundle
) -> RandomizedDynkinEquilibrium:
    """Backward induction over per-node 2x2 stage games.

    At the horizon both players stop surely; below it the stage payoffs are
    (tie, stop-first, stop-second, continue) entries read off the bundle,
    with continuation values from the already-solved next level.
    """
    T = tree.horizon
    n = tree.n_nodes
    p = [0.0] * n
    q = [0.0] * n
    w1 = [0.0] * n
    w2 = [0.0] * n
    stages = []
    for idx in tree.leaves:
        p[idx] = 1.0
        q[idx] = 1.0
        w1[idx] = bundle.z1[idx]
        w2[idx] = bundle.z2[idx]
    for t in range(T - 1, -1, -1):
        conts = zip(tree.levels[t], *tree.expect_next_pair(w1, w2, t))
        for idx, c1, c2 in conts:
            a = ((bundle.z1[idx], bundle.x1[idx]), (bundle.y1[idx], c1))
            b = ((bundle.z2[idx], bundle.x2[idx]), (bundle.y2[idx], c2))
            sol = stage_nash_2x2(a, b)
            p[idx] = sol.p
            q[idx] = sol.q
            w1[idx] = sol.value1
            w2[idx] = sol.value2
            stages.append(StageRecord(node=idx, a=a, b=b, solution=sol))
    return RandomizedDynkinEquilibrium(
        alpha=RandomizedStoppingTime(tuple(p)),
        beta=RandomizedStoppingTime(tuple(q)),
        w1=tuple(w1),
        w2=tuple(w2),
        stages=tuple(reversed(stages)),
    )


class SimEquilibrium(NamedTuple):
    """Mixed equilibrium of the simultaneous-move game."""

    rho: Strategy
    tau: Strategy
    values: tuple[float, float]
    bundle: SimProcessBundle
    reduced: RandomizedDynkinEquilibrium


def sim_equilibrium(field: PayoffField) -> SimEquilibrium:
    """Solve the simultaneous-move game in mixed type-A strategies.

    The initial rules come from the per-node stage equilibria, the
    adjustments from the one-sided optimizer families.  The profile's exact
    payoff must reproduce the backward-induction root values.
    """
    bundle = sim_processes(field)
    reduced = randomized_dynkin_equilibrium(field.tree, bundle)
    rho = Strategy(reduced.alpha, bundle.rho1_star)
    tau = Strategy(reduced.beta, bundle.tau1_star)
    values = payoff_mixed_sim(field, rho, tau)
    expected = (reduced.w1[0], reduced.w2[0])
    if max(abs(values[0] - expected[0]), abs(values[1] - expected[1])) > field.tol:
        raise SolverDefectError(
            "profile payoff disagrees with the backward-induction values: "
            f"{values} vs {expected}"
        )
    return SimEquilibrium(rho=rho, tau=tau, values=values, bundle=bundle, reduced=reduced)
