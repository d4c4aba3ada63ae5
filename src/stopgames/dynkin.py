"""Zero-sum stopping games: Dynkin values, hitting-time saddle points, and
the saddle point of the full strategy game built from them.

The Dynkin value follows the median recursion v_T = F_T and
v_t = median(F_t, G_t, E_t[v_{t+1}]).  With F <= G this is the value of the
game paying F at the maximizer's stop and G at the minimizer's earlier stop;
with G <= F it is the mirrored orientation where the second player maximizes.
One recursion therefore serves both stage-game orientations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import GameSpecError
from .snell import reaction_value
from .strategies import PayoffField, Strategy
from .tree import (
    EventTree,
    HittingResult,
    StoppingTime,
    constant_stopping_time,
    hitting_time,
    left_sum,
)

def _median(a: float, b: float, c: float) -> float:
    return max(min(a, b), min(max(a, b), c))


def dynkin_value(
    tree: EventTree, f: Sequence[float], g: Sequence[float]
) -> tuple[float, ...]:
    """Backward median recursion; terminal value F at the horizon."""
    if not len(f) == len(g) == tree.n_nodes:
        raise GameSpecError("boundary processes must be defined on all levels")
    v = list(f)
    for t in range(tree.horizon - 1, -1, -1):
        for idx, cont in zip(tree.levels[t], tree.expect_next(v, t)):
            v[idx] = _median(f[idx], g[idx], cont)
    return tuple(v)


def dynkin_hitting_saddle(
    tree: EventTree,
    v: Sequence[float],
    f: Sequence[float],
    g: Sequence[float],
    sigma: StoppingTime,
    tol: float,
) -> tuple[StoppingTime, HittingResult]:
    """First times >= sigma at which v comes within ``tol`` of F (maximizer)
    and of G (minimizer).

    The F-hit never clamps because the terminal value is F; the G-hit may
    never fire before the horizon, in which case the path is clamped there
    and recorded.  Clamping is payoff-neutral: the maximizer's hit is never
    later, so the "minimizer stopped first" indicator stays off.
    """
    rho = hitting_time(
        tree,
        lambda idx: abs(v[idx] - f[idx]) <= tol,
        sigma,
    )
    if rho.clamped:
        raise GameSpecError("value process does not meet its terminal boundary")
    tau = hitting_time(
        tree,
        lambda idx: abs(v[idx] - g[idx]) <= tol,
        sigma,
    )
    return rho.stop, tau


@dataclass(frozen=True)
class ZeroSumSaddle:
    """Saddle point of the zero-sum strategy game started at sigma.

    Player 1 (maximizer) plays the type-A strategy ``rho_star``; player 2
    the type-B strategy ``tau_star``.  ``value`` is the common game value
    aggregated at the root over the sigma nodes.  The boundary and value
    processes are kept for diagnostics.
    """

    rho_star: Strategy
    tau_star: Strategy
    value: float
    f: tuple[float, ...]
    g: tuple[float, ...]
    v: tuple[float, ...]
    rho_hit: StoppingTime
    tau_hit: HittingResult
    sigma: StoppingTime


def zero_sum_saddle(field: PayoffField, sigma: StoppingTime | None = None) -> ZeroSumSaddle:
    """Construct a saddle point for the zero-sum game with payoff U^1.

    F is the best (smallest) payoff player 2 can force once player 1 stops;
    G floors player 1's best strictly-later reply when player 2 stops first.
    The Dynkin value of (F, G) with its hitting times gives the initial
    stopping rules; the one-sided optimizer families give the adjustments.
    """
    tree = field.tree
    if sigma is None:
        sigma = constant_stopping_time(tree, 0)
    sigma.validate(tree)
    f_side = reaction_value(field, 1, "second", "inclusive", "min")
    g_side = reaction_value(field, 1, "first", "strict", "max")
    f = f_side.process
    g = tuple(map(max, g_side.process, f))
    v = dynkin_value(tree, f, g)
    rho, tau = dynkin_hitting_saddle(tree, v, f, g, sigma, field.tol)
    sigma_stops = tree.first_stops(sigma.marks)[tree.level_start[tree.horizon] :]
    value = left_sum(prob * v[idx] for idx, prob in zip(sigma_stops, tree.leaf_probs))
    return ZeroSumSaddle(
        rho_star=Strategy(rho, g_side.family),
        tau_star=Strategy(tau.stop, f_side.family),
        value=value,
        f=f,
        g=g,
        v=v,
        rho_hit=rho,
        tau_hit=tau,
        sigma=sigma,
    )
