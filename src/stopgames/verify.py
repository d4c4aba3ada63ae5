"""Exact best-response oracle, equilibrium certification, and exhaustive
enumeration on small instances.

A best response is one dynamic program over the full strategy class of one
player, holding the opponent fixed.  After the opponent's observed stop the
optimal adjustment is a one-sided stopping problem (its value is ``adj``).
The initial rule solves an optimal stopping problem in which the opponent,
at each node, stops with probability ``q``:

    stop value      q * tie + (1 - q) * alone
    continue value  q * adj + (1 - q) * E[next value]

``alone`` is the payoff of stopping alone while the opponent adjusts.  The
tie rule and ``q`` select the three cases:

- simultaneous game: ``q`` is the mixed opponent's stop probability, and a
  tie pays U_i(t, t);
- sequential game, player 1 responding: ``q`` is 1 or 0 by the type-B
  opponent's initial rule; player 1's stop stands on a tie, so the tie
  value is her lone-stop value ``alone``;
- sequential game, player 2 responding: ``q`` is 1 or 0 by the type-A
  opponent's initial rule; player 2 yields on a tie and answers through her
  own rule, which may stop at once (type B), so the tie value is ``adj``.

A pure opponent's ``q`` selects one term exactly, with no ``0.0 * x`` term
that could turn a -0.0 value into +0.0.  Against a fixed behavioral opponent
the payoff is multilinear in the player's own per-node stop probabilities,
so a pure best response always exists and the DP over pure strategies is
exact for mixed deviations as well.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import DEFAULT_EPS, EnumerationCapError, GameSpecError, SolverDefectError
from .snell import reaction_value
from .strategies import (
    AdjustmentFamily,
    PayoffField,
    Strategy,
    _payoff_pure_core,
    adjustment_floor,
    check_class,
    payoff_mixed_sim,
    payoff_pure,
    stop_alone_values,
    validate_once,
)
from .tree import EventTree, StoppingTime

def best_response(
    field: PayoffField,
    mode: str,
    player: int,
    opponent,
    not_before: StoppingTime | None = None,
) -> tuple[float, Strategy]:
    """Exact optimum over one player's full strategy class.

    ``opponent`` must match the mode: a mixed type-A strategy in the
    simultaneous game, and in the sequential game a type-B strategy when
    player 1 responds or a type-A strategy when player 2 responds.
    ``not_before`` restricts the responder's initial rule to stop no earlier
    than the given stopping time (the adjustment stays unrestricted); it is
    validated against the field's tree like the opponent.
    Returns the optimal value and one maximizing strategy.
    """
    if player not in (1, 2):
        raise GameSpecError(f"unknown player {player}")
    if mode == "sim":
        check_class(
            opponent, True, True, "simultaneous best response needs a mixed type-A opponent"
        )
    elif mode == "seq":
        if player == 1:
            check_class(opponent, False, False, "player 1's sequential opponent must be type B")
        else:
            check_class(opponent, False, True, "player 2's sequential opponent must be type A")
    else:
        raise GameSpecError(f"unknown mode {mode!r}")
    tree = field.tree
    validate_once(field, *filter(None, (opponent, not_before)))

    T = tree.horizon
    side = "first" if player == 1 else "second"
    window = "inclusive" if mode == "seq" and player == 2 else "strict"
    own = reaction_value(field, player, side, window, "max")
    alone = stop_alone_values(field, player, player, opponent.adjust)
    allowed = (
        [idx >= 0 for idx in tree.first_stops(not_before.marks)]
        if not_before is not None
        else (True,) * tree.n_nodes
    )
    if mode == "sim":
        q = opponent.initial.probs

        def mix(idx: int, if_stop: float, if_not: float) -> float:
            return q[idx] * if_stop + (1.0 - q[idx]) * if_not

    else:
        opp_stops = opponent.initial.marks

        def mix(idx: int, if_stop: float, if_not: float) -> float:
            return if_stop if opp_stops[idx] else if_not

    values = [0.0] * tree.n_nodes
    marks = [False] * tree.n_nodes
    for idx, z in zip(tree.leaves, field.row(player, T, T)):
        values[idx] = z
        marks[idx] = True
    adj = own.process
    for t in range(T - 1, -1, -1):
        conts = zip(tree.levels[t], field.row(player, t, t), tree.expect_next(values, t))
        for idx, z, cont in conts:
            if mode == "sim":
                tie = z
            elif player == 1:
                tie = alone[idx]
            else:
                tie = adj[idx]
            stop_v = mix(idx, tie, alone[idx])
            cont_v = mix(idx, adj[idx], cont)
            if allowed[idx] and stop_v >= cont_v:
                values[idx] = stop_v
                marks[idx] = True
            else:
                values[idx] = cont_v
    return values[0], Strategy(StoppingTime(tuple(marks)), own.family)


class EquilibriumReport(NamedTuple):
    """Certification of a candidate profile by exact best responses.

    ``eps`` is the tolerance as given, in units of the field's ``unit``.
    """

    mode: str
    values: tuple[float, float]
    br_values: tuple[float, float]
    gaps: tuple[float, float]
    eps: float
    passed: bool


def check_equilibrium(
    field: PayoffField,
    mode: str,
    profile: tuple,
    eps: float = DEFAULT_EPS,
    not_before: StoppingTime | None = None,
) -> EquilibriumReport:
    """Run both players' best responses against a candidate profile.

    The profile passes when neither player can improve by more than
    ``eps * field.unit``; the report keeps ``eps`` as given.  A best response
    may fall short of the candidate's own value only by ``field.tol``.
    Mode ``"zs"`` checks a zero-sum sequential profile, restricting initial
    rules by ``not_before``.
    """
    rho, tau = profile
    if mode == "sim":
        values = payoff_mixed_sim(field, rho, tau)
        br_mode = "sim"
    elif mode in ("seq", "zs"):
        values = payoff_pure(field, "seq", rho, tau)
        br_mode = "seq"
    else:
        raise GameSpecError(f"unknown mode {mode!r}")
    br1, _ = best_response(field, br_mode, 1, tau, not_before)
    br2, _ = best_response(field, br_mode, 2, rho, not_before)
    gaps = (br1 - values[0], br2 - values[1])
    for player, gap in enumerate(gaps, start=1):
        if gap < -field.tol:
            raise SolverDefectError(
                f"best response for player {player} fell {-gap:g} below the "
                "candidate value"
            )
    limit = eps * field.unit
    return EquilibriumReport(
        mode=mode,
        values=values,
        br_values=(br1, br2),
        gaps=gaps,
        eps=eps,
        passed=gaps[0] <= limit and gaps[1] <= limit,
    )


def count_stopping_times(tree: EventTree, min_level: int = 0) -> int:
    """Number of distinct stopping times realizing times >= min_level."""
    min_level = min(max(min_level, 0), tree.horizon)
    count = [1] * tree.n_nodes
    for t in range(tree.horizon - 1, min_level - 1, -1):
        for idx in tree.levels[t]:
            count[idx] = 1 + math.prod(count[c] for c in tree.nodes[idx].children)
    return math.prod(count[idx] for idx in tree.levels[min_level])


def enumerate_stopping_times(tree: EventTree, min_level: int = 0) -> list[StoppingTime]:
    """All stopping times with realized times >= min_level, canonical form."""
    min_level = min(max(min_level, 0), tree.horizon)

    # Per node of the current level, the first-stop sets of its subtree:
    # stop at the node itself, then every combination of the children's sets.
    antichains: dict[int, list[tuple[int, ...]]] = {idx: [(idx,)] for idx in tree.leaves}
    for t in range(tree.horizon - 1, min_level - 1, -1):
        below = antichains
        antichains = {}
        for idx in tree.levels[t]:
            out: list[tuple[int, ...]] = [(idx,)]
            for combo in itertools.product(*[below[c] for c in tree.nodes[idx].children]):
                out.append(tuple(itertools.chain.from_iterable(combo)))
            antichains[idx] = out

    result = []
    for combo in itertools.product(*[antichains[m] for m in tree.levels[min_level]]):
        stops = set(itertools.chain.from_iterable(combo))
        stops.update(tree.leaves)
        result.append(
            StoppingTime(tuple(i in stops for i in range(tree.n_nodes)))
        )
    return result


def count_strategies(tree: EventTree, kind: str) -> int:
    """Cardinality of the type-A or type-B pure strategy class."""
    T = tree.horizon
    total = count_stopping_times(tree)
    for t in range(T + 1):
        total *= count_stopping_times(tree, adjustment_floor(T, t, kind == "a"))
    return total


def enumerate_strategies(tree: EventTree, kind: str) -> list[Strategy]:
    """All pure strategies of one class, canonical components throughout."""
    if kind not in ("a", "b"):
        raise GameSpecError(f"unknown strategy kind {kind!r}")
    strict = kind == "a"
    initials = enumerate_stopping_times(tree)
    per_t = [
        enumerate_stopping_times(tree, adjustment_floor(tree.horizon, t, strict))
        for t in range(tree.horizon + 1)
    ]
    return [
        Strategy(initial, AdjustmentFamily(tuple(rules), strict))
        for initial in initials
        for rules in itertools.product(*per_t)
    ]


class EnumerationResult(NamedTuple):
    """Exhaustive payoff table over all pure profiles plus its Nash set."""

    mode: str
    strategies1: tuple
    strategies2: tuple
    payoffs: tuple[tuple[tuple[float, float], ...], ...]
    equilibria: tuple[tuple[int, int], ...]
    deviation_tol: float


def enumerate_oracle(
    field: PayoffField, mode: str, cap: int = 1_000_000
) -> EnumerationResult:
    """Tabulate every pure profile and mark the pure Nash equilibria.

    Refuses to run when the profile count exceeds ``cap``, reporting the
    count.  A profile is marked Nash when neither player's best unilateral
    deviation gains more than ``field.tol``, recorded as ``deviation_tol``.
    """
    if mode not in ("sim", "seq"):
        raise GameSpecError(f"unknown mode {mode!r}")
    tree = field.tree
    kind2 = "a" if mode == "sim" else "b"
    n1 = count_strategies(tree, "a")
    n2 = count_strategies(tree, kind2)
    if n1 * n2 > cap:
        raise EnumerationCapError(n1 * n2, cap)
    strategies1 = enumerate_strategies(tree, "a")
    strategies2 = enumerate_strategies(tree, kind2)

    # Enumerated strategies are canonical by construction; skip per-profile
    # class validation in the table loop.
    payoffs = [
        [_payoff_pure_core(field, mode, s1, s2) for s2 in strategies2]
        for s1 in strategies1
    ]
    best1 = [max(payoffs[i][j][0] for i in range(n1)) for j in range(n2)]
    best2 = [max(payoffs[i][j][1] for j in range(n2)) for i in range(n1)]
    deviation_tol = field.tol
    equilibria = [
        (i, j)
        for i in range(n1)
        for j in range(n2)
        if payoffs[i][j][0] >= best1[j] - deviation_tol
        and payoffs[i][j][1] >= best2[i] - deviation_tol
    ]
    return EnumerationResult(
        mode=mode,
        strategies1=tuple(strategies1),
        strategies2=tuple(strategies2),
        payoffs=tuple(tuple(row) for row in payoffs),
        equilibria=tuple(equilibria),
        deviation_tol=deviation_tol,
    )
