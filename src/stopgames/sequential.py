"""Pure equilibrium for the sequential-move stopping game.

Player 1 commits first at each stage; player 2 observes the commitment and
may reply at the same time.  Because a stop by player 1 always routes the
outcome through player 2's reply rule, the strategy classes coincide with
the behavior strategies of a perfect-information stage game: player 1
chooses stop/continue at each node, player 2 chooses stop/continue knowing
player 1 continued, and a lone stopper hands the other player a one-sided
optimal stopping problem.  Backward induction over that game yields a pure,
subgame-perfect equilibrium whose best-response gaps vanish.

The boundary processes of the two auxiliary zero-sum games (each player's
worst stop-now payoff, the opponent's capped strictly-later reply, and the
Dynkin value between them), the on-path settle payoffs, and the associated
threshold and reply hitting times are computed alongside: they carry the
structural certificates (orderings, stopped sub-martingales, no clamping)
that every solved instance must satisfy.
"""

from __future__ import annotations

from typing import NamedTuple

from .dynkin import dynkin_value
from .errors import SolverDefectError
from .snell import reaction_value
from .strategies import (
    AdjustmentFamily,
    PayoffField,
    Strategy,
    payoff_pure,
    stop_alone_values,
)
from .tree import StoppingTime, constant_stopping_time, hitting_time

class SeqProcessBundle(NamedTuple):
    """Boundary, value, and settle processes for both players.

    f: the player's payoff when she stops now and the opponent replies
    adversarially (for player 1 a minimum over replies; for player 2, whose
    reply cannot be pre-empted, her own maximum).  g: the opponent's best
    strictly-later stop from the player's viewpoint, capped by f.  v: the
    Dynkin value of the (f, g) zero-sum side game.  h: the on-path settle
    payoff, i.e. stopping now while the opponent follows her own optimal
    reply.  g1_uncapped keeps the strictly-later optimum before the f cap,
    which is what a lone-stopping opponent actually concedes.

    The optimizer families realize the replies: reply_min1 punishes player 1
    at her own stop, reply_max2 is player 2's own reply (both type B);
    later_max1 is player 1's best strictly-later stop, later_min2 the one
    punishing player 2 (both type A).
    """

    f1: tuple[float, ...]
    g1: tuple[float, ...]
    f2: tuple[float, ...]
    g2: tuple[float, ...]
    h1: tuple[float, ...]
    h2: tuple[float, ...]
    v1: tuple[float, ...]
    v2: tuple[float, ...]
    g1_uncapped: tuple[float, ...]
    reply_min1: AdjustmentFamily
    later_max1: AdjustmentFamily
    reply_max2: AdjustmentFamily
    later_min2: AdjustmentFamily


def seq_processes(field: PayoffField) -> SeqProcessBundle:
    """Build both players' boundary/value/settle processes."""
    tree = field.tree
    f1_side = reaction_value(field, 1, "second", "inclusive", "min")
    g1_side = reaction_value(field, 1, "first", "strict", "max")
    f2_side = reaction_value(field, 2, "second", "inclusive", "max")
    g2_side = reaction_value(field, 2, "first", "strict", "min")

    f1 = f1_side.process
    f2 = f2_side.process
    g1 = tuple(map(max, g1_side.process, f1))
    g2 = tuple(map(min, g2_side.process, f2))
    return SeqProcessBundle(
        f1=f1,
        g1=g1,
        f2=f2,
        g2=g2,
        h1=stop_alone_values(field, 1, 1, f2_side.family),
        h2=stop_alone_values(field, 2, 2, g1_side.family),
        v1=dynkin_value(tree, f1, g1),
        v2=dynkin_value(tree, f2, g2),
        g1_uncapped=g1_side.process,
        reply_min1=f1_side.family,
        later_max1=g1_side.family,
        reply_max2=f2_side.family,
        later_min2=g2_side.family,
    )


class SeqDiagnostics(NamedTuple):
    """Internal consistency record for one solved instance.

    The settle and reply hitting times must fire before the horizon forces
    them, and player 1's settle time may never come after the first time her
    side value meets its stop floor.  Violations are reported here, never
    swallowed.
    """

    settle1_clamped: frozenset[int]
    settle2_clamped: frozenset[int]
    reply1_clamped: frozenset[int]
    reply2_clamped: frozenset[int]
    settle1_before_floor_hit: bool

    @property
    def defects(self) -> tuple[str, ...]:
        out = []
        if self.settle1_clamped:
            out.append("player 1 settle time clamped")
        if self.settle2_clamped:
            out.append("player 2 settle time clamped")
        if self.reply1_clamped:
            out.append("player 1 reply time clamped")
        if self.reply2_clamped:
            out.append("player 2 reply time clamped")
        if not self.settle1_before_floor_hit:
            out.append("settle time after the stop-floor hit")
        return tuple(out)

    @property
    def clean(self) -> bool:
        return not self.defects


class SeqEquilibrium(NamedTuple):
    """Pure equilibrium of the sequential-move game.

    ``p1_settle`` / ``p2_settle`` are the threshold times at which each
    player's side value first drops to her settle payoff; ``p1_reply_time``
    is the side-game stop of player 1 once player 2 has settled first,
    ``p2_reply_time`` the mirror object.  They certify the instance; the
    equilibrium itself is ``(rho_star, tau_star)`` with the stage values in
    ``w1``/``w2``.
    """

    p1_settle: StoppingTime
    p2_settle: StoppingTime
    p1_reply_time: StoppingTime
    p2_reply_time: StoppingTime
    rho_star: Strategy
    tau_star: Strategy
    values: tuple[float, float]
    w1: tuple[float, ...]
    w2: tuple[float, ...]
    diagnostics: SeqDiagnostics
    bundle: SeqProcessBundle


def seq_equilibrium(field: PayoffField) -> SeqEquilibrium:
    """Solve the sequential-move game in pure strategies.

    Stage recursion per node, while neither player has stopped: if player 1
    stops, player 2 replies through her own optimal rule (payoffs h1, f2);
    if player 1 continues and player 2 stops alone, player 1 takes her best
    strictly-later stop (payoffs g1 before the cap, h2); otherwise the game
    moves to the children.  Player 2's stage choice maximizes her payoff
    knowing player 1 continued; player 1's anticipates that choice.  Ties
    resolve to stopping, giving earliest stops.  The resulting profile is
    subgame perfect, so both best-response gaps vanish up to rounding.
    """
    tree = field.tree
    T = tree.horizon
    bundle = seq_processes(field)
    zero = constant_stopping_time(tree, 0)

    v1, v2 = bundle.v1, bundle.v2
    h1, h2 = bundle.h1, bundle.h2
    f1, f2 = bundle.f1, bundle.f2
    g1, g1_raw = bundle.g1, bundle.g1_uncapped
    # Threshold tests tolerate the field's rounding slack, so exact terminal
    # identities (value = boundary at the horizon) always fire in floats.
    tol = field.tol

    settle1 = hitting_time(tree, lambda i: v1[i] <= h1[i] + tol, zero)
    settle2 = hitting_time(tree, lambda i: v2[i] <= min(h2[i], f2[i]) + tol, zero)
    reply2 = hitting_time(tree, lambda i: abs(v1[i] - g1[i]) <= tol, settle1.stop)
    reply1 = hitting_time(tree, lambda i: abs(v2[i] - f2[i]) <= tol, settle2.stop)
    floor1 = hitting_time(tree, lambda i: abs(v1[i] - f1[i]) <= tol, zero)

    m1 = settle1.stop.realized(tree)
    fl = floor1.stop.realized(tree)
    diagnostics = SeqDiagnostics(
        settle1_clamped=settle1.clamped,
        settle2_clamped=settle2.clamped,
        reply1_clamped=reply1.clamped,
        reply2_clamped=reply2.clamped,
        settle1_before_floor_hit=all(
            m1[pos] <= fl[pos] for pos in range(len(tree.leaves))
        ),
    )

    w1 = [0.0] * tree.n_nodes
    w2 = [0.0] * tree.n_nodes
    rho_marks = [False] * tree.n_nodes
    tau_marks = [False] * tree.n_nodes
    for idx, z1, z2 in zip(tree.leaves, field.row(1, T, T), field.row(2, T, T)):
        w1[idx] = z1
        w2[idx] = z2
        rho_marks[idx] = True
        tau_marks[idx] = True
    for t in range(T - 1, -1, -1):
        conts = zip(tree.levels[t], *tree.expect_next_pair(w1, w2, t))
        for idx, cont1, cont2 in conts:
            # Player 2's choice once player 1 has continued.
            if h2[idx] >= cont2:
                tau_marks[idx] = True
                after1, after2 = g1_raw[idx], h2[idx]
            else:
                after1, after2 = cont1, cont2
            # Player 1 commits first, anticipating that choice.
            if h1[idx] >= after1:
                rho_marks[idx] = True
                w1[idx] = h1[idx]
                w2[idx] = f2[idx]
            else:
                w1[idx] = after1
                w2[idx] = after2

    rho_star = Strategy(StoppingTime(tuple(rho_marks)), bundle.later_max1)
    tau_star = Strategy(StoppingTime(tuple(tau_marks)), bundle.reply_max2)
    values = payoff_pure(field, "seq", rho_star, tau_star)
    if max(abs(values[0] - w1[0]), abs(values[1] - w2[0])) > tol:
        raise SolverDefectError(
            "profile payoff disagrees with the stage values: "
            f"{values} vs {(w1[0], w2[0])}"
        )

    return SeqEquilibrium(
        p1_settle=settle1.stop,
        p2_settle=settle2.stop,
        p1_reply_time=reply1.stop,
        p2_reply_time=reply2.stop,
        rho_star=rho_star,
        tau_star=tau_star,
        values=values,
        w1=tuple(w1),
        w2=tuple(w2),
        diagnostics=diagnostics,
        bundle=bundle,
    )
