"""Stopping strategies and exact payoff evaluation.

Payoffs are revealed at the later of the two players' stop times, and each
player may replace her plan after observing the other player's stop.  A
strategy is therefore one type, :class:`Strategy`: an initial stopping rule
plus an adjustment family giving the follow-up rule for every possible
opponent stop time.  The simultaneous and sequential games differ in one
fact, carried by ``AdjustmentFamily.strict``: strict (type A) adjustments
restart after the observed stop, type B adjustments may stop at the observed
time itself (see :func:`adjustment_floor`).  A mixed strategy randomizes the
initial rule only, with an independent stop probability per node.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from itertools import chain, product, repeat
from math import frexp, isfinite, ldexp
from operator import ge, getitem, gt, le, lt, neg, sub
from typing import NamedTuple

from .errors import GameSpecError
from .tree import EventTree, StoppingTime

Mode = str  # "sim" | "seq"


class RandomizedStoppingTime(NamedTuple):
    """Behavioral stop rule: an independent stop probability per node.

    On a finite tree every distribution over pure stopping times is realized
    by some behavioral rule and vice versa, so working with per-node
    probabilities loses no generality and keeps payoff evaluation exact.
    """

    probs: tuple[float, ...]

    def validate(self, tree: EventTree) -> None:
        if len(self.probs) != tree.n_nodes:
            raise GameSpecError("stop probabilities do not cover the tree")
        # NaN fails both comparisons.
        if not (all(map(le, repeat(0.0), self.probs)) and all(map(ge, repeat(1.0), self.probs))):
            idx, p = next((i, p) for i, p in enumerate(self.probs) if not 0.0 <= p <= 1.0)
            raise GameSpecError(
                f"stop probability {p:g} at node {tree.nodes[idx].id} outside [0, 1]"
            )
        leaf_probs = self.probs[tree.level_start[tree.horizon] :]
        if leaf_probs.count(1.0) != len(leaf_probs):
            leaf = next(leaf for leaf in tree.leaves if self.probs[leaf] != 1.0)
            raise GameSpecError(f"node {tree.nodes[leaf].id} at the horizon must stop surely")


def adjustment_floor(horizon: int, t: int, strict: bool) -> int:
    """Earliest time an adjustment rule for the observed stop time t may stop.

    A strict (type-A) rule restarts at t+1, except at the horizon where the
    stop is forced; a type-B rule may stop at t itself.
    """
    return min(t + 1, horizon) if strict else t


class AdjustmentFamily(NamedTuple):
    """Follow-up rules indexed by the observed stop time t.

    ``rules[t]`` must realize a time >= adjustment_floor(horizon, t, strict)
    on every path.  Rules are total: one per t, even where a given play never
    uses them.
    """

    rules: tuple[StoppingTime, ...]
    strict: bool

    def validate(self, tree: EventTree) -> None:
        if len(self.rules) != tree.horizon + 1:
            raise GameSpecError(
                f"adjustment family needs {tree.horizon + 1} rules, got {len(self.rules)}"
            )
        for t, rule in enumerate(self.rules):
            rule.validate(tree)
            floor = adjustment_floor(tree.horizon, t, self.strict)
            # Some path stops before the floor exactly when a node below the
            # floor is marked: that node is, or follows, a path's first stop.
            if any(rule.marks[: tree.level_start[floor]]):
                raise GameSpecError(
                    f"adjustment rule for time {t} stops before time {floor}"
                )


class Strategy(NamedTuple):
    """An initial stopping rule, pure or randomized, plus an adjustment family."""

    initial: StoppingTime | RandomizedStoppingTime
    adjust: AdjustmentFamily

    @property
    def mixed(self) -> bool:
        return isinstance(self.initial, RandomizedStoppingTime)

    def validate(self, tree: EventTree) -> None:
        self.initial.validate(tree)
        self.adjust.validate(tree)


def check_class(strategy, mixed: bool, strict: bool, message: str) -> None:
    """Raise GameSpecError(message) unless `strategy` has the given class."""
    if not (
        isinstance(strategy, Strategy)
        and strategy.mixed == mixed
        and strategy.adjust.strict == strict
    ):
        raise GameSpecError(message)


class CheckedRows(list):
    """Payoff rows in field order, each a tuple of finite floats sized to the
    level of its (s, t), with ``bound``, their largest payoff magnitude, so
    that a field built from them does not check each value again."""

    __slots__ = ("bound",)

    def __init__(self, rows: Iterable[tuple[float, ...]], bound: float):
        super().__init__(rows)
        self.bound = bound


def _checked_rows(
    tree: EventTree, rows: Sequence[Sequence[float]], players: tuple[int, ...]
) -> CheckedRows:
    """The given players' payoff rows as ``CheckedRows``: `rows` itself when
    it is such rows sized to the tree, else each row read as a tuple of
    floats, or the first fault: anything but a sequence (a mapping's keys
    are not rows), a wrong number of rows, then, row by row in field order,
    a row that is not a sequence of values ``float`` accepts, a wrong size,
    then a non-finite value.  A row is named by its position (player, s, t)."""
    sizes = tree.stop_sizes * len(players)
    if type(rows) is CheckedRows and tuple(map(len, rows)) == sizes:
        return rows
    if not isinstance(rows, Sequence):
        raise GameSpecError(f"payoff rows must be a sequence, not {type(rows).__name__}")
    if len(rows) != len(sizes):
        whose = "" if len(players) == 2 else f" for player {players[0]}"
        raise GameSpecError(f"payoff field needs {len(sizes)} rows{whose}, got {len(rows)}")
    data = []
    n = tree.horizon + 1
    for key, row, size in zip(product(players, range(n), range(n)), rows, sizes):
        try:
            vals = tuple(map(float, row))
        except (TypeError, ValueError, OverflowError):
            raise GameSpecError(f"payoff slice {key} must be a sequence of numbers") from None
        if len(vals) != size:
            raise GameSpecError(f"payoff slice {key} needs {size} values, got {len(vals)}")
        if not all(map(isfinite, vals)):
            raise GameSpecError(f"non-finite payoff in slice {key}")
        data.append(vals)
    return CheckedRows(data, max(map(abs, chain.from_iterable(data)), default=0.0))


#: The least ``PayoffField.tol``: 64 steps of the subnormal float grid.
#: Below 2**-1022 every float operation rounds to a multiple of 2**-1074, an
#: error that does not shrink with the payoffs, so a tolerance of a few such
#: steps no longer covers the rounding of a solve.
_MIN_TOL = 2.0**-1068


class PayoffField:
    """The two per-player payoff families U^i(s, t, .), one value per node.

    The payoff for player i when the effective stop times are (s, t) is read
    at the node of level max(s, t) on the realized path, which is exactly the
    information available once both players have stopped.  A field is built
    from its rows in field order: player 1's, then player 2's, each in
    ``tree.stop_pairs`` order (row-major (s, t)), and each row the values of
    the nodes of level max(s, t) in canonical order.  It stores them as one
    tuple of floats per row, and keeps the tree as ``tree``: a function that
    takes a field reads the game's tree there.

    A field also memoizes the one-sided tables computed from it
    (:func:`~stopgames.snell.reaction_value` and :func:`stop_alone_values`),
    keyed by their arguments other than the field, with the adjustment
    family of a lone-stopper table keyed by the object, and the mixed payoffs
    of :func:`payoff_mixed_sim`, keyed by the strategy objects, so the
    solvers and the certificate share each result for as long as the field
    lives, and records each strategy that passed :func:`validate_once`.  A
    reaction table is kept without its adjustment family when no caller has
    asked for one yet, and on a field built by :meth:`zero_sum` one player's
    table is derived from the other's mirrored one instead of swept.

    ``unit`` is the least power of two >= ``bound``, the largest payoff
    magnitude (1.0 for an all-zero field; 2**1023, the largest finite power
    of two, caps it).  Every payoff equality test and certificate slack is
    ``tol = 1e-9 * unit``, so scaling all payoffs by 2**k scales each
    comparison exactly and leaves every decision as it was.  A field whose
    ``tol`` would fall below ``_MIN_TOL`` (``unit`` below 2**-1038) is
    refused: its payoffs are too small for their rounding to be told apart
    from a tie.
    """

    def __init__(self, tree: EventTree, rows: Sequence[Sequence[float]]):
        self.tree = tree
        self._data = _checked_rows(tree, rows, (1, 2))
        self.bound = self._data.bound
        self._width = tree.horizon + 1
        mantissa, exponent = frexp(self.bound)  # 0 or in [0.5, 1)
        self.unit = ldexp(1.0, min(exponent - (mantissa == 0.5), 1023))
        self.tol = 1e-9 * self.unit
        if self.tol < _MIN_TOL:
            raise GameSpecError(
                f"payoffs of largest magnitude {self.bound:g} are too small to certify: "
                f"their tolerance {self.tol:g} is below {_MIN_TOL:g}"
            )
        self._tables: dict[tuple, object] = {}
        self._zero_sum = False
        self._payoffs: dict[tuple, tuple] = {}
        self._valid: dict[int, object] = {}

    @classmethod
    def zero_sum(cls, tree: EventTree, rows1: Sequence[Sequence[float]]) -> "PayoffField":
        """Build a field from player 1's rows, in field order, with player 2's
        rows their negation.  A fault is named as in that field.

        Only player 1's rows are checked: negation keeps each row's size,
        finiteness and magnitudes, so player 2's could add no fault and
        would not change ``bound``.  The field knows its rows are mirrored,
        so a reaction table of one player is taken from the other's.
        """
        data = _checked_rows(tree, rows1, (1,))
        rows = CheckedRows([*data, *map(tuple, map(map, repeat(neg), data))], data.bound)
        field = cls(tree, rows)
        field._zero_sum = True
        return field

    def value(self, player: int, s: int, t: int, node: int) -> float:
        """U^player(s, t, node) for a node of level max(s, t); see row()."""
        n = self._width
        vals = self._data[((player - 1) * n + s) * n + t]
        return vals[node - self.tree.level_start[max(s, t)]]

    def row(self, player: int, s: int, t: int) -> tuple[float, ...]:
        """U^player(s, t, .) over the nodes of level max(s, t), in level order.

        `player` must be 1 or 2 and s, t in 0..horizon: the row is read by
        its position in field order, so other arguments are not rejected.
        """
        n = self._width
        return self._data[((player - 1) * n + s) * n + t]

    def rows_at(
        self, player: int, side: str, level: int, count: int
    ) -> list[tuple[float, ...]]:
        """The rows U^player(level, t) (``side="first"``) or U^player(t, level)
        (``side="second"``) for t = 0..count-1, with count <= level + 1 or
        level the horizon, so that each row lives at `level`.  Rows of one
        player are stored row-major in (s, t), so these are one slice: a
        contiguous one for the first side, one of stride horizon + 1 for the
        second.
        """
        n = self._width
        base = (player - 1) * n * n
        if side == "first":
            return self._data[base + level * n : base + level * n + count]
        return self._data[base + level : base + level + count * n : n]


def validate_once(field: PayoffField, *items) -> None:
    """Validate each strategy or stopping time against the field's tree once
    per field.  The record is keyed by id and holds the object, so the id
    stays unique while it lives; an object that fails is not recorded."""
    for item in items:
        if field._valid.get(id(item)) is not item:
            item.validate(field.tree)
            field._valid[id(item)] = item


def _payoff_pure_core(
    field: PayoffField, mode: Mode, rho: Strategy, tau: Strategy
) -> tuple[float, float]:
    """Payoff evaluation without class validation; see payoff_pure.

    Each path's payoffs are read at the later rule's first stop, which for
    valid strategies is the path's node of level max(s, t).
    """
    tree = field.tree
    nodes = tree.nodes
    sim = mode == "sim"
    leaf0 = tree.level_start[tree.horizon]

    def stops(rule: StoppingTime) -> list[int]:
        return tree.first_stops(rule.marks)[leaf0:]

    r0 = stops(rho.initial)
    t0 = stops(tau.initial)
    rho_adj: dict[int, list[int]] = {}
    tau_adj: dict[int, list[int]] = {}
    u1 = 0.0
    u2 = 0.0
    for pos, prob in enumerate(tree.leaf_probs):
        node = r0[pos]
        s0 = nodes[node].time
        u0 = nodes[t0[pos]].time
        if s0 < u0 or (not sim and s0 == u0):
            adj = tau_adj.get(s0)
            if adj is None:
                adj = tau_adj[s0] = stops(tau.adjust.rules[s0])
            node = adj[pos]
            s, t = s0, nodes[node].time
        elif s0 > u0:
            adj = rho_adj.get(u0)
            if adj is None:
                adj = rho_adj[u0] = stops(rho.adjust.rules[u0])
            node = adj[pos]
            s, t = nodes[node].time, u0
        else:
            s = t = s0
        u1 += prob * field.value(1, s, t, node)
        u2 += prob * field.value(2, s, t, node)
    return u1, u2


def payoff_pure(
    field: PayoffField, mode: Mode, rho: Strategy, tau: Strategy
) -> tuple[float, float]:
    """Exact expected payoffs of a pure strategy profile, both players.

    The strategies' classes are checked on every call and each is validated
    once per field; the payoffs are memoized on the field, as in
    :func:`payoff_mixed_sim`.
    """
    if mode == "sim":
        for strategy in (rho, tau):
            check_class(strategy, False, True, "simultaneous mode needs two type-A strategies")
    elif mode == "seq":
        check_class(tau, False, False, "sequential mode needs a type-B second strategy")
        check_class(rho, False, True, "sequential mode needs a type-A first strategy")
    else:
        raise GameSpecError(f"unknown mode {mode!r}")
    validate_once(field, rho, tau)
    key = (mode, id(rho), id(tau))
    cached = field._payoffs.get(key)
    if cached is None:
        cached = field._payoffs[key] = (rho, tau, _payoff_pure_core(field, mode, rho, tau))
    return cached[2]


def _sweep(
    tree: EventTree,
    rewards: Callable[[int, int], Sequence[Sequence[float]]],
    roots: Sequence[int],
    strict: bool = False,
    use_max: bool = True,
    tol: float = 0.0,
    family: bool = True,
    *,
    rules: Sequence[StoppingTime] | None = None,
) -> tuple[list[list[float]], list[StoppingTime] | None]:
    """Solve the stopping problems rooted at the levels `roots` (increasing)
    in one backward sweep; ``rewards(u, count)`` gives the level-u reward
    rows of the first `count` problems.

    At level u the sweep holds, as one flat list, the envelope of every
    problem whose window has reached u, problem k's level-u nodes at
    k * size + i: the window of a problem rooted at t starts at t, or at
    t+1 for a strict one, and every window holds the horizon.  Each problem
    keeps the operations of a one-problem induction, in the same order:
    S_T = W_T, then S_u = opt(W_u, E_u[S_{u+1}]) with the reward first, and
    the optimizer stops where abs(W_u - S_u) <= tol.  With `rules`, problem
    k follows ``rules[k]`` instead: S_T is W_T where the rule stops and 0.0
    elsewhere, S_u is W_u where it stops and E_u[S_{u+1}] elsewhere, and
    `use_max`, `tol` and `family` are not read.

    Returns, per problem, its value at its root level (the envelope there,
    or for a strict window below the horizon the one-step expectation of
    the envelope) and its earliest optimizer, or None for the optimizers
    when `family` is false or `rules` is given: the sweep then keeps no
    marks.  The rewards are not checked: a payoff field holds only finite
    values.
    """
    T = tree.horizon
    n = len(roots)
    # (w, cont)[cont > w] is max(w, cont), and with < min(w, cont): the
    # comparison max and min make, the reward kept unless beaten.
    beats = gt if use_max else lt

    def follow(cont: Iterable[float], w: list[float], u: int, count: int) -> list[float]:
        # (cont, w)[mark] is w where the rule stops and cont elsewhere.
        here = slice(tree.level_start[u], tree.level_start[u + 1])
        marks = chain.from_iterable([rule.marks[here] for rule in rules[:count]])
        return list(map(getitem, zip(cont, w), marks))

    size = len(tree.leaves)
    env = list(chain.from_iterable(rewards(T, n)))
    if rules is not None:
        env = follow(repeat(0.0), env, T, n)
        family = False
    values: list[list[float]] = [[]] * n
    if roots[-1] == T:
        values[-1] = env[-size:]
    # Per level from the horizon down, each problem's marks there: False
    # where its window has not reached the level.
    chunks = [repeat((True,) * size, n)] if family else None
    for u in range(T - 1, roots[0] - 1, -1):
        size = len(tree.levels[u])
        rooted = bisect_right(roots, u)
        # A window starts at its root, or one level later if strict.
        active = bisect_right(roots, u - strict)
        w = list(chain.from_iterable(rewards(u, active)))
        cont = tree.expect_batch(env, u, rooted)
        if rules is None:
            env = list(map(getitem, zip(w, cont), map(beats, cont, w)))
        else:
            env = follow(cont, w, u, active)
        if family:
            marks = chain(
                map(le, map(abs, map(sub, w, env)), repeat(tol)),
                repeat(False, (n - active) * size),
            )
            chunks.append(zip(*[marks] * size))
        k = rooted - 1
        if roots[k] == u:
            values[k] = (cont if strict else env)[k * size : (k + 1) * size]
    if not family:
        return values, None
    # One transposition gives each problem's marks over every node.
    below = repeat((False,) * tree.level_start[roots[0]], n)
    marks_of = map(tuple, map(chain.from_iterable, zip(below, *reversed(chunks))))
    return values, list(map(StoppingTime, marks_of))


def read_levels(
    tree: EventTree, rows: Sequence[Sequence[float]], t: int, strict: bool
) -> tuple[int, dict[int, Sequence[float]]]:
    """The window start of the problem rooted at level t and the rows it
    reads, ``rows[u]`` for u from the horizon down to that start, each read
    once; a level t outside the tree or a row whose size is not its level's
    is a GameSpecError."""
    T = tree.horizon
    if not 0 <= t <= T:
        raise GameSpecError(f"level {t} outside 0..{T}")
    start = adjustment_floor(T, t, strict)
    read = {u: rows[u] for u in range(T, start - 1, -1)}
    for u, row in read.items():
        if len(row) != len(tree.levels[u]):
            raise GameSpecError(
                f"reward row {u} needs {len(tree.levels[u])} values, got {len(row)}"
            )
    return start, read


def expected_at_stop(
    tree: EventTree, rule: StoppingTime, rows: Sequence[Sequence[float]], t: int
) -> list[float]:
    """Expected reward collected at `rule`'s first stop at or after level t,
    per level-t node, in level order.

    ``rows[u]`` holds the reward of stopping at each level-u node, in level
    order; only levels t..T are read.  Entry n is the expectation, over
    paths through node n, of the reward at the node where the rule first
    stops; a path on which the rule does not stop collects 0.0 at its
    horizon node.  The rule is not validated, but its marks must cover the
    tree.  The induction runs backward from the horizon to level t and no
    further; it is the one-problem run of the sweep behind
    :func:`stop_alone_values`.
    """
    _, read = read_levels(tree, rows, t, False)
    if len(rule.marks) != tree.n_nodes:
        raise GameSpecError("stopping time marks do not cover the tree")
    return _sweep(tree, lambda u, k: (read[u],), (t,), rules=(rule,))[0][0]


def stop_alone_values(
    field: PayoffField, player: int, stopper: int, family: AdjustmentFamily
) -> tuple[float, ...]:
    """Player `player`'s expected payoff, per node at its own level t, when
    `stopper` stops alone at t and the other player follows her adjustment
    rule ``family.rules[t]``.

    The stopper's time goes in her own payoff argument, the follower's
    realized time in the other.  All T+1 problems are solved by one
    backward sweep, the one behind every reaction table, following the
    rules instead of optimizing; a rule that does not stop at a horizon
    node collects 0.0 there.  The table is memoized on the field.
    """
    # Keyed on the family object, so a lookup hashes none of its marks.  The
    # entry holds the family, so its id stays unique while the entry lives.
    key = (player, stopper, id(family))
    cached = field._tables.get(key)
    if cached is not None:
        return cached[1]
    # Stopper 1 stops at t and the follower at u: rows U(t, u).
    side = "second" if stopper == 1 else "first"
    roots = tuple(range(field.tree.horizon + 1))
    values, _ = _sweep(field.tree, partial(field.rows_at, player, side), roots, rules=family.rules)
    table = tuple(chain.from_iterable(values))
    field._tables[key] = (family, table)
    return table


def payoff_mixed_sim(
    field: PayoffField, rho: Strategy, tau: Strategy
) -> tuple[float, float]:
    """Exact expected payoffs of a mixed profile in the simultaneous game.

    Backward recursion over nodes while both players are still active,
    weighting the four stage outcomes (both stop, one stops, none stops) by
    the independent per-node stop probabilities.  Once a single player has
    stopped, the other's deterministic adjustment rule takes over.  The
    strategies' classes are checked on every call and each is validated
    once per field; the payoffs are memoized on the field.
    """
    for strategy in (rho, tau):
        check_class(strategy, True, True, "mixed payoffs need two mixed type-A strategies")
    validate_once(field, rho, tau)
    # Keyed on the strategy objects, not on equality: two equal profiles may
    # differ in the sign of a zero probability.  The entry holds both
    # objects, so their ids stay unique for as long as it lives.
    key = ("mixed", id(rho), id(tau))
    cached = field._payoffs.get(key)
    if cached is None:
        cached = field._payoffs[key] = (rho, tau, _mixed_values(field, rho, tau))
    return cached[2]


def _mixed_values(
    field: PayoffField, rho: Strategy, tau: Strategy
) -> tuple[float, float]:
    """The backward recursion of payoff_mixed_sim, on validated strategies."""
    tree = field.tree
    x1 = stop_alone_values(field, 1, 1, tau.adjust)
    x2 = stop_alone_values(field, 2, 1, tau.adjust)
    y1 = stop_alone_values(field, 1, 2, rho.adjust)
    y2 = stop_alone_values(field, 2, 2, rho.adjust)

    w1 = [0.0] * tree.n_nodes
    w2 = [0.0] * tree.n_nodes
    T = tree.horizon
    for idx, z1, z2 in zip(tree.leaves, field.row(1, T, T), field.row(2, T, T)):
        w1[idx] = z1
        w2[idx] = z2
    for t in range(T - 1, -1, -1):
        conts = zip(
            tree.levels[t],
            field.row(1, t, t),
            field.row(2, t, t),
            *tree.expect_next_pair(w1, w2, t),
        )
        for idx, z1, z2, d1, d2 in conts:
            p = rho.initial.probs[idx]
            q = tau.initial.probs[idx]
            w1[idx] = (
                p * q * z1
                + p * (1.0 - q) * x1[idx]
                + (1.0 - p) * q * y1[idx]
                + (1.0 - p) * (1.0 - q) * d1
            )
            w2[idx] = (
                p * q * z2
                + p * (1.0 - q) * x2[idx]
                + (1.0 - p) * q * y2[idx]
                + (1.0 - p) * (1.0 - q) * d2
            )
    return w1[0], w2[0]
