"""Finite filtered probability spaces represented as rooted event trees.

The sample space is the set of root-to-leaf paths.  The information available
at time t is the partition of paths by their time-t node, so an adapted
process is simply one value per node, held as a tuple indexed by node in the
canonical order, and essential suprema/infima over events are exact per-node
maxima/minima.  All probabilistic operations (conditional expectation,
hitting times) reduce to sums and scans over the tree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, product, repeat
from operator import add, attrgetter, mul
from typing import NamedTuple

from .errors import GameSpecError

PROB_TOL = 1e-12


class Node(NamedTuple):
    """One atom of the time-`time` information.

    A named tuple, so a node also compares equal to the plain tuple of its
    fields in this order.
    """

    index: int
    id: str
    time: int
    parent: int | None
    edge_prob: float
    children: tuple[int, ...]
    child_probs: tuple[float, ...]


class EventTree:
    """Immutable rooted tree with per-edge transition probabilities.

    Nodes are stored in canonical order (sorted by time, then id), so the
    nodes of each level occupy a contiguous index range.  Built through
    :func:`build_tree`, which performs all validation.
    """

    def __init__(self, horizon: int, nodes: Sequence[Node]):
        self.horizon = horizon
        self.nodes = tuple(nodes)
        self.n_nodes = len(self.nodes)
        self.by_id = {node.id: node.index for node in self.nodes}

        starts = [0] * (horizon + 2)
        for node in self.nodes:
            starts[node.time + 1] += 1
        for t in range(horizon + 1):
            starts[t + 1] += starts[t]
        self.level_start = tuple(starts)
        self.levels = tuple(
            tuple(range(starts[t], starts[t + 1])) for t in range(horizon + 1)
        )
        self.leaves = self.levels[horizon]

        # Parents precede their children in canonical order, so one top-down
        # pass gives every node's probability.
        node_prob = [1.0] * self.n_nodes
        for node in self.nodes[1:]:
            node_prob[node.index] = node_prob[node.parent] * node.edge_prob
        self.node_prob = tuple(node_prob)
        self.leaf_probs = self.node_prob[starts[horizon] :]
        # The root's parent is -1: the trailing sentinel of `first_stops`.
        self._parents = tuple(-1 if node.parent is None else node.parent for node in self.nodes)

        self._realized_cache: dict[tuple[bool, ...], tuple[int, ...]] = {}
        # Per level, each node's (child probabilities, child indices).
        edges = tuple(
            zip(
                map(attrgetter("child_probs"), self.nodes),
                map(attrgetter("children"), self.nodes),
            )
        )
        self._level_edges = tuple(
            edges[starts[t] : starts[t + 1]] for t in range(horizon + 1)
        )
        self._layouts: dict[tuple[int, int], tuple] = {}

    def expect_next(
        self, values: Sequence[float] | Mapping[int, float], t: int
    ) -> list[float]:
        """E_t[X_{t+1}] for each level-t node, in level order.

        ``values`` is indexed by node and must cover level t+1.  This is the
        one-process case of :meth:`expect_batch`, so every backward induction
        takes its continuation values from one primitive, whose summation
        order fixes the report bytes.
        """
        return self.expect_batch(list(map(values.__getitem__, self.levels[t + 1])), t, 1)

    def expect_batch(self, values: list[float], t: int, count: int) -> list[float]:
        """E_t[X_{t+1}] for `count` processes at once, level by level.

        ``values`` holds level t+1 of each process in turn: entry k*M + j is
        process k at the j-th node of level t+1, which has M nodes; entries
        past count*M are not read.  The result holds level t of each process
        the same way.  Each node's children are summed in id order, left to
        right from 0.0, one C-level pass per child slot: the operations of
        ``sum`` over the products on Python 3.11.  A node with fewer children
        than the widest node of its level is padded at the end with
        0.0 * 0.0: a running sum that starts from 0.0 is never -0.0, so
        adding +0.0 leaves its bits as they were, where 0.0 times a child
        value could be NaN.
        """
        size, slots = self._layouts.get((t, count)) or self._layout(t, count)
        src = values[: count * size]
        src.append(0.0)  # every pad reads src[-1]
        get = src.__getitem__
        total = repeat(0.0)
        for positions, probs in slots:
            total = map(add, total, map(mul, probs, map(get, positions)))
        return list(total)

    def _layout(self, t: int, count: int) -> tuple[int, list[tuple[list[int], list[float]]]]:
        """Level t's ``expect_batch`` gather for `count` processes: the size
        of level t+1 and, per child slot j, the input position of each node's
        j-th child (-1 for a pad), per process and per node, with the
        matching probabilities (0.0 for a pad).  Kept with the tree,
        together with the gathers for one process and for t + 1, the most
        that the stopping problems rooted at or above t ever batch."""
        edges = self._level_edges[t]
        width = max([len(kids) for _, kids in edges])
        first = self.level_start[t + 1]
        size = self.level_start[t + 2] - first
        ranks: list[int] = []
        probs: list[float] = []
        for node_probs, kids in edges:
            pad = width - len(kids)
            ranks += [c - first for c in kids] + [-1] * pad
            probs += node_probs + (0.0,) * pad
        for n in {1, t + 1, count}:
            # Process k reads its block at k * size; a pad stays at -1.
            positions = ranks + [
                r + offset if r >= 0 else -1
                for offset in range(size, n * size, size)
                for r in ranks
            ]
            every = probs * n
            slots = [(positions[j::width], every[j::width]) for j in range(width)]
            self._layouts[t, n] = (size, slots)
        return self._layouts[t, count]

    def first_stops(self, marks: Sequence[bool]) -> list[int]:
        """Per node, the first node marked in `marks` on its path from the
        root, the node itself included, or -1 where there is none.

        Every reading of a stopping rule goes through this one top-down pass:
        a rule's realized time on a path is the level of the leaf's first
        stop, and its stop set is the nodes that are their own first stop.
        """
        if len(marks) != self.n_nodes:
            raise GameSpecError("stopping time marks do not cover the tree")
        first = [-1] * (self.n_nodes + 1)
        for i, p, m in zip(range(self.n_nodes), self._parents, marks):
            if m and first[p] < 0:
                first[i] = i
            else:
                first[i] = first[p]
        first.pop()
        return first

    def realized_times(self, marks: tuple[bool, ...]) -> tuple[int, ...]:
        """Per path, the time of the first node marked stop (cached)."""
        cached = self._realized_cache.get(marks)
        if cached is not None:
            return cached
        stops = self.first_stops(marks)[self.level_start[self.horizon] :]
        if -1 in stops:
            leaf = self.leaves[stops.index(-1)]
            raise GameSpecError(f"no stop on the path through node {self.nodes[leaf].id}")
        result = tuple([self.nodes[idx].time for idx in stops])
        self._realized_cache[marks] = result
        return result

    # The canonical order of payoff blocks on the tree.  Each is built on
    # first use and kept with the tree, so every payoff section on it shares
    # these tuples, and none outlives it.

    @cached_property
    def stop_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every pair (s, t) of stop times in 0..horizon, row-major."""
        return tuple(product(range(self.horizon + 1), repeat=2))

    @cached_property
    def stop_levels(self) -> tuple[int, ...]:
        """For each of ``stop_pairs``, the level max(s, t) its payoffs live on."""
        n = self.horizon + 1
        # Row s of the grid is s repeated s times, then s..horizon.
        return tuple(chain.from_iterable(chain(repeat(s, s), range(s, n)) for s in range(n)))


@dataclass(frozen=True)
class StoppingTime:
    """Adapted stop/continue decision per node; every horizon node stops.

    The realized time of a path is the time of its first stop node.
    Decisions below the first stop never affect realized times, so two
    rules with different marks may realize the same times.
    """

    marks: tuple[bool, ...]

    def validate(self, tree: EventTree) -> None:
        if len(self.marks) != tree.n_nodes:
            raise GameSpecError("stopping time marks do not cover the tree")
        for leaf in tree.leaves:
            if not self.marks[leaf]:
                raise GameSpecError(
                    f"node {tree.nodes[leaf].id} at the horizon must stop"
                )

    def realized(self, tree: EventTree) -> tuple[int, ...]:
        return tree.realized_times(self.marks)


def constant_stopping_time(tree: EventTree, t: int) -> StoppingTime:
    """The stopping time identically equal to t."""
    if not 0 <= t <= tree.horizon:
        raise GameSpecError(f"constant stopping time {t} outside 0..{tree.horizon}")
    marks = [False] * tree.n_nodes
    for idx in tree.levels[t]:
        marks[idx] = True
    for leaf in tree.leaves:
        marks[leaf] = True
    return StoppingTime(tuple(marks))


def left_sum(values: Iterable[float]) -> float:
    """``sum(values)`` as Python 3.11 computes it: from the int 0, one
    addition at a time, left to right.

    From 3.12 on, the builtin ``sum`` of floats compensates its rounding
    error, so its result can differ in the last bit.  Every float sum whose
    bits reach a game file or a report goes through this instead, so the
    bytes do not depend on the interpreter.
    """
    return reduce(add, values, 0)


def checked_int(value, what: str) -> int:
    """`value` if it is an integer, not a bool; else a GameSpecError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GameSpecError(f"{what} must be an integer")
    return value


def build_tree(spec: Mapping) -> EventTree:
    """Build and validate an event tree from a raw description.

    ``spec`` maps ``horizon`` to an integer and ``nodes`` to a list of
    mappings with keys ``id``, ``time`` (an integer) and, for non-root
    nodes, ``parent`` and ``prob`` (a number).  Node ordering in the input
    is irrelevant; the result uses the canonical (time, id) ordering.
    """
    try:
        horizon = checked_int(spec["horizon"], "horizon")
        raw_nodes = spec["nodes"]
    except (KeyError, TypeError) as exc:
        raise GameSpecError(f"tree description missing field: {exc}") from exc
    if not isinstance(raw_nodes, (list, tuple)):
        raise GameSpecError("nodes must be a list")
    if horizon < 0:
        raise GameSpecError(f"horizon must be >= 0, got {horizon}")

    # Checks run in a fixed order, so a spec with several faults always
    # gets the same message: the nodes in input order, the root count, the
    # nodes in canonical order, then each node's children.
    seen: dict[str, Mapping] = {}
    times: dict[str, int] = {}
    n_roots = 0
    for raw in raw_nodes:
        if not isinstance(raw, Mapping):
            raise GameSpecError("each node must be an object")
        if "id" not in raw:
            raise GameSpecError("node without 'id'")
        nid = str(raw["id"])
        if nid in seen:
            raise GameSpecError(f"duplicate node id {nid}")
        times[nid] = checked_int(raw.get("time"), f"time of node {nid}")
        seen[nid] = raw
        if raw.get("parent") is None:
            n_roots += 1
    if n_roots != 1:
        raise GameSpecError(f"expected exactly one root node, found {n_roots}")

    # Canonical order: by time, then id (a stable sort by time of the ids).
    order = sorted(seen)
    order.sort(key=times.__getitem__)
    n = len(order)
    index_of = dict(zip(order, range(n)))
    time_of = list(map(times.__getitem__, order))

    parents: list[int | None] = [None] * n
    probs = [1.0] * n
    kids: list[list[int]] = [[] for _ in order]
    for i, nid in enumerate(order):
        raw = seen[nid]
        t = time_of[i]
        parent = raw.get("parent")
        if parent is None:
            if t != 0:
                raise GameSpecError(f"root node {nid} has time {t}, expected 0")
        else:
            parent = str(parent)
            p = index_of.get(parent)
            if p is None:
                raise GameSpecError(f"orphan node {nid}: unknown parent {parent}")
            if t != time_of[p] + 1:
                raise GameSpecError(
                    f"time inconsistency at node {nid}: time {t}, parent at {time_of[p]}"
                )
            prob = raw.get("prob")
            if isinstance(prob, bool) or not isinstance(prob, (int, float)):
                raise GameSpecError(f"node {nid} needs a numeric 'prob'")
            try:
                prob = float(prob)
            except OverflowError:
                raise GameSpecError(
                    f"transition probability at node {nid} outside (0, 1]"
                ) from None
            if not 0.0 < prob <= 1.0:
                raise GameSpecError(
                    f"transition probability {prob:g} at node {nid} outside (0, 1]"
                )
            parents[i] = p
            probs[i] = prob
            # Appended in canonical order, so each child list is in id order.
            kids[p].append(i)
        if not 0 <= t <= horizon:
            raise GameSpecError(f"node {nid} at time {t} outside 0..{horizon}")

    child_probs = [()] * n
    for i, nid in enumerate(order):
        if time_of[i] < horizon:
            if not kids[i]:
                raise GameSpecError(
                    f"leaf before horizon: node {nid} at time {time_of[i]} < {horizon}"
                )
            child_probs[i] = tuple(map(probs.__getitem__, kids[i]))
            total = left_sum(child_probs[i])
            if abs(total - 1.0) > PROB_TOL:
                raise GameSpecError(f"probabilities sum to {total:g} at {nid}")
        elif kids[i]:
            raise GameSpecError(f"node {nid} at the horizon has children")

    nodes = map(Node, range(n), order, time_of, parents, probs, map(tuple, kids), child_probs)
    return EventTree(horizon, nodes)


@dataclass(frozen=True)
class HittingResult:
    """First hitting time of a node predicate, clamped to the horizon.

    ``clamped`` holds the leaf positions of paths on which the predicate
    never fired at or after the starting rule; those paths stop at the
    horizon by convention.
    """

    stop: StoppingTime
    clamped: frozenset[int]


def hitting_time(
    tree: EventTree,
    flag: Callable[[int], bool],
    start: StoppingTime,
) -> HittingResult:
    """First time >= `start` at which `flag(node index)` holds, per path.

    Paths with no eligible flagged node are clamped to the horizon and
    recorded in the clamped set.
    """
    eligible = tree.first_stops(start.marks)
    marks = [bool(flag(i)) and e >= 0 for i, e in enumerate(eligible)]
    stops = tree.first_stops(marks)[tree.level_start[tree.horizon] :]
    clamped = frozenset([pos for pos, idx in enumerate(stops) if idx < 0])
    for leaf in tree.leaves:
        marks[leaf] = True
    return HittingResult(StoppingTime(tuple(marks)), clamped)
