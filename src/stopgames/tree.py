"""Finite filtered probability spaces represented as rooted event trees.

The sample space is the set of root-to-leaf paths.  The information available
at time t is the partition of paths by their time-t node, so an adapted
process is simply one value per node, held as a tuple indexed by node in the
canonical order, and essential suprema/infima over events are exact per-node
maxima/minima.  All probabilistic operations (conditional expectation,
hitting times) reduce to sums and scans over the tree.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat
from operator import attrgetter, mul
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
        # pass gives every node's probability and its path from the root.
        node_prob = [1.0] * self.n_nodes
        path_to = [(0,)] * self.n_nodes
        for node in self.nodes[1:]:
            node_prob[node.index] = node_prob[node.parent] * node.edge_prob
            path_to[node.index] = path_to[node.parent] + (node.index,)
        self.node_prob = tuple(node_prob)
        self.leaf_probs = self.node_prob[starts[horizon] :]
        self.paths = tuple(path_to[starts[horizon] :])

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

    def expect_next(
        self, values: Sequence[float] | Mapping[int, float], t: int
    ) -> list[float]:
        """E_t[X_{t+1}] for each level-t node, in level order.

        ``values`` is indexed by node and must cover level t+1.  Children are
        summed in id order by ``sum``; every backward induction takes its
        continuation values from here, so this order fixes the report bytes.
        """
        # A loop, not a comprehension: this runs once per level of every
        # induction, and a comprehension's own frame dominates on the
        # one-node levels of a chain.
        get = values.__getitem__
        out = []
        for probs, kids in self._level_edges[t]:
            out.append(sum(map(mul, probs, map(get, kids))))
        return out

    def realized_times(self, marks: tuple[bool, ...]) -> tuple[int, ...]:
        """Per path, the time of the first node marked stop (cached)."""
        cached = self._realized_cache.get(marks)
        if cached is not None:
            return cached
        out = []
        for path in self.paths:
            for t, idx in enumerate(path):
                if marks[idx]:
                    out.append(t)
                    break
            else:
                raise GameSpecError(
                    f"no stop on the path through node {self.nodes[path[-1]].id}"
                )
        result = tuple(out)
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

    def prefix_stopped(self, marks: Sequence[bool]) -> tuple[bool, ...]:
        """Per node, whether a mark occurs at the node or one of its ancestors."""
        out = [False] * self.n_nodes
        for node in self.nodes:
            hit = marks[node.index]
            if node.parent is not None:
                hit = hit or out[node.parent]
            out[node.index] = hit
        return tuple(out)


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
            total = sum(child_probs[i])
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
    flagged = tuple(bool(flag(i)) for i in range(tree.n_nodes))
    eligible = tree.prefix_stopped(start.marks)
    marks = [False] * tree.n_nodes
    for idx in range(tree.n_nodes):
        marks[idx] = flagged[idx] and eligible[idx]
    clamped = []
    for pos, path in enumerate(tree.paths):
        if not any(marks[idx] for idx in path):
            clamped.append(pos)
    for leaf in tree.leaves:
        marks[leaf] = True
    return HittingResult(StoppingTime(tuple(marks)), frozenset(clamped))
