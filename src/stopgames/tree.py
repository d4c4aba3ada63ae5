"""Finite filtered probability spaces represented as rooted event trees.

The sample space is the set of root-to-leaf paths.  The information available
at time t is the partition of paths by their time-t node, so an adapted
process is simply one value per node, held as a tuple indexed by node in the
canonical order, and essential suprema/infima over events are exact per-node
maxima/minima.  All probabilistic operations (conditional expectation,
hitting times) reduce to sums and scans over the tree.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, groupby, islice, product, repeat
from operator import add, attrgetter, contains, itemgetter, mul, sub
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

    def __init__(self, horizon: int, nodes: Iterable[Node]):
        self.horizon = horizon
        self.nodes = tuple(nodes)
        self.n_nodes = len(self.nodes)
        self.by_id = dict(
            zip(map(attrgetter("id"), self.nodes), map(attrgetter("index"), self.nodes))
        )

        # Nodes are sorted by time, so level t starts at the first node of
        # time >= t.
        times = list(map(attrgetter("time"), self.nodes))
        starts = list(map(bisect_left, repeat(times), range(horizon + 2)))
        self.level_start = tuple(starts)
        self.levels = tuple(map(tuple, map(range, starts, starts[1:])))
        self.leaves = self.levels[horizon]

        # Parents precede their children in canonical order, so one top-down
        # pass, a level at a time, gives every node's probability.
        parents = list(map(attrgetter("parent"), self.nodes))
        edge_probs = list(map(attrgetter("edge_prob"), self.nodes))
        node_prob = [1.0]
        for lo, hi in zip(starts[1:], starts[2:]):
            node_prob += map(mul, map(node_prob.__getitem__, parents[lo:hi]), edge_probs[lo:hi])
        self.node_prob = tuple(node_prob)
        self.leaf_probs = self.node_prob[starts[horizon] :]
        # The root, first in canonical order, has parent -1: the trailing
        # sentinel of `first_stops`.
        self._parents = (-1, *parents[1:])

        self._realized_cache: dict[tuple[bool, ...], tuple[int, ...]] = {}
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

    def expect_next_pair(
        self, x: list[float], y: list[float], t: int
    ) -> tuple[list[float], list[float]]:
        """:meth:`expect_next` of two node-indexed lists, in one
        :meth:`expect_batch`.  Each list's values go through the operations
        of its own call, so their bits are the same."""
        lo, mid, hi = self.level_start[t : t + 3]
        both = self.expect_batch(x[mid:hi] + y[mid:hi], t, 2)
        return both[: mid - lo], both[mid - lo :]

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
        size, n, slots = self._layouts.get((t, count)) or self._layout(t, count)
        src = values[: count * size]
        src.append(0.0)  # every pad reads src[-1]
        get = src.__getitem__
        total = repeat(0.0)
        for positions, probs in slots:
            total = map(add, total, map(mul, probs, map(get, positions)))
        if n > count:
            # A gather for more processes: its first `count` blocks are these.
            return list(islice(total, count * (self.level_start[t + 1] - self.level_start[t])))
        return list(total)

    def _layout(self, t: int, count: int) -> tuple[int, int, list[tuple[list[int], list[float]]]]:
        """Level t's ``expect_batch`` gather for `count` processes: the size
        of level t+1, the number n >= count of processes it gathers and, per
        child slot j, the input position of each node's j-th child (-1 for a
        pad), per process and per node, with the matching probabilities (0.0
        for a pad).

        Kept with the tree.  A level keeps a gather for one process and one
        for max(t + 1, count) processes, t + 1 being the most that the
        stopping problems rooted at or above t ever batch; a call for fewer
        processes than that reads the first blocks of the larger gather.
        """
        n = 1 if count == 1 else max(t + 1, count)
        layout = self._layouts.get((t, n))
        if layout is None:
            lo, first, hi = self.level_start[t : t + 3]
            size = hi - first
            nodes = self.nodes[lo:first]
            width = max(map(len, map(attrgetter("children"), nodes)))
            ranks: list[int] = []
            probs: list[float] = []
            for node in nodes:
                pad = width - len(node.children)
                ranks += [c - first for c in node.children] + [-1] * pad
                probs += node.child_probs + (0.0,) * pad
            # Process k reads its block at k * size; a pad stays at -1.
            positions = ranks + [
                r + offset if r >= 0 else -1
                for offset in range(size, n * size, size)
                for r in ranks
            ]
            every = probs * n
            slots = [(positions[j::width], every[j::width]) for j in range(width)]
            layout = self._layouts[t, n] = (size, n, slots)
        self._layouts[t, count] = layout
        return layout

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
        if not all(self.marks[tree.level_start[tree.horizon] :]):
            leaf = next(leaf for leaf in tree.leaves if not self.marks[leaf])
            raise GameSpecError(f"node {tree.nodes[leaf].id} at the horizon must stop")

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
    nodes, ``parent`` and ``prob`` (a number).  Ids and parents are read as
    ``str`` writes them.  Node ordering in the input is irrelevant; the
    result uses the canonical (time, id) ordering.

    Four stages of whole-list passes check the spec; a stage that finds a
    fault calls a fault function, which walks its columns node by node and
    raises the first fault, so a faulty spec always gets the same message.
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
    order, time_of, parents, edge = _canonical_columns(horizon, raw_nodes)

    # 4. Each node's children, which must exist before the horizon and
    # whose probabilities must sum, as `left_sum` adds them, to 1 within
    # PROB_TOL.  A stable sort of the non-root nodes by parent lists each
    # node's children together, in canonical order, one run per parent.
    # Every parent is before the horizon, so the runs are those of nodes
    # 0..inner-1 exactly when there are `inner` of them.
    n = len(order)
    inner = bisect_left(time_of, horizon)
    by_parent = sorted(range(1, n), key=parents.__getitem__)
    kids = list(map(tuple, map(itemgetter(1), groupby(by_parent, parents.__getitem__))))
    child_probs = list(map(tuple, map(map, repeat(edge.__getitem__), kids)))
    errors = map(sub, map(reduce, repeat(add), child_probs, repeat(0)), repeat(1.0))
    if len(kids) != inner or not all(map(PROB_TOL.__ge__, map(abs, errors))):
        _children_fault(horizon, order, time_of, parents, edge)
    leaves = [()] * (n - inner)
    rows = zip(range(n), order, time_of, parents, edge, kids + leaves, child_probs + leaves)
    return EventTree(horizon, map(tuple.__new__, repeat(Node), rows))


def _canonical_columns(
    horizon: int, raw_nodes: Sequence
) -> tuple[list[str], list[int], list[int | None], list[float]]:
    """For ``build_tree``, stages 1-3: the ids, times, parent indices (None
    for the root) and edge probabilities of the nodes in canonical order.
    Its input columns are freed on return, before the tree is built."""
    # 1. Each node's own fields: an object with an id and an integer time,
    # and no id twice.
    kinds = set(map(type, raw_nodes))
    if kinds != {dict} and not all(map(issubclass, kinds, repeat(Mapping))):
        _input_fault(raw_nodes)
    get = dict.get if kinds == {dict} else Mapping.get
    ids = list(map(get, raw_nodes, repeat("id")))
    times = list(map(get, raw_nodes, repeat("time")))
    parent_ids = list(map(get, raw_nodes, repeat("parent")))
    probs_in = list(map(get, raw_nodes, repeat("prob")))
    if not set(map(type, ids)) <= {str}:
        if not all(map(contains, raw_nodes, repeat("id"))):
            _input_fault(raw_nodes)
        ids = list(map(str, ids))
    kinds = set(map(type, times))
    if kinds != {int} and (bool in kinds or not all(map(issubclass, kinds, repeat(int)))):
        _input_fault(raw_nodes)
    # Canonical order: by time, then id (a stable sort by time of the ids).
    n = len(ids)
    perm = sorted(range(n), key=ids.__getitem__)
    perm.sort(key=times.__getitem__)
    order = list(map(ids.__getitem__, perm))
    index_of = dict(zip(order, range(n)))
    if len(index_of) != n:
        _input_fault(raw_nodes)

    # 2. The root count.
    n_roots = parent_ids.count(None)
    if n_roots != 1:
        raise GameSpecError(f"expected exactly one root node, found {n_roots}")

    # 3. Each node's link to its parent.  The root must come first at time
    # 0; every other node is then one level below a known parent, so all
    # times lie in 0..horizon once the last one does.  NaN fails both
    # probability comparisons, and an int compares exactly, so one in range
    # converts to a float in range.
    time_of = list(map(times.__getitem__, perm))
    rest = perm[1:]
    up = list(map(parent_ids.__getitem__, rest))
    if not set(map(type, up)) <= {str}:
        up = list(map(str, up))
    up = list(map(index_of.get, up))
    probs = list(map(probs_in.__getitem__, rest))
    kinds = set(map(type, probs))
    if (
        parent_ids[perm[0]] is not None
        or time_of[0] != 0
        or None in up
        or not set(map(sub, time_of[1:], map(time_of.__getitem__, up))) <= {1}
        or not kinds <= {float}
        and (bool in kinds or not all(map(issubclass, kinds, repeat((int, float)))))
        or not (all(map((0.0).__lt__, probs)) and all(map((1.0).__ge__, probs)))
        or time_of[-1] > horizon
    ):
        parent_of = map(parent_ids.__getitem__, perm)
        _link_fault(horizon, order, time_of, index_of, parent_of, map(probs_in.__getitem__, perm))
    if not kinds <= {float}:
        probs = list(map(float, probs))
    return order, time_of, [None, *up], [1.0, *probs]


def _input_fault(raw_nodes: Sequence) -> None:
    """Raise the first fault of the nodes' own fields, in input order."""
    seen = set()
    for raw in raw_nodes:
        if not isinstance(raw, Mapping):
            raise GameSpecError("each node must be an object")
        if "id" not in raw:
            raise GameSpecError("node without 'id'")
        nid = str(raw["id"])
        if nid in seen:
            raise GameSpecError(f"duplicate node id {nid}")
        checked_int(raw.get("time"), f"time of node {nid}")
        seen.add(nid)


def _link_fault(
    horizon: int, order: list, time_of: list, index_of: dict, parents: Iterable, probs: Iterable
) -> None:
    """Raise the first fault of the nodes' links to their parents, in
    canonical order: per node, the root's time or the parent, the time
    step, the probability's type and range, then the time's range."""
    for nid, t, parent, prob in zip(order, time_of, parents, probs):
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
        if not 0 <= t <= horizon:
            raise GameSpecError(f"node {nid} at time {t} outside 0..{horizon}")


def _children_fault(horizon: int, order: list, time_of: list, parents: list, edge: list) -> None:
    """Raise the first node before the horizon, in canonical order, with no
    children or with children whose probabilities do not sum to 1.  No node
    at the horizon has a child: it would be past the horizon, which the
    link checks refuse."""
    kids: list[list[int]] = [[] for _ in order]
    for i, p in enumerate(parents[1:], 1):
        kids[p].append(i)
    for nid, t, mine in zip(order, time_of, kids):
        if t < horizon:
            if not mine:
                raise GameSpecError(f"leaf before horizon: node {nid} at time {t} < {horizon}")
            total = left_sum(map(edge.__getitem__, mine))
            if abs(total - 1.0) > PROB_TOL:
                raise GameSpecError(f"probabilities sum to {total:g} at {nid}")


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
