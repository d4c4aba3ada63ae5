"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import weakref

import pytest

import stopgames as sg
from stopgames import gamefile


def chain_tree(horizon: int) -> sg.EventTree:
    """Deterministic single-branch tree (one path, edge probabilities 1)."""
    nodes = [{"id": "0:0", "time": 0}]
    for t in range(1, horizon + 1):
        nodes.append({"id": f"{t}:0", "time": t, "parent": f"{t-1}:0", "prob": 1.0})
    return sg.build_tree({"horizon": horizon, "nodes": nodes})


def three_node_tree(p: float = 0.5) -> sg.EventTree:
    """Root with two leaves at time 1, probabilities (p, 1-p)."""
    return sg.build_tree(
        {
            "horizon": 1,
            "nodes": [
                {"id": "r", "time": 0},
                {"id": "a", "time": 1, "parent": "r", "prob": p},
                {"id": "b", "time": 1, "parent": "r", "prob": 1.0 - p},
            ],
        }
    )


def reference_tree(spec) -> dict:
    """Every field `build_tree` derives, straight from a valid spec: nodes
    sorted by (time, id), children by id, and each probability multiplied
    from the root down its path.  Nodes are plain field tuples."""
    horizon = spec["horizon"]
    raw = sorted(spec["nodes"], key=lambda n: (n["time"], n["id"]))
    ids = [n["id"] for n in raw]
    index = {nid: i for i, nid in enumerate(ids)}
    parent = [None if n.get("parent") is None else index[n["parent"]] for n in raw]
    edge = [1.0 if p is None else float(n["prob"]) for n, p in zip(raw, parent)]
    children = [
        tuple(sorted((c for c in range(len(raw)) if parent[c] == i), key=ids.__getitem__))
        for i in range(len(raw))
    ]
    nodes = tuple(
        (i, n["id"], n["time"], parent[i], edge[i], children[i],
         tuple(edge[c] for c in children[i]))
        for i, n in enumerate(raw)
    )
    level_start = tuple(
        sum(1 for n in raw if n["time"] < t) for t in range(horizon + 2)
    )
    levels = tuple(
        tuple(range(level_start[t], level_start[t + 1])) for t in range(horizon + 1)
    )
    node_prob = []
    for i in range(len(raw)):
        path = [i]
        while parent[path[0]] is not None:
            path.insert(0, parent[path[0]])
        prob = 1.0
        for j in path[1:]:
            prob *= edge[j]
        node_prob.append(prob)
    return {
        "nodes": nodes,
        "levels": levels,
        "level_start": level_start,
        "node_prob": tuple(node_prob),
        "leaf_probs": tuple(node_prob[i] for i in levels[horizon]),
    }


def reference_payoff_rows(obj: dict, zero_sum: bool) -> dict:
    """Every payoff row of a decoded game object, entry by entry, without
    ``gamefile``: each level's node ids sorted by (time, id), each value read
    as a float, and in a zero-sum game player 2's row the negation of player
    1's."""
    horizon = obj["horizon"]
    ids: dict[int, list[str]] = {}
    for node in sorted(obj["nodes"], key=lambda n: (n["time"], n["id"])):
        ids.setdefault(node["time"], []).append(node["id"])
    rows = {}
    for s in range(horizon + 1):
        for t in range(horizon + 1):
            level = ids[max(s, t)]
            for player in (1, 2):
                source = "1" if zero_sum else str(player)
                block = obj["payoffs"][source][f"{s},{t}"]
                row = tuple(float(block[nid]) for nid in level)
                if zero_sum and player == 2:
                    row = tuple(-v for v in row)
                rows[(player, s, t)] = row
    return rows


def payoff_blocks(doc: gamefile.GameDocument) -> dict:
    """A document's payoffs as its file's payoffs object holds them:
    {player: {(s, t): {node id: value}}}, in canonical order."""
    tree = doc.tree
    return {
        player: {
            st: {tree.nodes[idx].id: v for idx, v in zip(tree.levels[max(st)], row)}
            for st, row in zip(tree.stop_pairs, rows)
        }
        for player, rows in doc.rows.items()
    }


def map_payoffs(doc: gamefile.GameDocument, fn) -> gamefile.GameDocument:
    """`doc` with payoff k, counted in section then field order, replaced by
    fn(k, value)."""
    counter = itertools.count()
    rows = {
        player: [tuple(fn(next(counter), v) for v in row) for row in section]
        for player, section in doc.rows.items()
    }
    return doc._replace(rows=rows)


def reference_random_game(
    horizon: int,
    branching: int,
    seed: int,
    payoff_range: tuple[float, float] = (-1.0, 1.0),
    zero_sum: bool = False,
) -> dict:
    """The game object that ``gamefile.generate_random_game`` draws, built by
    per-block loops that share nothing with its row layout: nodes level by
    level with normalized edge weights (summed left to right from 0, as
    ``tree.left_sum`` does), then per player one dict of node values per
    (s, t), in row-major (s, t) and canonical node order, each value
    lo + (hi - lo) * u."""
    rng = random.Random(seed)
    nodes = [{"id": "0:0", "time": 0}]
    levels = [["0:0"]]
    for t in range(1, horizon + 1):
        below = []
        for parent in levels[-1]:
            weights = [0.1 + 0.9 * rng.random() for _ in range(branching)]
            total = 0
            for w in weights:
                total += w
            for w in weights:
                nid = f"{t}:{len(below)}"
                nodes.append({"id": nid, "time": t, "parent": parent, "prob": w / total})
                below.append(nid)
        levels.append(below)
    # Canonical order within a level sorts the ids as strings.
    levels = [sorted(ids) for ids in levels]
    lo, hi = payoff_range
    payoffs = {}
    for player in (1,) if zero_sum else (1, 2):
        payoffs[player] = {
            (s, t): {nid: lo + (hi - lo) * rng.random() for nid in levels[max(s, t)]}
            for s in range(horizon + 1)
            for t in range(horizon + 1)
        }
    return {"horizon": horizon, "nodes": nodes, "payoffs": payoffs}


def field_from_function(tree: sg.EventTree, fn) -> sg.PayoffField:
    """Build a payoff field from fn(player, s, t, node_index)."""
    T = tree.horizon
    rows = []
    for i in (1, 2):
        for s in range(T + 1):
            for t in range(T + 1):
                level = max(s, t)
                rows.append([fn(i, s, t, idx) for idx in tree.levels[level]])
    return sg.PayoffField(tree, rows)


class RewardRows:
    """Per-level reward rows for ``snell`` and ``expected_at_stop``, built
    from reward(u, node) when a level is first read; ``read`` records the
    levels read."""

    def __init__(self, tree: sg.EventTree, reward):
        self.tree = tree
        self.reward = reward
        self.read: set[int] = set()

    def __getitem__(self, u: int) -> tuple[float, ...]:
        self.read.add(u)
        return tuple(self.reward(u, idx) for idx in self.tree.levels[u])


def child_sum(tree: sg.EventTree, node: int, values) -> float:
    """E at `node` of the node-indexed `values` one level down: its children's
    products summed in id order, left to right from 0.0 (what ``sum`` does
    on Python 3.11; later versions compensate its rounding)."""
    total = 0.0
    for child, prob in zip(tree.nodes[node].children, tree.nodes[node].child_probs):
        total += prob * values[child]
    return total


def reference_snell(tree: sg.EventTree, rows, t: int, window: str, direction: str, tol: float):
    """One stopping problem by a per-node backward induction, as the
    package solved each problem before its tables were batched: the value at
    level t, the optimizer's marks and the envelope, all lists."""
    T = tree.horizon
    start = min(t + 1, T) if window == "strict" else t
    env = [0.0] * tree.n_nodes
    for idx, w in zip(tree.leaves, rows[T]):
        env[idx] = w
    marks = [False] * tree.n_nodes
    for u in range(T - 1, start - 1, -1):
        for idx, w in zip(tree.levels[u], rows[u]):
            cont = child_sum(tree, idx, env)
            s = max(w, cont) if direction == "max" else min(w, cont)
            env[idx] = s
            if abs(w - s) <= tol:
                marks[idx] = True
    for leaf in tree.leaves:
        marks[leaf] = True
    if window == "inclusive" or t == T:
        value = [env[idx] for idx in tree.levels[t]]
    else:
        value = [child_sum(tree, idx, env) for idx in tree.levels[t]]
    return value, marks, env


def reference_expected_at_stop(tree: sg.EventTree, marks, rows, t: int) -> list[float]:
    """The expected reward at the first node marked in `marks` at or after
    level t, per level-t node, by a per-node backward induction."""
    out = [0.0] * tree.n_nodes
    for idx, w in zip(tree.leaves, rows[tree.horizon]):
        if marks[idx]:
            out[idx] = w
    for u in range(tree.horizon - 1, t - 1, -1):
        for idx, w in zip(tree.levels[u], rows[u]):
            out[idx] = w if marks[idx] else child_sum(tree, idx, out)
    return [out[idx] for idx in tree.levels[t]]


def reference_reaction_value(tree, field, player: int, side: str, window: str, direction: str):
    """``reaction_value``'s process and optimizer marks, one problem per t."""
    T = tree.horizon
    process, rules = [], []
    for t in range(T + 1):
        if side == "first":
            rows = [None] * t + [field.row(player, u, t) for u in range(t, T + 1)]
        else:
            rows = [None] * t + [field.row(player, t, u) for u in range(t, T + 1)]
        value, marks, _ = reference_snell(tree, rows, t, window, direction, field.tol)
        process += value
        rules.append(tuple(marks))
    return process, rules


def reference_stop_alone_values(tree, field, player: int, stopper: int, rules) -> list[float]:
    """``stop_alone_values``'s table, one problem per t."""
    T = tree.horizon
    out = []
    for t, marks in enumerate(rules):
        if stopper == 1:
            rows = [None] * t + [field.row(player, t, u) for u in range(t, T + 1)]
        else:
            rows = [None] * t + [field.row(player, u, t) for u in range(t, T + 1)]
        out += reference_expected_at_stop(tree, marks, rows, t)
    return out


def matching_field(tree: sg.EventTree) -> sg.PayoffField:
    """One-period counterexample payoffs: player 1 wants matching stop
    times, player 2 wants a mismatch."""
    return field_from_function(
        tree, lambda i, s, t, n: (1.0 if s == t else 0.0) * (1.0 if i == 1 else -1.0)
    )


_LEAF_PATHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def leaf_paths(tree: sg.EventTree) -> tuple[tuple[int, ...], ...]:
    """Per leaf in canonical order, the node indices of its path from the
    root, found by walking ``Node.parent`` up from the leaf.  Computed once
    per tree."""
    paths = _LEAF_PATHS.get(tree)
    if paths is None:
        paths = []
        for leaf in tree.leaves:
            path = [leaf]
            while tree.nodes[path[-1]].parent is not None:
                path.append(tree.nodes[path[-1]].parent)
            paths.append(tuple(reversed(path)))
        paths = _LEAF_PATHS[tree] = tuple(paths)
    return paths


def reference_first_stops(tree: sg.EventTree, marks) -> list[int]:
    """Per node, the first node marked in `marks` on its path from the root,
    the node itself included, or -1: found by walking ``Node.parent`` up
    from the node and keeping the highest mark."""
    out = []
    for node in tree.nodes:
        first = -1
        idx = node.index
        while idx is not None:
            if marks[idx]:
                first = idx
            idx = tree.nodes[idx].parent
        out.append(first)
    return out


def leaves_under(tree: sg.EventTree, node: int) -> list[int]:
    """Positions of the leaf paths through `node`, read off ``leaf_paths``."""
    t = tree.nodes[node].time
    return [pos for pos, path in enumerate(leaf_paths(tree)) if path[t] == node]


def path_expectation(tree: sg.EventTree, x, u: int, node: int) -> float:
    """Independent conditional-expectation oracle for a node-indexed process
    `x` at level u: explicit sum over the level-u descendants of `node`, with
    edge probabilities multiplied along each downward path (no backward
    recursion)."""
    t = tree.nodes[node].time
    # The downward path from `node` to each level-u descendant is unique, so
    # collecting one probability product per descendant gives the exact sum.
    weights: dict[int, float] = {}
    paths = leaf_paths(tree)
    for pos in leaves_under(tree, node):
        path = paths[pos]
        prob = 1.0
        for lev in range(t + 1, u + 1):
            prob *= tree.nodes[path[lev]].edge_prob
        weights[path[u]] = prob
    return sum(p * x[m] for m, p in weights.items())


def path_stop_expectation(tree: sg.EventTree, marks, reward, node: int) -> float:
    """Independent lone-stopper oracle: the reward at the first node marked
    in `marks` at or after `node`, summed over the leaf paths through `node`
    with edge probabilities multiplied along each path (no backward
    recursion)."""
    t = tree.nodes[node].time
    total = 0.0
    paths = leaf_paths(tree)
    for pos in leaves_under(tree, node):
        path = paths[pos]
        prob = 1.0
        for lev in range(t + 1, tree.horizon + 1):
            prob *= tree.nodes[path[lev]].edge_prob
        total += prob * reward(next(idx for idx in path[t:] if marks[idx]))
    return total


def conditional_expectation(tree: sg.EventTree, x, u: int, t: int) -> list[float]:
    """E_t[X_u] for t <= u, by ``tree.expect_next``: a copy of the
    node-indexed process `x` whose levels t..u-1 hold E_lev[X_u]."""
    vals = list(x)
    for lev in range(u - 1, t - 1, -1):
        vals[tree.level_start[lev] : tree.level_start[lev + 1]] = tree.expect_next(vals, lev)
    return vals


def diagonal(tree: sg.EventTree, field: sg.PayoffField, player: int) -> tuple[float, ...]:
    """The player's same-time payoff U(t, t) at every node of its level t."""
    return tuple(
        field.value(player, t, t, idx) for t, level in enumerate(tree.levels) for idx in level
    )


def brute_force_dynkin(tree: sg.EventTree, f, g):
    """Exhaustive maximin/minimax over all stopping-time pairs of the
    first-stop payoff: f at the first player's stop when not later, else g
    at the second player's."""
    sts = sg.enumerate_stopping_times(tree)
    realized = [st.realized(tree) for st in sts]
    paths = leaf_paths(tree)

    def payoff(ri: int, ti: int) -> float:
        total = 0.0
        for pos, prob in enumerate(tree.leaf_probs):
            r = realized[ri][pos]
            t = realized[ti][pos]
            if r <= t:
                total += prob * f[paths[pos][r]]
            else:
                total += prob * g[paths[pos][t]]
        return total

    table = [[payoff(i, j) for j in range(len(sts))] for i in range(len(sts))]
    maximin = max(min(row) for row in table)
    minimax = min(max(table[i][j] for i in range(len(sts))) for j in range(len(sts)))
    return maximin, minimax


def stopped_submartingale_ok(
    tree: sg.EventTree,
    v,
    stop: sg.StoppingTime,
    tol: float = 1e-9,
) -> bool:
    """Check E_t[v_{(t+1) stopped}] >= v_{t stopped} at every internal node,
    where the process freezes at the stop rule's first stop."""
    frozen = [0.0] * tree.n_nodes
    halted = [False] * tree.n_nodes
    for node in tree.nodes:
        idx = node.index
        parent_halted = node.parent is not None and halted[node.parent]
        if parent_halted:
            frozen[idx] = frozen[node.parent]
            halted[idx] = True
        elif stop.marks[idx]:
            frozen[idx] = v[idx]
            halted[idx] = True
        else:
            frozen[idx] = v[idx]
    for node in tree.nodes:
        if not node.children:
            continue
        cont = sum(p * frozen[c] for c, p in zip(node.children, node.child_probs))
        if cont < frozen[node.index] - tol:
            return False
    return True


def effective_times_sim(
    tree: sg.EventTree, rho: sg.Strategy, tau: sg.Strategy, leaf_pos: int
) -> tuple[int, int]:
    """Realized stop-time pair on one path when both players move each stage.

    The earlier initial stopper fixes her time; the other switches to her
    adjustment rule for that time.  On ties both stop at the common time.
    """
    s0 = rho.initial.realized(tree)[leaf_pos]
    t0 = tau.initial.realized(tree)[leaf_pos]
    if s0 < t0:
        return s0, tau.adjust.rules[s0].realized(tree)[leaf_pos]
    if s0 > t0:
        return rho.adjust.rules[t0].realized(tree)[leaf_pos], t0
    return s0, s0


def effective_times_seq(
    tree: sg.EventTree, rho: sg.Strategy, tau: sg.Strategy, leaf_pos: int
) -> tuple[int, int]:
    """Realized stop-time pair when player 1 acts first at each stage.

    On ties player 1's stop stands and player 2 responds with her adjustment
    rule, which may stop at the same time.
    """
    s0 = rho.initial.realized(tree)[leaf_pos]
    t0 = tau.initial.realized(tree)[leaf_pos]
    if s0 <= t0:
        return s0, tau.adjust.rules[s0].realized(tree)[leaf_pos]
    return rho.adjust.rules[t0].realized(tree)[leaf_pos], t0


def stopping_time_from_realized(tree: sg.EventTree, realized) -> sg.StoppingTime:
    """Reconstruct a stopping time from per-path realized times.

    Fails when the realized times are not adapted, i.e. when two paths
    through the same node disagree on whether to stop there.
    """
    marks = [False] * tree.n_nodes
    for leaf in tree.leaves:
        marks[leaf] = True
    for pos, path in enumerate(leaf_paths(tree)):
        marks[path[realized[pos]]] = True
    st = sg.StoppingTime(tuple(marks))
    if tree.realized_times(st.marks) != tuple(realized):
        raise sg.GameSpecError("realized times are not adapted to the tree")
    return st


def canonical_stopping_time(tree: sg.EventTree, st: sg.StoppingTime) -> sg.StoppingTime:
    """Normal form: stop exactly at each path's first stop, plus the horizon."""
    return stopping_time_from_realized(tree, st.realized(tree))


def as_mixed(strategy: sg.Strategy) -> sg.Strategy:
    """Embed a pure strategy as a degenerate mixed one."""
    probs = tuple(1.0 if m else 0.0 for m in strategy.initial.marks)
    return sg.Strategy(sg.RandomizedStoppingTime(probs), strategy.adjust)


def canonical_signature(tree: sg.EventTree, strategy: sg.Strategy) -> tuple:
    """Hashable normal form identifying extensionally equal strategies."""
    if strategy.mixed:
        head: tuple = strategy.initial.probs
    else:
        head = canonical_stopping_time(tree, strategy.initial).marks
    return (head,) + tuple(
        canonical_stopping_time(tree, rule).marks for rule in strategy.adjust.rules
    )


@pytest.fixture(scope="session")
def matching_doc() -> gamefile.GameDocument:
    return gamefile.load_bundled("matching_times")


@pytest.fixture(scope="session")
def matching_tree(matching_doc) -> sg.EventTree:
    return matching_doc.tree


@pytest.fixture(scope="session")
def matching_payoffs(matching_doc) -> sg.PayoffField:
    return matching_doc.payoff_field()
