"""The one-sweep reaction and lone-stopper tables against per-problem
reference loops, and the first-stop pass and pure payoffs against path
walks, bit for bit, on random irregular trees."""

from __future__ import annotations

import random
from itertools import product
from math import isinf, isnan

import pytest

import stopgames as sg
from stopgames.strategies import adjustment_floor, expected_at_stop, stop_alone_values

from conftest import (
    effective_times_seq,
    effective_times_sim,
    leaf_paths,
    reference_expected_at_stop,
    reference_first_stops,
    reference_reaction_value,
    reference_snell,
    reference_stop_alone_values,
)

VARIANTS = list(product((1, 2), ("first", "second"), ("inclusive", "strict"), ("max", "min")))
HUGE = 1.7976931348623157e308

#: Payoff draws: values of both signs, exact ties, and signed zeros.
DRAWS = {
    "uniform": lambda rng: rng.uniform(-1.0, 1.0),
    "ternary": lambda rng: rng.choice((-1.0, 0.0, 1.0)),
    "signed-zeros": lambda rng: rng.choice((0.0, -0.0, 0.25, 1.0, -3.0)),
}


def random_spec(rng: random.Random, nudge: float = 1.0) -> dict:
    """A tree spec of horizon 0-5, 1-3 children per node, so that a level
    mixes child counts; edge weights from 1e-6 to 1 and node ids in random
    order.  Each probability is scaled by `nudge`, which the tree check
    allows within 1e-12."""
    horizon = rng.randint(0, 5)
    ids = iter(rng.sample(range(10**6), 400))
    root = f"n{next(ids)}"
    nodes = [{"id": root, "time": 0}]
    level = [root]
    for t in range(1, horizon + 1):
        below = []
        for parent in level:
            kids = rng.choice((1, 2, 3)) if len(level) < 30 else 1
            weights = [10 ** rng.uniform(-6, 0) for _ in range(kids)]
            total = sum(weights)
            for weight in weights:
                nid = f"n{next(ids)}"
                prob = min(1.0, weight / total * nudge)
                nodes.append({"id": nid, "time": t, "parent": parent, "prob": prob})
                below.append(nid)
        level = below
    return {"horizon": horizon, "nodes": nodes}


def random_tree(rng: random.Random, nudge: float = 1.0) -> sg.EventTree:
    """The tree of a ``random_spec``."""
    return sg.build_tree(random_spec(rng, nudge))


def random_field(tree: sg.EventTree, rng: random.Random, draw) -> sg.PayoffField:
    rows = [
        [draw(rng) for _ in tree.levels[max(s, t)]]
        for _player in (1, 2)
        for s, t in tree.stop_pairs
    ]
    return sg.PayoffField(tree, rows)


def _hex(values) -> list[str]:
    return [float.hex(v) for v in values]


def check_tables(tree: sg.EventTree, field: sg.PayoffField, rng: random.Random) -> None:
    families = []
    for variant in VARIANTS:
        got = sg.reaction_value(field, *variant)
        process, rules = reference_reaction_value(tree, field, *variant)
        assert _hex(got.process) == _hex(process), variant
        assert [rule.marks for rule in got.family.rules] == rules, variant
        families.append(got.family)
    arbitrary = tuple(
        sg.StoppingTime(tuple(rng.random() < 0.4 for _ in range(tree.n_nodes)))
        for _ in range(tree.horizon + 1)
    )
    families.append(sg.AdjustmentFamily(arbitrary, strict=False))
    for family in (families[0], families[5], families[-1]):
        marks = [rule.marks for rule in family.rules]
        for player, stopper in product((1, 2), (1, 2)):
            got = stop_alone_values(field, player, stopper, family)
            want = reference_stop_alone_values(tree, field, player, stopper, marks)
            assert _hex(got) == _hex(want), (player, stopper)


def check_one_problem_runs(tree: sg.EventTree, field: sg.PayoffField) -> None:
    T = tree.horizon
    for t, window, direction in product(range(T + 1), ("inclusive", "strict"), ("max", "min")):
        rows = [field.row(2, t, u) for u in range(T + 1)]
        got = sg.snell(tree, rows, t, window, direction, field.tol)
        value, marks, env = reference_snell(tree, rows, t, window, direction, field.tol)
        assert _hex(got.value) == _hex(value)
        assert got.optimizer.marks == tuple(marks)
        assert _hex(got.envelope) == _hex(env)
        rule = got.optimizer
        assert _hex(expected_at_stop(tree, rule, rows, t)) == _hex(
            reference_expected_at_stop(tree, rule.marks, rows, t)
        )


@pytest.mark.parametrize("draw", DRAWS)
def test_tables_match_per_problem_loops(draw):
    rng = random.Random(f"tables-{draw}")
    for _ in range(100):
        tree = random_tree(rng)
        field = random_field(tree, rng, DRAWS[draw])
        check_tables(tree, field, rng)
        check_one_problem_runs(tree, field)


def test_tables_match_where_sums_overflow():
    # Payoffs near the largest float and probabilities that sum to just
    # above 1 send some continuation values to +-inf, including on levels
    # whose nodes have different child counts.
    rng = random.Random("tables-overflow")
    draw = lambda rng: rng.choice((HUGE, -HUGE, HUGE / 2, -0.0))
    mixed_with_inf = 0
    for _ in range(60):
        tree = random_tree(rng, nudge=1.0 + 4e-13)
        field = random_field(tree, rng, draw)
        check_tables(tree, field, rng)
        for direction in ("max", "min"):
            rows = [field.row(1, u, 0) for u in range(tree.horizon + 1)]
            _, _, env = reference_snell(tree, rows, 0, "inclusive", direction, field.tol)
            for u in range(tree.horizon):
                counts = {len(tree.nodes[idx].children) for idx in tree.levels[u]}
                if len(counts) > 1 and any(isinf(env[c]) for c in tree.levels[u + 1]):
                    mixed_with_inf += 1
    assert mixed_with_inf > 0


@pytest.mark.parametrize("window", ["inclusive", "strict"])
def test_batched_nan_names_the_node_the_first_problem_names(window):
    # No payoff field holds a NaN, so a NaN reward reaches the batched sweep
    # only through its rewards callable.  It names the first problem, in t
    # order, whose envelope has a NaN, and in it the first NaN node visited:
    # levels from the horizon down to the window start, each in node order.
    from stopgames.snell import _sweep

    rng = random.Random(f"nan-{window}")
    checked = 0
    for _ in range(60):
        tree = random_tree(rng)
        T = tree.horizon
        rows = {
            (u, t): tuple(
                float("nan") if rng.random() < 0.08 else rng.uniform(-1, 1)
                for _ in tree.levels[max(u, t)]
            )
            for u in range(T + 1)
            for t in range(T + 1)
        }
        expected = None
        for t in range(T + 1):
            one = [rows[u, t] if u >= t else None for u in range(T + 1)]
            _, _, env = reference_snell(tree, one, t, window, "max", 1e-9)
            start = min(t + 1, T) if window == "strict" else t
            nan = [i for lv in reversed(tree.levels[start:]) for i in lv if isnan(env[i])]
            if nan:
                expected = f"reward missing at node {tree.nodes[nan[0]].id}"
                break
        rewards = lambda u, count: [rows[u, t] for t in range(count)]
        if expected is None:
            _sweep(tree, rewards, tuple(range(T + 1)), window == "strict", True, 1e-9)
            continue
        with pytest.raises(sg.GameSpecError) as exc:
            _sweep(tree, rewards, tuple(range(T + 1)), window == "strict", True, 1e-9)
        assert str(exc.value) == expected
        checked += 1
    assert checked > 10


def test_first_stops_match_a_path_walk():
    # Marks that leave some leaves unmarked, so that some nodes read -1, and
    # marks that stop every path.  A leaf with no stop is the one the
    # realized-times error names, the first in leaf order.
    rng = random.Random("first-stops")
    for _ in range(150):
        tree = random_tree(rng)
        for density in (0.0, 0.2, 0.6, 1.0):
            for stop_leaves in (False, True):
                marks = [rng.random() < density for _ in range(tree.n_nodes)]
                for leaf in tree.leaves:
                    marks[leaf] = marks[leaf] or stop_leaves
                marks = tuple(marks)
                want = reference_first_stops(tree, marks)
                assert tree.first_stops(marks) == want
                leaf_stops = [want[leaf] for leaf in tree.leaves]
                if -1 in leaf_stops:
                    leaf = tree.nodes[tree.leaves[leaf_stops.index(-1)]]
                    with pytest.raises(sg.GameSpecError, match=f"through node {leaf.id}$"):
                        tree.realized_times(marks)
                else:
                    times = tuple(tree.nodes[idx].time for idx in leaf_stops)
                    assert tree.realized_times(marks) == times
        for size in (0, tree.n_nodes - 1, tree.n_nodes + 1):
            with pytest.raises(sg.GameSpecError, match="do not cover the tree"):
                tree.first_stops((True,) * size)


def _random_rule(tree: sg.EventTree, rng: random.Random, floor: int) -> sg.StoppingTime:
    marks = [tree.nodes[idx].time >= floor and rng.random() < 0.3 for idx in range(tree.n_nodes)]
    for leaf in tree.leaves:
        marks[leaf] = True
    return sg.StoppingTime(tuple(marks))


def _random_strategy(tree: sg.EventTree, rng: random.Random, strict: bool) -> sg.Strategy:
    T = tree.horizon
    rules = tuple(
        _random_rule(tree, rng, adjustment_floor(T, t, strict)) for t in range(T + 1)
    )
    return sg.Strategy(_random_rule(tree, rng, 0), sg.AdjustmentFamily(rules, strict))


@pytest.mark.parametrize(
    "mode, effective_times", [("sim", effective_times_sim), ("seq", effective_times_seq)]
)
def test_pure_payoffs_match_a_path_sum(mode, effective_times):
    # Each path pays at its node of level max(s, t), for the stop times the
    # profile realizes there.
    rng = random.Random(f"payoff-pure-{mode}")
    for _ in range(120):
        tree = random_tree(rng)
        field = random_field(tree, rng, DRAWS["signed-zeros"])
        paths = leaf_paths(tree)
        for _ in range(3):
            rho = _random_strategy(tree, rng, True)
            tau = _random_strategy(tree, rng, mode == "sim")
            u1 = u2 = 0.0
            for pos, prob in enumerate(tree.leaf_probs):
                s, t = effective_times(tree, rho, tau, pos)
                node = paths[pos][max(s, t)]
                u1 += prob * field.value(1, s, t, node)
                u2 += prob * field.value(2, s, t, node)
            assert _hex(sg.payoff_pure(field, mode, rho, tau)) == _hex((u1, u2))
