"""The one-sweep reaction and lone-stopper tables against per-problem
reference loops, bit for bit, on random irregular trees."""

from __future__ import annotations

import random
from itertools import product
from math import isinf, isnan

import pytest

import stopgames as sg
from stopgames.strategies import expected_at_stop, stop_alone_values

from conftest import (
    reference_expected_at_stop,
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


def random_tree(rng: random.Random, nudge: float = 1.0) -> sg.EventTree:
    """Horizon 0-5, 1-3 children per node, so that a level mixes child
    counts; edge weights from 1e-6 to 1 and node ids in random order.  Each
    probability is scaled by `nudge`, which the tree check allows within
    1e-12."""
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
    return sg.build_tree({"horizon": horizon, "nodes": nodes})


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
