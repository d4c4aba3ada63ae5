"""The one-sweep reaction and lone-stopper tables against per-problem
reference loops, and the first-stop pass and pure payoffs against path
walks, bit for bit, on random irregular trees."""

from __future__ import annotations

import random
from itertools import product
from math import isinf

import pytest

import stopgames as sg
from stopgames import gamefile
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


def random_rows(tree: sg.EventTree, rng: random.Random, draw, players: int = 2) -> list:
    """Payoff rows in field order for `players` players, each value drawn."""
    return [
        [draw(rng) for _ in tree.levels[max(s, t)]]
        for _player in range(players)
        for s, t in tree.stop_pairs
    ]


def random_field(tree: sg.EventTree, rng: random.Random, draw) -> sg.PayoffField:
    return sg.PayoffField(tree, random_rows(tree, rng, draw))


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
    # One problem at a time, each arbitrary rule from every level, where an
    # unmarked leaf collects 0.0.
    T = tree.horizon
    for rule, t in product(arbitrary, range(T + 1)):
        rows = [None] * t + [field.row(1, t, u) for u in range(t, T + 1)]
        got = expected_at_stop(tree, rule, rows, t)
        assert _hex(got) == _hex(reference_expected_at_stop(tree, rule.marks, rows, t)), t
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


@pytest.mark.parametrize("draw", DRAWS)
def test_values_only_tables_match_family_sweeps(draw):
    rng = random.Random(f"values-only-{draw}")
    for _ in range(60):
        tree = random_tree(rng)
        rows = random_rows(tree, rng, DRAWS[draw])
        swept = sg.PayoffField(tree, rows)
        values_only = sg.PayoffField(tree, rows)
        for variant in VARIANTS:
            got = sg.reaction_value(values_only, *variant, family=False)
            assert got.family is None
            assert _hex(got.process) == _hex(sg.reaction_value(swept, *variant).process)


def _mirror_key(player: int, side: str, window: str, direction: str) -> tuple:
    return (3 - player, side, window, "min" if direction == "max" else "max")


def check_mirrors(tree: sg.EventTree, rows1: list) -> int:
    """Check each reaction table of the zero-sum field of `rows1`, taken
    from its mirror, against a direct sweep on a fresh field: the same
    values by ``float.hex`` and an equal family, with or without families.
    Returns how many tables plain negation of the mirror's values would get
    wrong."""
    negation_misses = 0
    for variant in VARIANTS:
        field = sg.PayoffField.zero_sum(tree, rows1)
        source = sg.reaction_value(field, *_mirror_key(*variant))
        got = sg.reaction_value(field, *variant)
        assert got.family is source.family, variant
        direct = sg.reaction_value(sg.PayoffField.zero_sum(tree, rows1), *variant)
        assert _hex(got.process) == _hex(direct.process), variant
        assert got.family == direct.family, variant
        field = sg.PayoffField.zero_sum(tree, rows1)
        sg.reaction_value(field, *_mirror_key(*variant), family=False)
        values = sg.reaction_value(field, *variant, family=False)
        assert values.family is None
        assert _hex(values.process) == _hex(direct.process), variant
        negation_misses += _hex([-p for p in source.process]) != _hex(direct.process)
    return negation_misses


#: Zero-sum payoffs with many exact ties and both zeros, so that whether a
#: table value is a reward or a continuation sum shows in its zero's sign.
TIE_HEAVY = lambda rng: rng.choice((-1.0, -0.0, 0.0, 0.25, 1.0))


def test_mirrored_tables_match_direct_sweeps_on_irregular_trees():
    rng = random.Random("mirror-irregular")
    negation_misses = 0
    for _ in range(150):
        tree = random_tree(rng)
        negation_misses += check_mirrors(tree, random_rows(tree, rng, TIE_HEAVY, players=1))
    for _ in range(40):
        tree = random_tree(rng)
        check_mirrors(tree, random_rows(tree, rng, DRAWS["uniform"], players=1))
    # Sums that overflow to +-inf, and inf - inf = NaN.
    for _ in range(20):
        tree = random_tree(rng, nudge=1.0 + 4e-13)
        draw = lambda rng: rng.choice((HUGE, -HUGE, HUGE / 2, -0.0))
        check_mirrors(tree, random_rows(tree, rng, draw, players=1))
    # The corpus tells the zero-sign rule from plain negation.
    assert negation_misses > 0


def test_mirrored_tables_match_direct_sweeps_on_gen_shapes():
    rng = random.Random("mirror-gen")
    negation_misses = 0
    for horizon, branching in product(range(5), (1, 2, 3)):
        if branching ** horizon > 30:
            continue
        doc = gamefile.generate_random_game(horizon, branching, seed=horizon, zero_sum=True)
        check_mirrors(doc.tree, list(doc.rows[1]))
        for _ in range(4):
            rows1 = random_rows(doc.tree, rng, TIE_HEAVY, players=1)
            negation_misses += check_mirrors(doc.tree, rows1)
    assert negation_misses > 0


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
