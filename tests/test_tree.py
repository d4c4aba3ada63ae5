"""Event-tree construction, conditional expectation, and hitting times."""

from __future__ import annotations

import json
import random

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import (
    canonical_stopping_time,
    chain_tree,
    child_sum,
    conditional_expectation,
    diagonal,
    path_expectation,
    reference_tree,
    stopping_time_from_realized,
    three_node_tree,
)


class TestBuildTree:
    def test_single_node_horizon_zero(self):
        tree = sg.build_tree({"horizon": 0, "nodes": [{"id": "r", "time": 0}]})
        assert tree.n_nodes == 1
        assert tree.horizon == 0
        assert tree.leaves == (0,)
        assert tree.leaf_probs == (1.0,)

    def test_three_node_tree(self):
        tree = three_node_tree()
        assert tree.n_nodes == 3
        assert [n.id for n in tree.nodes] == ["r", "a", "b"]
        assert tree.nodes[0].children == (1, 2)
        assert tree.leaf_probs == (0.5, 0.5)

    def test_canonical_order_by_time_then_id(self):
        tree = sg.build_tree(
            {
                "horizon": 1,
                "nodes": [
                    {"id": "z", "time": 1, "parent": "m", "prob": 0.4},
                    {"id": "m", "time": 0},
                    {"id": "a", "time": 1, "parent": "m", "prob": 0.6},
                ],
            }
        )
        assert [n.id for n in tree.nodes] == ["m", "a", "z"]

    def test_probability_sum_violation(self):
        with pytest.raises(sg.GameSpecError, match=r"sum to 1\.2 at root"):
            sg.build_tree(
                {
                    "horizon": 1,
                    "nodes": [
                        {"id": "root", "time": 0},
                        {"id": "n1", "time": 1, "parent": "root", "prob": 0.6},
                        {"id": "n2", "time": 1, "parent": "root", "prob": 0.6},
                    ],
                }
            )

    def test_orphan_node(self):
        with pytest.raises(sg.GameSpecError, match="orphan"):
            sg.build_tree(
                {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0},
                        {"id": "a", "time": 1, "parent": "ghost", "prob": 1.0},
                    ],
                }
            )

    def test_time_inconsistency(self):
        with pytest.raises(sg.GameSpecError, match="time inconsistency"):
            sg.build_tree(
                {
                    "horizon": 2,
                    "nodes": [
                        {"id": "r", "time": 0},
                        {"id": "a", "time": 2, "parent": "r", "prob": 1.0},
                    ],
                }
            )

    def test_leaf_before_horizon(self):
        with pytest.raises(sg.GameSpecError, match="leaf before horizon"):
            sg.build_tree({"horizon": 1, "nodes": [{"id": "r", "time": 0}]})

    def test_duplicate_id(self):
        with pytest.raises(sg.GameSpecError, match="duplicate"):
            sg.build_tree(
                {
                    "horizon": 0,
                    "nodes": [{"id": "r", "time": 0}, {"id": "r", "time": 0}],
                }
            )

    def test_two_roots(self):
        with pytest.raises(sg.GameSpecError, match="exactly one root"):
            sg.build_tree(
                {
                    "horizon": 0,
                    "nodes": [{"id": "r", "time": 0}, {"id": "s", "time": 0}],
                }
            )

    def test_integer_prob_too_large_for_a_float(self):
        with pytest.raises(sg.GameSpecError, match="outside"):
            sg.build_tree(
                {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0},
                        {"id": "a", "time": 1, "parent": "r", "prob": 10**400},
                    ],
                }
            )

    def test_leaf_probabilities_sum_to_one(self):
        for seed in range(5):
            tree = gamefile.generate_random_game(3, 3, seed=seed).tree
            assert sum(tree.leaf_probs) == approx(1.0, abs=1e-12)


def _shuffled_gen_specs():
    """30 `gen` trees read back from their files, each with its node list
    shuffled; level ids such as ``5:10`` < ``5:2`` sort as strings."""
    for seed in range(30):
        horizon, branching = seed % 6, 1 + (seed // 6) % 3
        raw = json.loads(gamefile.emit(gamefile.generate_random_game(horizon, branching, seed)))
        random.Random(seed).shuffle(raw["nodes"])
        yield {"horizon": raw["horizon"], "nodes": raw["nodes"]}


def _spec(horizon, *nodes):
    """A tree spec from (id, time, parent, prob) rows; parent None is a root."""
    rows = []
    for nid, t, parent, prob in nodes:
        row = {"id": nid, "time": t}
        if parent is not None:
            row.update(parent=parent, prob=prob)
        rows.append(row)
    return {"horizon": horizon, "nodes": rows}


class TestBuildTreeFields:
    def test_every_field_matches_a_reference_built_from_the_spec(self):
        for spec in _shuffled_gen_specs():
            tree = sg.build_tree(spec)
            ref = reference_tree(spec)
            nodes = tuple(
                (n.index, n.id, n.time, n.parent, n.edge_prob, n.children, n.child_probs)
                for n in tree.nodes
            )
            assert nodes == ref["nodes"]
            for name in (
                "levels", "level_start", "node_prob", "leaf_probs", "paths", "_level_edges"
            ):
                assert getattr(tree, name) == ref[name], name
            assert tree.leaves == ref["levels"][-1]
            assert tree.by_id == {n[1]: n[0] for n in ref["nodes"]}

    def test_nodes_are_immutable(self):
        node = three_node_tree().nodes[0]
        with pytest.raises(AttributeError):
            node.parent = 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            # The input-order loop: the first faulty node in input order.
            (
                {"horizon": 0, "nodes": [{"id": "a", "time": "0"}, {"id": "a", "time": 0}]},
                "time of node a must be an integer",
            ),
            (
                {"horizon": 0, "nodes": [{"id": "a", "time": 0}, {"id": "a", "time": "0"}]},
                "duplicate node id a",
            ),
            # The whole input-order loop before the root count.
            (
                {
                    "horizon": 1,
                    "nodes": [
                        {"id": "r", "time": 0},
                        {"id": "s", "time": 0},
                        {"id": "a", "time": 1.0, "parent": "r", "prob": 1.0},
                    ],
                },
                "time of node a must be an integer",
            ),
            # The root count before the canonical-order checks.
            (
                _spec(1, ("r", 0, None, 0), ("s", 0, None, 0), ("a", 1, "ghost", 1.0)),
                "expected exactly one root node, found 2",
            ),
            # Canonical order, not input order: `a` precedes `b`.
            (
                _spec(1, ("b", 1, "ghost", 1.0), ("a", 1, "r", 2.0), ("r", 0, None, 0)),
                "transition probability 2 at node a outside (0, 1]",
            ),
            (
                _spec(2, ("x", 2, "ghost", 1.0), ("r", 1, None, 0)),
                "root node r has time 1, expected 0",
            ),
            # Each node's own checks in order: parent, time, prob, range.
            (
                _spec(1, ("r", 0, None, 0), ("a", 2, "r", 7.0)),
                "time inconsistency at node a: time 2, parent at 0",
            ),
            # The canonical-order checks before the child-probability sums.
            (
                _spec(1, ("r", 0, None, 0), ("a", 1, "r", 0.6), ("b", 1, "r", 0.6),
                      ("c", 2, "a", 1.0)),
                "node c at time 2 outside 0..1",
            ),
            # The sums in canonical order: the root's sum before b's leaf.
            (
                _spec(2, ("r", 0, None, 0), ("a", 1, "r", 0.6), ("b", 1, "r", 0.6),
                      ("c", 2, "a", 1.0)),
                "probabilities sum to 1.2 at r",
            ),
            (
                _spec(2, ("r", 0, None, 0), ("b", 1, "r", 0.5), ("a", 1, "r", 0.5),
                      ("c", 2, "b", 0.5)),
                "leaf before horizon: node a at time 1 < 2",
            ),
        ],
        ids=repr,
    )
    def test_first_fault_wins(self, spec, message):
        with pytest.raises(sg.GameSpecError) as info:
            sg.build_tree(spec)
        assert str(info.value) == message


class TestConditionalExpectation:
    def test_two_leaf_average(self):
        tree = three_node_tree()
        x = (0.0, 2.0, 4.0)
        assert conditional_expectation(tree, x, 1, 0)[0] == approx(3.0, abs=1e-12)

    def test_identity_at_same_level(self):
        tree = three_node_tree()
        x = (0.0, 2.0, 4.0)
        assert conditional_expectation(tree, x, 1, 1)[1] == 2.0

    def test_tower_property_against_path_sum(self):
        for seed in range(10):
            tree = gamefile.generate_random_game(3, 2, seed=seed).tree
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            x = diagonal(tree, doc.payoff_field(), 1)
            nested = conditional_expectation(
                tree, conditional_expectation(tree, x, 3, 2), 2, 0
            )
            direct = conditional_expectation(tree, x, 3, 0)
            oracle = path_expectation(tree, x, 3, 0)
            assert nested[0] == approx(direct[0], abs=1e-12)
            assert direct[0] == approx(oracle, abs=1e-12)

    def test_tower_property_all_level_pairs(self):
        doc = gamefile.generate_random_game(4, 2, seed=77)
        tree = doc.tree
        x = diagonal(tree, doc.payoff_field(), 2)
        for t in range(5):
            for s in range(t + 1):
                nested = conditional_expectation(
                    tree, conditional_expectation(tree, x, 4, t), t, s
                )
                direct = conditional_expectation(tree, x, 4, s)
                for idx in tree.levels[s]:
                    assert nested[idx] == approx(direct[idx], abs=1e-12)

    def test_constant_preservation(self):
        tree = gamefile.generate_random_game(3, 3, seed=1).tree
        x = (2.5,) * tree.n_nodes
        out = conditional_expectation(tree, x, 3, 0)
        assert out[0] == approx(2.5, abs=1e-12)


def _random_values(rng: random.Random, n: int) -> list[float]:
    """Uniform values on [-1, 1], with signed zeros mixed in."""
    return [
        rng.choice((-0.0, 0.0, rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(n)
    ]


class TestExpectNext:
    @staticmethod
    def _random_trees():
        for seed in range(30):
            horizon, branching = 1 + seed % 5, 1 + (seed // 5) % 3
            yield seed, gamefile.generate_random_game(horizon, branching, seed=seed).tree

    def test_bits_match_hand_written_child_sum(self):
        for seed, tree in self._random_trees():
            values = _random_values(random.Random(seed), tree.n_nodes)
            for t in range(tree.horizon):
                expected = [float.hex(child_sum(tree, idx, values)) for idx in tree.levels[t]]
                nxt = {idx: values[idx] for idx in tree.levels[t + 1]}
                for given in (values, nxt):
                    got = tree.expect_next(given, t)
                    assert [float.hex(x) for x in got] == expected

    def test_signed_zeros_sum_to_positive_zero(self):
        tree = three_node_tree()
        assert float.hex(tree.expect_next([0.0, -0.0, -0.0], 0)[0]) == "0x0.0p+0"

    def test_agrees_with_path_expectation(self):
        for seed, tree in self._random_trees():
            values = _random_values(random.Random(seed), tree.n_nodes)
            for t in range(tree.horizon):
                got = tree.expect_next(values, t)
                for idx, val in zip(tree.levels[t], got):
                    assert val == approx(path_expectation(tree, values, t + 1, idx), abs=1e-12)


class TestHittingTime:
    def test_flag_at_root(self):
        tree = three_node_tree()
        zero = sg.constant_stopping_time(tree, 0)
        res = sg.hitting_time(tree, lambda i: i == 0, zero)
        assert res.stop.realized(tree) == (0, 0)
        assert res.clamped == frozenset()

    def test_flag_nowhere_clamps_everywhere(self):
        tree = three_node_tree()
        zero = sg.constant_stopping_time(tree, 0)
        res = sg.hitting_time(tree, lambda i: False, zero)
        assert res.stop.realized(tree) == (1, 1)
        assert res.clamped == frozenset({0, 1})

    def test_flag_on_one_branch(self):
        tree = three_node_tree()
        zero = sg.constant_stopping_time(tree, 0)
        res = sg.hitting_time(tree, lambda i: tree.nodes[i].id == "a", zero)
        assert res.stop.realized(tree) == (1, 1)
        assert res.clamped == frozenset({1})

    def test_respects_start(self):
        tree = chain_tree(3)
        start = sg.constant_stopping_time(tree, 2)
        res = sg.hitting_time(tree, lambda i: True, start)
        assert res.stop.realized(tree) == (2,)

    def test_adapted_and_not_earlier_than_start(self):
        doc = gamefile.generate_random_game(4, 2, seed=3)
        tree = doc.tree
        start = sg.constant_stopping_time(tree, 2)
        res = sg.hitting_time(tree, lambda i: (i * 7) % 3 == 0, start)
        realized = res.stop.realized(tree)
        start_times = start.realized(tree)
        assert all(r >= s for r, s in zip(realized, start_times))
        # Adapted: rebuilding from realized times must succeed.
        rebuilt = stopping_time_from_realized(tree, realized)
        assert rebuilt.realized(tree) == realized


class TestStoppingTimeUtilities:
    def test_canonical_form_idempotent(self):
        tree = chain_tree(2)
        st = sg.StoppingTime((True, True, True))
        canonical = canonical_stopping_time(tree, st)
        assert canonical.marks == (True, False, True)
        assert canonical_stopping_time(tree, canonical) == canonical

    def test_from_realized_rejects_non_adapted(self):
        tree = three_node_tree()
        # One path stops at the root, the other at time 1: the root decision
        # would have to differ across paths through it.
        with pytest.raises(sg.GameSpecError, match="not adapted"):
            stopping_time_from_realized(tree, [0, 1])

    def test_validate_requires_horizon_stop(self):
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError, match="must stop"):
            sg.StoppingTime((True, False)).validate(tree)
