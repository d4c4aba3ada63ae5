"""Event-tree construction, conditional expectation, and hitting times."""

from __future__ import annotations

import json
import random
import tracemalloc
from types import MappingProxyType

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile
from stopgames import tree as tree_module
from stopgames.tree import Node

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
from test_tables import random_spec, random_tree


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


def _assert_same_tree(got, want):
    assert tuple(map(tuple, got.nodes)) == tuple(map(tuple, want.nodes))
    for name in ("horizon", "levels", "level_start", "node_prob", "leaf_probs", "by_id"):
        assert getattr(got, name) == getattr(want, name), name


def _refuse_fault_walks(monkeypatch):
    """Make each of `build_tree`'s per-node fault walks fail the test."""

    def refuse(*args):
        raise AssertionError("a valid spec entered a per-node fault walk")

    for name in ("_input_fault", "_link_fault", "_children_fault"):
        monkeypatch.setattr(tree_module, name, refuse)


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
            for name in ("levels", "level_start", "node_prob", "leaf_probs"):
                assert getattr(tree, name) == ref[name], name
            assert tree.leaves == ref["levels"][-1]
            assert tree.by_id == {n[1]: n[0] for n in ref["nodes"]}

    def test_shuffled_irregular_specs_match_the_reference(self, monkeypatch):
        # 1-3 children per node, so each level mixes child counts; every
        # spec is valid, so none reaches a per-node fault walk.
        _refuse_fault_walks(monkeypatch)
        rng = random.Random(11)
        for _ in range(60):
            spec = random_spec(rng)
            rng.shuffle(spec["nodes"])
            tree = sg.build_tree(spec)
            ref = reference_tree(spec)
            assert tuple(map(tuple, tree.nodes)) == ref["nodes"]
            assert all(type(node) is Node for node in tree.nodes)
            for name in ("levels", "level_start", "node_prob", "leaf_probs"):
                assert getattr(tree, name) == ref[name], name
            assert tree.by_id == {n[1]: n[0] for n in ref["nodes"]}

    def test_valid_specs_never_enter_a_fault_walk(self, monkeypatch):
        _refuse_fault_walks(monkeypatch)
        for spec in _shuffled_gen_specs():
            sg.build_tree(spec)
        sg.build_tree({"horizon": 0, "nodes": [{"id": "r", "time": 0}]})
        chain_tree(50)
        three_node_tree()

    def test_int_ids_and_parents_read_as_str_writes_them(self):
        # Ids such as 10 and 9 sort as their text, "10" < "9".
        rng = random.Random(23)
        for _ in range(30):
            spec = random_spec(rng)
            rng.shuffle(spec["nodes"])
            # Ids "n123" become 123 or "123".
            spelled = [
                {
                    "horizon": spec["horizon"],
                    "nodes": [
                        {k: word(v[1:]) if k in ("id", "parent") else v for k, v in node.items()}
                        for node in spec["nodes"]
                    ],
                }
                for word in (int, str)
            ]
            as_ints, as_strs = map(sg.build_tree, spelled)
            _assert_same_tree(as_ints, as_strs)
            assert all(type(node.id) is str for node in as_ints.nodes)

    def test_mapping_nodes_build_the_tree_of_dicts(self):
        rng = random.Random(29)
        for _ in range(30):
            spec = random_spec(rng)
            rng.shuffle(spec["nodes"])
            proxies = [MappingProxyType(node) for node in spec["nodes"]]
            mixed = [MappingProxyType(n) if k % 2 else n for k, n in enumerate(spec["nodes"])]
            for nodes in (proxies, mixed):
                got = sg.build_tree({"horizon": spec["horizon"], "nodes": nodes})
                _assert_same_tree(got, sg.build_tree(spec))

    def test_a_tree_keeps_linear_state(self):
        # A 3,000-node chain: state quadratic in the depth, such as a root
        # path per leaf, would take tens of MB here.
        nodes = [{"id": "0", "time": 0}]
        nodes += [
            {"id": str(t), "time": t, "parent": str(t - 1), "prob": 1.0} for t in range(1, 3000)
        ]
        spec = {"horizon": 2999, "nodes": nodes}
        tracemalloc.start()
        try:
            sg.build_tree(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

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
            # Each fault function on a spec that a later stage would also
            # refuse.  Input order: a non-object before an orphan.
            (
                {
                    "horizon": 1,
                    "nodes": [
                        MappingProxyType({"id": "r", "time": 0}),
                        ["a"],
                        {"id": "b", "time": 1, "parent": "ghost", "prob": 1.0},
                    ],
                },
                "each node must be an object",
            ),
            # Ids read as `str` writes them: 1 and "1", None and "None" clash.
            (
                {"horizon": 0, "nodes": [{"id": 1, "time": 0}, {"id": "1", "time": 0}]},
                "duplicate node id 1",
            ),
            (
                {"horizon": 0, "nodes": [{"id": None, "time": 0}, {"id": "None", "time": 0}]},
                "duplicate node id None",
            ),
            (
                {"horizon": 1, "nodes": [{"time": 0}, {"id": "r", "time": 0, "parent": "r"}]},
                "node without 'id'",
            ),
            # Canonical order: an int parent that names no node, before a
            # time out of range and a leaf before the horizon.
            (
                {
                    "horizon": 2,
                    "nodes": [
                        MappingProxyType(row)
                        for row in _spec(2, ("r", 0, None, 0), ("a", 1, 7, 1.0),
                                         ("b", 3, "a", 1.0))["nodes"]
                    ],
                },
                "orphan node a: unknown parent 7",
            ),
            (
                _spec(1, ("r", 0, None, 0), ("a", 1, "r", 10**400), ("b", 1, "r", 2.0)),
                "transition probability at node a outside (0, 1]",
            ),
            # The children in canonical order: a sum at int-named node 1
            # before the leaf at node 2.
            (
                _spec(2, (0, 0, None, 0), (2, 1, 0, 0.5), (1, 1, 0, 0.5), (3, 2, 1, 0.5)),
                "probabilities sum to 0.5 at 1",
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

    def test_a_pair_has_the_bits_of_two_single_calls(self):
        rng = random.Random(5)
        for _ in range(40):
            tree = random_tree(rng)
            x = _random_values(rng, tree.n_nodes)
            y = _random_values(rng, tree.n_nodes)
            for t in range(tree.horizon):
                pair = tree.expect_next_pair(x, y, t)
                singles = (tree.expect_next(x, t), tree.expect_next(y, t))
                assert [list(map(float.hex, v)) for v in pair] == [
                    list(map(float.hex, v)) for v in singles
                ]

    def test_a_batch_of_any_count_has_the_bits_of_single_calls(self):
        # Counts in random order, so a call may read the first blocks of a
        # gather built for more processes.
        rng = random.Random(8)
        for _ in range(30):
            tree = random_tree(rng)
            for t in range(tree.horizon):
                counts = list(range(1, t + 3))
                rng.shuffle(counts)
                for count in counts:
                    procs = [_random_values(rng, tree.n_nodes) for _ in range(count)]
                    flat = [x[i] for x in procs for i in tree.levels[t + 1]]
                    got = tree.expect_batch(flat, t, count)
                    want = [v for x in procs for v in tree.expect_next(x, t)]
                    assert list(map(float.hex, got)) == list(map(float.hex, want))

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

    def test_start_must_cover_the_tree(self):
        tree = three_node_tree()
        with pytest.raises(sg.GameSpecError, match="do not cover the tree"):
            sg.hitting_time(tree, lambda i: True, sg.StoppingTime((True,)))
        zeros = [0.0] * tree.n_nodes
        with pytest.raises(sg.GameSpecError, match="do not cover the tree"):
            sg.dynkin_hitting_saddle(tree, zeros, zeros, zeros, sg.StoppingTime((True,)), 1e-9)

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
