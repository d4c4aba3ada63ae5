"""Optimal stopping: worked examples, brute-force equivalence, certificates."""

from __future__ import annotations

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import (
    RewardRows,
    field_from_function,
    leaf_paths,
    matching_field,
    three_node_tree,
)

#: The optimizer's equality tolerance: every reward here is of order 1.
TOL = 1e-9


def _reward_from_map(values: dict[int, float]):
    return lambda u, idx: values[idx]


def _brute_force(tree, reward, t, window, direction):
    """Independent oracle: optimum of E[W at stop] over every stopping time
    in the window, evaluated by direct summation over paths."""
    start = t if window == "inclusive" else min(t + 1, tree.horizon)
    best = None
    for st in sg.enumerate_stopping_times(tree, min_level=start):
        realized = st.realized(tree)
        total = 0.0
        for pos, prob in enumerate(tree.leaf_probs):
            stop_node = leaf_paths(tree)[pos][realized[pos]]
            total += prob * reward(realized[pos], stop_node)
        if best is None:
            best = total
        else:
            best = max(best, total) if direction == "max" else min(best, total)
    return best


class TestWorkedExamples:
    def test_strict_max_is_expectation_of_level_one(self):
        tree = three_node_tree()
        reward = _reward_from_map({0: 0.0, 1: 2.0, 2: 4.0})
        res = sg.snell(tree, RewardRows(tree, reward), 0, "strict", "max", TOL)
        assert res.value[0] == approx(3.0, abs=1e-12)
        assert res.optimizer.realized(tree) == (1, 1)

    def test_inclusive_max_picks_immediate_reward(self):
        tree = three_node_tree()
        reward = _reward_from_map({0: 5.0, 1: 2.0, 2: 4.0})
        res = sg.snell(tree, RewardRows(tree, reward), 0, "inclusive", "max", TOL)
        assert res.value[0] == approx(5.0, abs=1e-12)
        assert res.optimizer.realized(tree) == (0, 0)

    def test_inclusive_min_waits(self):
        tree = three_node_tree()
        reward = _reward_from_map({0: 5.0, 1: 2.0, 2: 4.0})
        res = sg.snell(tree, RewardRows(tree, reward), 0, "inclusive", "min", TOL)
        assert res.value[0] == approx(3.0, abs=1e-12)
        assert res.optimizer.realized(tree) == (1, 1)

    def test_strict_window_at_horizon_is_forced(self):
        tree = three_node_tree()
        reward = _reward_from_map({0: 5.0, 1: 2.0, 2: 4.0})
        res = sg.snell(tree, RewardRows(tree, reward), 1, "strict", "max", TOL)
        assert res.value[0] == 2.0
        assert res.value[1] == 4.0

    def test_constant_reward_stops_at_window_start(self):
        tree = three_node_tree()
        res = sg.snell(tree, RewardRows(tree, lambda u, i: 1.25), 0, "inclusive", "max", TOL)
        assert res.value[0] == 1.25
        assert res.optimizer.realized(tree) == (0, 0)
        res_strict = sg.snell(tree, RewardRows(tree, lambda u, i: 1.25), 0, "strict", "min", TOL)
        assert res_strict.optimizer.realized(tree) == (1, 1)

    @pytest.mark.parametrize("direction", ["max", "min"])
    @pytest.mark.parametrize(
        "nan_nodes, named",
        [({8, 12}, "3:1"), ({2, 9}, "3:2"), ({1, 2}, "1:0"), ({0, 14}, "3:7")],
    )
    def test_nan_reward_names_the_first_node_visited(self, direction, nan_nodes, named):
        # Leaves are visited first, then each earlier level in id order.
        tree = gamefile.generate_random_game(3, 2, seed=1).tree
        reward = lambda u, i: float("nan") if i in nan_nodes else float(i)
        with pytest.raises(sg.GameSpecError, match=f"reward missing at node {named}$"):
            sg.snell(tree, RewardRows(tree, reward), 0, "inclusive", direction, TOL)

    @pytest.mark.parametrize("direction", ["max", "min"])
    @pytest.mark.parametrize("t, nan_nodes, named", [(0, {0, 2}, "1:1"), (1, {1, 2, 4, 6}, "2:1")])
    def test_strict_window_names_a_nan_at_the_next_level(self, direction, t, nan_nodes, named):
        # The window starts at t + 1, so the NaN named is there, and one at
        # level t is not read.
        tree = gamefile.generate_random_game(3, 2, seed=1).tree
        reward = lambda u, i: float("nan") if i in nan_nodes else float(i)
        with pytest.raises(sg.GameSpecError, match=f"reward missing at node {named}$"):
            sg.snell(tree, RewardRows(tree, reward), t, "strict", direction, TOL)

    @pytest.mark.parametrize("direction", ["max", "min"])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_strict_window_never_reads_a_nan_at_or_below_its_level(self, direction, t):
        tree = gamefile.generate_random_game(3, 2, seed=1).tree
        finite = lambda u, i: float(i % 5)
        below = lambda u, i: float("nan") if u <= t else finite(u, i)
        want = sg.snell(tree, RewardRows(tree, finite), t, "strict", direction, TOL)
        got = sg.snell(tree, RewardRows(tree, below), t, "strict", direction, TOL)
        assert list(map(float.hex, got.value)) == list(map(float.hex, want.value))
        assert list(map(float.hex, got.envelope)) == list(map(float.hex, want.envelope))
        assert got.optimizer == want.optimizer


class TestRewardRows:
    @pytest.mark.parametrize("window", ["inclusive", "strict"])
    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_a_short_row_is_refused(self, t, window):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        rows[2].pop()
        with pytest.raises(sg.GameSpecError, match=r"^reward row 2 needs 4 values, got 3$"):
            sg.snell(tree, rows, t, window, "max", TOL)

    @pytest.mark.parametrize("t, window", [(0, "strict"), (1, "inclusive"), (1, "strict")])
    def test_a_row_below_the_window_start_is_not_checked(self, t, window):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        want = sg.snell(tree, rows, t, window, "max", TOL)
        rows[0] = []
        if t == 1 and window == "strict":
            rows[1] = [float("nan")]
        assert sg.snell(tree, rows, t, window, "max", TOL) == want

    @pytest.mark.parametrize("t", [-1, 3])
    def test_a_level_outside_the_tree_is_refused(self, t):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        with pytest.raises(sg.GameSpecError, match=rf"^level {t} outside 0\.\.2$"):
            sg.snell(tree, rows, t, "inclusive", "max", TOL)

    @pytest.mark.parametrize(
        "t, window, first_read",
        [
            (0, "inclusive", 0),
            (0, "strict", 1),
            (2, "inclusive", 2),
            (2, "strict", 3),
            (3, "strict", 3),
        ],
    )
    def test_reads_rows_from_the_window_start(self, t, window, first_read):
        tree = gamefile.generate_random_game(3, 2, seed=4).tree
        rows = RewardRows(tree, lambda u, i: float(i % 5))
        sg.snell(tree, rows, t, window, "max", TOL)
        assert rows.read == set(range(first_read, tree.horizon + 1))


class TestProperties:
    @pytest.mark.parametrize("window", ["inclusive", "strict"])
    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_brute_force_equivalence(self, window, direction):
        for seed in range(6):
            doc = gamefile.generate_random_game(2, 2, seed=seed)
            tree = doc.tree
            field = doc.payoff_field()
            reward = lambda u, idx: field.value(1, u, 0, idx)
            for t in range(tree.horizon + 1):
                res = sg.snell(tree, RewardRows(tree, reward), t, window, direction, TOL)
                if t == 0:
                    oracle = _brute_force(tree, reward, t, window, direction)
                    assert res.value[0] == approx(oracle, abs=1e-12)

    def test_envelope_recursion_identity(self):
        doc = gamefile.generate_random_game(3, 2, seed=9)
        tree = doc.tree
        field = doc.payoff_field()
        reward = lambda u, idx: field.value(1, u, 1, idx)
        res = sg.snell(tree, RewardRows(tree, reward), 1, "inclusive", "max", TOL)
        env = res.envelope
        for t in range(1, tree.horizon):
            for idx in tree.levels[t]:
                node = tree.nodes[idx]
                cont = sum(
                    p * env[c] for c, p in zip(node.children, node.child_probs)
                )
                assert env[idx] == approx(max(reward(t, idx), cont), abs=1e-12)

    def test_optimality_certificate(self):
        for seed in range(6):
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            tree = doc.tree
            field = doc.payoff_field()
            reward = lambda u, idx: field.value(2, 0, u, idx)
            res = sg.snell(tree, RewardRows(tree, reward), 0, "strict", "max", TOL)
            realized = res.optimizer.realized(tree)
            total = 0.0
            for pos, prob in enumerate(tree.leaf_probs):
                stop_node = leaf_paths(tree)[pos][realized[pos]]
                total += prob * reward(realized[pos], stop_node)
            assert total == approx(res.value[0], abs=1e-12)

    def test_window_monotonicity(self):
        for seed in range(6):
            doc = gamefile.generate_random_game(3, 2, seed=100 + seed)
            tree = doc.tree
            field = doc.payoff_field()
            reward = lambda u, idx: field.value(1, u, 2, idx)
            for t in range(tree.horizon + 1):
                strict = sg.snell(tree, RewardRows(tree, reward), t, "strict", "max", TOL)
                inclusive = sg.snell(tree, RewardRows(tree, reward), t, "inclusive", "max", TOL)
                for pos in range(len(tree.levels[t])):
                    assert inclusive.value[pos] >= strict.value[pos] - 1e-12
                strict_min = sg.snell(tree, RewardRows(tree, reward), t, "strict", "min", TOL)
                incl_min = sg.snell(tree, RewardRows(tree, reward), t, "inclusive", "min", TOL)
                for pos in range(len(tree.levels[t])):
                    assert incl_min.value[pos] <= strict_min.value[pos] + 1e-12

    def test_optimizer_realizes_inside_window(self):
        doc = gamefile.generate_random_game(4, 2, seed=5)
        tree = doc.tree
        field = doc.payoff_field()
        for t in range(tree.horizon + 1):
            reward = lambda u, idx: field.value(1, u, t, idx)
            strict = sg.snell(tree, RewardRows(tree, reward), t, "strict", "max", TOL)
            assert min(strict.optimizer.realized(tree)) >= min(t + 1, tree.horizon)
            inclusive = sg.snell(tree, RewardRows(tree, reward), t, "inclusive", "min", TOL)
            assert min(inclusive.optimizer.realized(tree)) >= 0


class TestReactionValue:
    def test_matching_game_reply_values(self, matching_tree, matching_payoffs):
        tree, field = matching_tree, matching_payoffs
        worst_reply = sg.reaction_value(field, 1, "second", "inclusive", "min")
        assert worst_reply.process[0] == approx(0.0, abs=1e-12)
        assert worst_reply.process[1] == approx(1.0, abs=1e-12)
        assert worst_reply.family.rules[0].realized(tree) == (1,)

        own_later = sg.reaction_value(field, 2, "second", "strict", "max")
        assert own_later.process[0] == approx(0.0, abs=1e-12)
        assert own_later.family.strict

    def test_constant_payoffs_all_levels(self):
        tree = three_node_tree()
        field = field_from_function(tree, lambda i, s, t, n: 0.75)
        for side in ("first", "second"):
            for window in ("inclusive", "strict"):
                rv = sg.reaction_value(field, 1, side, window, "max")
                assert all(v == 0.75 for v in rv.process)

    def test_family_class_matches_window(self):
        tree = three_node_tree()
        field = matching_field(tree)
        strict = sg.reaction_value(field, 1, "first", "strict", "max")
        inclusive = sg.reaction_value(field, 1, "second", "inclusive", "min")
        assert strict.family.strict
        assert not inclusive.family.strict
        strict.family.validate(tree)
        inclusive.family.validate(tree)
