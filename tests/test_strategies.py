"""Strategy classes, effective stop times, and payoff evaluation."""

from __future__ import annotations

import random
from itertools import product

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile
from stopgames.strategies import adjustment_floor, expected_at_stop, stop_alone_values

from conftest import (
    RewardRows,
    as_mixed,
    chain_tree,
    effective_times_seq,
    effective_times_sim,
    field_from_function,
    matching_field,
    path_stop_expectation,
    three_node_tree,
)


def _stop_at(tree: sg.EventTree, t: int) -> sg.StoppingTime:
    return sg.constant_stopping_time(tree, t)


def _family_a(tree: sg.EventTree) -> sg.AdjustmentFamily:
    """The unique-forced family on a one-period chain: always stop at 1."""
    rule = _stop_at(tree, min(1, tree.horizon))
    return sg.AdjustmentFamily(tuple(rule for _ in range(tree.horizon + 1)), strict=True)


def _strategy_a(tree: sg.EventTree, t0: int) -> sg.Strategy:
    return sg.Strategy(_stop_at(tree, t0), _family_a(tree))


def _strategy_b(tree: sg.EventTree, t0: int, reply0: int) -> sg.Strategy:
    rules = [_stop_at(tree, max(t, reply0) if t == 0 else t) for t in range(tree.horizon + 1)]
    return sg.Strategy(_stop_at(tree, t0), sg.AdjustmentFamily(tuple(rules), strict=False))


class TestClassInvariants:
    def test_randomized_requires_sure_stop_at_horizon(self):
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError, match="stop surely"):
            sg.RandomizedStoppingTime((0.5, 0.5)).validate(tree)

    def test_randomized_rejects_out_of_range(self):
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError, match="outside"):
            sg.RandomizedStoppingTime((1.5, 1.0)).validate(tree)

    def test_family_a_must_restart_strictly_later(self):
        tree = chain_tree(1)
        stop_now = _stop_at(tree, 0)
        with pytest.raises(sg.GameSpecError, match="stops before"):
            sg.AdjustmentFamily((stop_now, _stop_at(tree, 1)), strict=True).validate(tree)

    def test_family_b_may_restart_at_observed_time(self):
        tree = chain_tree(1)
        fam = sg.AdjustmentFamily((_stop_at(tree, 0), _stop_at(tree, 1)), strict=False)
        fam.validate(tree)

    def test_family_b_must_not_restart_earlier(self):
        tree = chain_tree(2)
        rules = (_stop_at(tree, 0), _stop_at(tree, 0), _stop_at(tree, 2))
        with pytest.raises(sg.GameSpecError, match="stops before"):
            sg.AdjustmentFamily(rules, strict=False).validate(tree)

    def test_floor_check_agrees_with_realized_times(self):
        # The floor test reads marks below the floor; it must flag exactly the
        # rules that some path's realized time puts below the floor.
        for seed in range(40):
            horizon, branching = 1 + seed % 4, 1 + (seed // 4) % 3
            doc = gamefile.generate_random_game(horizon, branching, seed=seed)
            tree, field = doc.tree, doc.payoff_field()
            rng = random.Random(seed)
            for strict in (True, False):
                window = "strict" if strict else "inclusive"
                base = sg.reaction_value(field, 1, "first", window, "max").family
                for t, rule in enumerate(base.rules):
                    # Flip about one mark in seven; horizon nodes stay marked.
                    marks = tuple(
                        n.time == horizon or m != (rng.random() < 0.15)
                        for m, n in zip(rule.marks, tree.nodes)
                    )
                    rules = list(base.rules)
                    rules[t] = sg.StoppingTime(marks)
                    family = sg.AdjustmentFamily(tuple(rules), strict)
                    floor = adjustment_floor(horizon, t, strict)
                    if min(rules[t].realized(tree)) >= floor:
                        family.validate(tree)
                        continue
                    with pytest.raises(
                        sg.GameSpecError,
                        match=f"^adjustment rule for time {t} stops before time {floor}$",
                    ):
                        family.validate(tree)


class TestEffectiveTimes:
    def test_sim_first_stopper_reveals(self):
        tree = chain_tree(1)
        rho = _strategy_a(tree, 0)
        tau = _strategy_a(tree, 1)
        assert effective_times_sim(tree, rho, tau, 0) == (0, 1)
        assert effective_times_sim(tree, tau, rho, 0) == (1, 0)

    def test_sim_tie_stops_together(self):
        tree = chain_tree(1)
        rho = _strategy_a(tree, 0)
        assert effective_times_sim(tree, rho, rho, 0) == (0, 0)

    def test_seq_tie_goes_to_player_one(self):
        tree = chain_tree(1)
        rho = _strategy_a(tree, 0)
        tau = _strategy_b(tree, 0, reply0=1)
        assert effective_times_seq(tree, rho, tau, 0) == (0, 1)

    def test_seq_second_player_may_reply_at_once(self):
        tree = chain_tree(1)
        rho = _strategy_a(tree, 0)
        tau = _strategy_b(tree, 1, reply0=0)
        assert effective_times_seq(tree, rho, tau, 0) == (0, 0)

    def test_seq_second_player_stopping_first(self):
        tree = chain_tree(1)
        rho = _strategy_a(tree, 1)
        tau = _strategy_b(tree, 0, reply0=0)
        assert effective_times_seq(tree, rho, tau, 0) == (1, 0)


class TestPayoffPure:
    def test_matching_game_tie(self):
        tree = chain_tree(1)
        field = matching_field(tree)
        rho = _strategy_a(tree, 0)
        assert sg.payoff_pure(field, "sim", rho, rho) == (1.0, -1.0)

    def test_matching_game_mismatch(self):
        tree = chain_tree(1)
        field = matching_field(tree)
        assert sg.payoff_pure(
            field, "sim", _strategy_a(tree, 0), _strategy_a(tree, 1)
        ) == (0.0, 0.0)

    def test_constant_field_any_profile(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: 3.25)
        for t0 in range(3):
            rho = sg.Strategy(
                _stop_at(tree, t0),
                sg.AdjustmentFamily(
                    tuple(_stop_at(tree, min(t + 1, 2)) for t in range(3)), strict=True
                ),
            )
            tau = sg.Strategy(
                _stop_at(tree, 2 - t0),
                sg.AdjustmentFamily(tuple(_stop_at(tree, t) for t in range(3)), strict=False),
            )
            assert sg.payoff_pure(field, "seq", rho, tau) == (3.25, 3.25)

    def test_mode_class_mismatch(self):
        tree = chain_tree(1)
        field = matching_field(tree)
        rho = _strategy_a(tree, 0)
        with pytest.raises(sg.GameSpecError, match="type"):
            sg.payoff_pure(field, "sim", rho, _strategy_b(tree, 0, 1))


class TestPayoffMixed:
    def test_degenerate_equals_pure(self):
        for seed in range(8):
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            field = doc.payoff_field()
            sol = sg.seq_equilibrium(field)
            rho = sg.Strategy(sol.p1_settle, sol.bundle.later_max1)
            tau = sg.Strategy(
                sol.p2_settle, sg.reaction_value(field, 2, "first", "strict", "min").family
            )
            pure = sg.payoff_pure(field, "sim", rho, tau)
            mixed = sg.payoff_mixed_sim(field, as_mixed(rho), as_mixed(tau))
            assert mixed[0] == approx(pure[0], abs=1e-12)
            assert mixed[1] == approx(pure[1], abs=1e-12)

    def test_matching_game_half_half(self):
        tree = chain_tree(1)
        field = matching_field(tree)
        half = sg.Strategy(
            sg.RandomizedStoppingTime((0.5, 1.0)), _family_a(tree)
        )
        # The four equally likely initial-time pairs give payoffs
        # (1,-1), (0,0), (0,0), (1,-1); the average is (1/2, -1/2).
        assert sg.payoff_mixed_sim(field, half, half) == approx((0.5, -0.5))

    def test_constant_field(self):
        tree = chain_tree(1)
        field = field_from_function(tree, lambda i, s, t, n: -1.5)
        half = sg.Strategy(
            sg.RandomizedStoppingTime((0.3, 1.0)), _family_a(tree)
        )
        assert sg.payoff_mixed_sim(field, half, half) == approx((-1.5, -1.5))

    def test_multilinear_in_each_stop_probability(self):
        doc = gamefile.generate_random_game(3, 2, seed=11)
        field = doc.payoff_field()
        sol = sg.sim_equilibrium(field)
        base = list(sol.rho.initial.probs)
        node = 1  # interior node
        values = []
        for p in (0.2, 0.5, 0.8):
            probs = list(base)
            probs[node] = p
            rho = sg.Strategy(
                sg.RandomizedStoppingTime(tuple(probs)), sol.rho.adjust
            )
            values.append(sg.payoff_mixed_sim(field, rho, sol.tau))
        for k in (0, 1):
            second_diff = values[0][k] - 2.0 * values[1][k] + values[2][k]
            assert second_diff == approx(0.0, abs=1e-9)


class TestStopAloneValues:
    def test_expected_at_stop_reads_from_level_t(self):
        tree = chain_tree(2)
        rule = sg.StoppingTime((False, True, True))
        reward = RewardRows(tree, lambda u, m: float(m))  # the node index
        assert expected_at_stop(tree, rule, reward, 2) == [2.0]
        assert reward.read == {2}
        assert expected_at_stop(tree, rule, reward, 1) == [1.0]
        assert reward.read == {1, 2}
        assert expected_at_stop(tree, rule, reward, 0) == [1.0]

    def test_expected_at_stop_refuses_a_short_reward_row(self):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        rows[2].pop()
        rule = sg.StoppingTime((True,) * tree.n_nodes)
        for t in (0, 1, 2):
            with pytest.raises(sg.GameSpecError, match=r"^reward row 2 needs 4 values, got 3$"):
                expected_at_stop(tree, rule, rows, t)

    def test_expected_at_stop_reads_no_row_below_level_t(self):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[], [], [float(i) for i in tree.levels[2]]]
        rule = sg.StoppingTime((True,) * tree.n_nodes)
        assert expected_at_stop(tree, rule, rows, 2) == rows[2]

    @pytest.mark.parametrize("t", [-1, 3, 4])
    def test_expected_at_stop_refuses_a_level_outside_the_tree(self, t):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        rule = sg.StoppingTime((True,) * tree.n_nodes)
        with pytest.raises(sg.GameSpecError, match=rf"^level {t} outside 0\.\.2$"):
            expected_at_stop(tree, rule, rows, t)

    @pytest.mark.parametrize("size", [0, 5, 6, 8])
    def test_expected_at_stop_refuses_marks_that_do_not_cover_the_tree(self, size):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[float(i) for i in tree.levels[u]] for u in range(3)]
        rule = sg.StoppingTime((True,) * size)
        for t in (0, 1, 2):
            with pytest.raises(sg.GameSpecError, match="^stopping time marks do not cover"):
                expected_at_stop(tree, rule, rows, t)

    def test_expected_at_stop_collects_zero_where_a_rule_never_stops(self):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        rows = [[1.0] * len(level) for level in tree.levels]
        rule = sg.StoppingTime((False,) * tree.n_nodes)
        for t in (0, 1, 2):
            assert expected_at_stop(tree, rule, rows, t) == [0.0] * len(tree.levels[t])

    def test_matches_path_sum_oracle(self):
        for seed in range(30):
            horizon, branching = 1 + seed % 5, 1 + (seed // 5) % 3
            doc = gamefile.generate_random_game(horizon, branching, seed=seed)
            tree, field = doc.tree, doc.payoff_field()
            rng = random.Random(seed)
            # Arbitrary rules stop at, below or only after their own level.
            arbitrary = tuple(
                sg.StoppingTime(
                    tuple(n.time == horizon or rng.random() < 0.3 for n in tree.nodes)
                )
                for _ in range(horizon + 1)
            )
            families = (
                sg.AdjustmentFamily(arbitrary, strict=False),
                sg.reaction_value(field, 1, "first", "strict", "max").family,
                sg.reaction_value(field, 2, "second", "inclusive", "min").family,
            )
            tol = 1e-12 * field.bound
            for family, stopper, player in product(families, (1, 2), (1, 2)):
                got = stop_alone_values(field, player, stopper, family)
                assert type(got) is tuple and len(got) == tree.n_nodes
                for node in tree.nodes:
                    t = node.time
                    if stopper == 1:
                        reward = lambda m: field.value(player, t, tree.nodes[m].time, m)
                    else:
                        reward = lambda m: field.value(player, tree.nodes[m].time, t, m)
                    want = path_stop_expectation(tree, family.rules[t].marks, reward, node.index)
                    assert got[node.index] == approx(want, abs=tol), (seed, node.id)


class TestPayoffField:
    def test_missing_slice(self):
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError, match="payoff field needs 8 rows, got 0"):
            sg.PayoffField(tree, [])

    @pytest.mark.parametrize("build", [sg.PayoffField, sg.PayoffField.zero_sum])
    def test_mapping_is_refused(self, build):
        # An old-style mapping keyed by (player, s, t) or (s, t): its keys
        # must not be read as payoff rows.
        tree = chain_tree(1)
        for keys in (product((1, 2), range(2), range(2)), product(range(2), range(2))):
            with pytest.raises(sg.GameSpecError, match="must be a sequence, not dict"):
                build(tree, {key: [0.5] for key in keys})

    def test_bound_tracks_max_abs(self):
        tree = chain_tree(1)
        field = field_from_function(
            tree, lambda i, s, t, n: -2.0 if (s, t) == (0, 1) else 0.5
        )
        assert field.bound == 2.0

    @pytest.mark.parametrize(
        "bound, unit",
        [
            (0.0, 1.0),
            (0.375, 0.5),
            (0.5, 0.5),
            (0.75, 1.0),
            (1.0, 1.0),
            (3.0, 4.0),
            (1e9, 2.0**30),
            (2.0**-1039 + 2.0**-1074, 2.0**-1038),
            (1.7e308, 2.0**1023),
        ],
    )
    def test_unit_is_least_power_of_two_at_or_above_bound(self, bound, unit):
        tree = chain_tree(1)
        field = field_from_function(tree, lambda i, s, t, n: -bound if s else bound)
        assert (field.bound, field.unit, field.tol) == (bound, unit, 1e-9 * unit)

    @pytest.mark.parametrize("bound", [2.0**-1074, 1e-318, 2.0**-1040, 2.0**-1039])
    def test_a_field_too_small_to_certify_is_refused(self, bound):
        # Below unit 2**-1038, tol = 1e-9 * unit is under 64 subnormal steps
        # (0.0 at 2**-1074), too few to hold the rounding of a solve.
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError, match="too small to certify"):
            field_from_function(tree, lambda i, s, t, n: -bound if s else bound)

    def test_measurability_layout(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: float(n))
        # The (s, t) slice lives at level max(s, t): exactly one value per
        # node there, readable for every node of that level.
        for s in range(3):
            for t in range(3):
                for idx in tree.levels[max(s, t)]:
                    assert field.value(1, s, t, idx) == float(idx)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda sl: sl.update({(1, 0, 1): [0.5]}),
                "payoff slice (1, 0, 1) needs 2 values, got 1",
            ),
            (
                lambda sl: sl.update({(1, 0, 0): [float("nan")], (1, 1, 1): [0.5]}),
                "non-finite payoff in slice (1, 0, 0)",
            ),
            (
                lambda sl: (sl.update({(1, 0, 1): [0.5] * 3}), sl.pop((2, 0, 0))),
                "payoff field needs 8 rows, got 7",
            ),
            (
                lambda sl: (sl.pop((1, 1, 0)), sl.update({(2, 0, 0): [float("inf")]})),
                "payoff field needs 8 rows, got 7",
            ),
            (
                lambda sl: sl.update({(2, 1, 0): (1, -0.0), (2, 0, 1): [0.5, float("-inf")]}),
                "non-finite payoff in slice (2, 0, 1)",
            ),
        ],
        ids=["size", "nan-before-size", "too-few-before-size", "too-few-before-inf", "ints-ok"],
    )
    def test_first_fault_wins(self, edit, message):
        tree = three_node_tree()
        slices = {
            key: [0.5] * len(tree.levels[max(key[1:])])
            for key in product((1, 2), range(2), range(2))
        }
        edit(slices)
        with pytest.raises(sg.GameSpecError) as exc:
            sg.PayoffField(tree, [slices[key] for key in sorted(slices)])
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "edit",
        [
            lambda u1: (u1.pop((1, 1)), u1.update({(0, 0): [float("nan")]})),
            lambda u1: (u1.pop((1, 1)), u1.update({(0, 1): [0.5]})),
        ],
        ids=["too-few-before-nan", "too-few-before-size"],
    )
    def test_zero_sum_reports_too_few_rows_first(self, edit):
        tree = three_node_tree()
        u1 = {
            (s, t): [0.5] * len(tree.levels[max(s, t)]) for s in range(2) for t in range(2)
        }
        edit(u1)
        with pytest.raises(sg.GameSpecError) as exc:
            sg.PayoffField.zero_sum(tree, [u1[st] for st in sorted(u1)])
        # Counted in player 1's rows, the only ones given.
        assert str(exc.value) == "payoff field needs 4 rows for player 1, got 3"

    @pytest.mark.parametrize(
        "row", [["x"], 0.5, [None]], ids=["string-value", "bare-number", "none-value"]
    )
    @pytest.mark.parametrize("build", ["field", "zero_sum"])
    def test_row_float_rejects_is_a_spec_error(self, build, row):
        tree = chain_tree(1)
        with pytest.raises(sg.GameSpecError) as exc:
            if build == "field":
                sg.PayoffField(tree, [row] * 8)
            else:
                sg.PayoffField.zero_sum(tree, [row] * 4)
        assert str(exc.value) == "payoff slice (1, 0, 0) must be a sequence of numbers"

    @pytest.mark.parametrize("build", ["field", "zero_sum"])
    def test_row_float_rejects_keeps_first_fault_order(self, build):
        # A short row before a bad value is named first, and a bad value
        # before a non-finite one.
        tree = chain_tree(1)
        rows = [[0.5], [0.5, 0.5], [0.5], ["x"]]
        rows_inf = [[0.5], ["x"], [float("inf")], [0.5]]
        if build == "field":
            make = lambda r: sg.PayoffField(tree, r + [[0.5]] * 4)
        else:
            make = lambda r: sg.PayoffField.zero_sum(tree, r)
        with pytest.raises(sg.GameSpecError, match=r"^payoff slice \(1, 0, 1\) needs 1 values"):
            make(rows)
        with pytest.raises(sg.GameSpecError, match=r"^payoff slice \(1, 0, 1\) must be a seq"):
            make(rows_inf)

    def test_bound_of_signed_zeros_is_positive_zero(self):
        tree = three_node_tree()
        assert field_from_function(tree, lambda i, s, t, n: -0.0).bound.hex() == "0x0.0p+0"
        u1 = [[0] * len(tree.levels[max(s, t)]) for s in range(2) for t in range(2)]
        field = sg.PayoffField.zero_sum(tree, u1)
        assert field.row(2, 1, 1) == (-0.0, -0.0)
        assert field.bound.hex() == "0x0.0p+0"

    def test_zero_sum_negation(self):
        tree = chain_tree(1)
        field = sg.PayoffField.zero_sum(tree, [[0.25]] * 4)
        assert field.value(1, 0, 1, 1) == 0.25
        assert field.value(2, 0, 1, 1) == -0.25
