"""Simultaneous-move solver: reduced processes, stage games, equilibrium."""

from __future__ import annotations

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import chain_tree, field_from_function, leaves_under


class TestSimProcesses:
    def test_matching_game_processes(self, matching_tree, matching_payoffs):
        bundle = sg.sim_processes(matching_tree, matching_payoffs)
        assert bundle.x1[0] == approx(0.0, abs=1e-12)
        assert bundle.y1[0] == approx(0.0, abs=1e-12)
        assert bundle.z1[0] == 1.0
        assert bundle.z1[1] == 1.0
        assert bundle.x2[0] == approx(0.0, abs=1e-12)
        assert bundle.y2[0] == approx(0.0, abs=1e-12)
        assert bundle.z2[0] == -1.0
        assert bundle.rho1_star.rules[0].realized(matching_tree) == (1,)
        assert bundle.tau1_star.rules[0].realized(matching_tree) == (1,)

    def test_constant_payoffs(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: 0.4)
        bundle = sg.sim_processes(tree, field)
        for proc in (bundle.x1, bundle.x2, bundle.y1, bundle.y2, bundle.z1, bundle.z2):
            assert all(v == approx(0.4, abs=1e-12) for v in proc)

    def test_tie_slices_are_exact(self):
        doc = gamefile.generate_random_game(3, 2, seed=31)
        tree, field = doc.tree, doc.payoff_field()
        bundle = sg.sim_processes(tree, field)
        for t in range(tree.horizon + 1):
            for idx in tree.levels[t]:
                assert bundle.z1[idx] == field.value(1, t, t, idx)
                assert bundle.z2[idx] == field.value(2, t, t, idx)

    def test_one_sided_dominance_on_small_trees(self):
        # The stop-first payoffs can never beat the player's own optimum over
        # all strictly later stops, enumerated exhaustively.
        for seed in range(5):
            doc = gamefile.generate_random_game(2, 2, seed=seed)
            tree, field = doc.tree, doc.payoff_field()
            bundle = sg.sim_processes(tree, field)
            for t in range(tree.horizon + 1):
                window = min(t + 1, tree.horizon)
                for st in sg.enumerate_stopping_times(tree, min_level=window):
                    realized = st.realized(tree)
                    for idx in tree.levels[t]:
                        total = 0.0
                        weight = 0.0
                        for pos in leaves_under(tree, idx):
                            prob = tree.leaf_probs[pos] / tree.node_prob[idx]
                            u = realized[pos]
                            total += prob * field.value(
                                2, t, u, tree.paths[pos][max(t, u)]
                            )
                            weight += prob
                        assert total <= bundle.x2[idx] * weight + 1e-9


class TestStageNash:
    def test_mixed_coordination(self):
        a = ((1.0, 0.0), (0.0, 1.0))
        b = ((-1.0, 0.0), (0.0, -1.0))
        sol = sg.stage_nash_2x2(a, b)
        assert sol.rule == "mixed"
        assert sol.p == approx(0.5)
        assert sol.q == approx(0.5)
        assert sol.value1 == approx(0.5)
        assert sol.value2 == approx(-0.5)

    def test_pure_dominant(self):
        a = ((2.0, 2.0), (0.0, 0.0))
        b = ((1.0, 0.0), (1.0, 0.0))
        sol = sg.stage_nash_2x2(a, b)
        assert sol.rule == "pure:00"
        assert (sol.p, sol.q) == (1.0, 1.0)
        assert (sol.value1, sol.value2) == (2.0, 1.0)

    def test_constant_tie_break_priority(self):
        a = ((0.7, 0.7), (0.7, 0.7))
        sol = sg.stage_nash_2x2(a, a)
        assert sol.rule == "pure:00"
        assert (sol.p, sol.q) == (1.0, 1.0)
        assert (sol.value1, sol.value2) == (0.7, 0.7)

    def test_degenerate_cycle_falls_back(self):
        # A cyclic preference pattern at rounding scale: no pure profile
        # passes, and the indifference denominators are below tolerance.
        eps = 1e-13
        a = ((eps, 0.0), (0.0, eps))
        b = ((-eps, 0.0), (0.0, -eps))
        sol = sg.stage_nash_2x2(a, b)
        assert sol.rule == "degenerate"
        assert sol.p in (0.0, 1.0) and sol.q in (0.0, 1.0)

    def test_stage_solution_is_equilibrium(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            a = tuple(
                tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(2)
            )
            b = tuple(
                tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(2)
            )
            sol = sg.stage_nash_2x2(a, b)
            p, q = sol.p, sol.q
            stop1 = q * a[0][0] + (1 - q) * a[0][1]
            cont1 = q * a[1][0] + (1 - q) * a[1][1]
            stop2 = p * b[0][0] + (1 - p) * b[1][0]
            cont2 = p * b[0][1] + (1 - p) * b[1][1]
            assert max(stop1, cont1) <= sol.value1 + 1e-9
            assert max(stop2, cont2) <= sol.value2 + 1e-9


class TestReducedEquilibrium:
    def test_matching_game_half_half(self, matching_tree, matching_payoffs):
        bundle = sg.sim_processes(matching_tree, matching_payoffs)
        reduced = sg.randomized_dynkin_equilibrium(matching_tree, bundle)
        assert reduced.alpha.probs[0] == approx(0.5)
        assert reduced.beta.probs[0] == approx(0.5)
        assert reduced.alpha.probs[1] == 1.0
        assert reduced.w1[0] == approx(0.5)
        assert reduced.w2[0] == approx(-0.5)

    def test_horizon_nodes_stop_surely(self):
        doc = gamefile.generate_random_game(3, 2, seed=2)
        bundle = sg.sim_processes(doc.tree, doc.payoff_field())
        reduced = sg.randomized_dynkin_equilibrium(doc.tree, bundle)
        for leaf in doc.tree.leaves:
            assert reduced.alpha.probs[leaf] == 1.0
            assert reduced.beta.probs[leaf] == 1.0

    def test_constant_processes(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: -0.25)
        bundle = sg.sim_processes(tree, field)
        reduced = sg.randomized_dynkin_equilibrium(tree, bundle)
        assert reduced.w1[0] == approx(-0.25, abs=1e-12)
        assert reduced.w2[0] == approx(-0.25, abs=1e-12)

    def test_stage_records_are_stage_equilibria(self):
        for seed in range(10):
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            bundle = sg.sim_processes(doc.tree, doc.payoff_field())
            reduced = sg.randomized_dynkin_equilibrium(doc.tree, bundle)
            for record in reduced.stages:
                sol = record.solution
                p, q = sol.p, sol.q
                a, b = record.a, record.b
                stop1 = q * a[0][0] + (1 - q) * a[0][1]
                cont1 = q * a[1][0] + (1 - q) * a[1][1]
                stop2 = p * b[0][0] + (1 - p) * b[1][0]
                cont2 = p * b[0][1] + (1 - p) * b[1][1]
                assert max(stop1, cont1) <= sol.value1 + 1e-9
                assert max(stop2, cont2) <= sol.value2 + 1e-9


class TestSimEquilibrium:
    def test_matching_game(self, matching_tree, matching_payoffs):
        sol = sg.sim_equilibrium(matching_tree, matching_payoffs)
        assert sol.rho.initial.probs[0] == approx(0.5, abs=1e-12)
        assert sol.tau.initial.probs[0] == approx(0.5, abs=1e-12)
        assert sol.values[0] == approx(0.5, abs=1e-12)
        assert sol.values[1] == approx(-0.5, abs=1e-12)
        assert sol.report.passed
        assert max(sol.report.gaps) <= 1e-12

    def test_horizon_zero(self):
        tree = sg.build_tree({"horizon": 0, "nodes": [{"id": "r", "time": 0}]})
        field = field_from_function(
            tree, lambda i, s, t, n: 1.5 if i == 1 else -2.5
        )
        sol = sg.sim_equilibrium(tree, field)
        assert sol.values == (1.5, -2.5)
        assert sol.rho.initial.probs == (1.0,)
        assert sol.report.passed

    def test_random_games_certified(self):
        for seed in range(20):
            doc = gamefile.generate_random_game(3, 2, seed=300 + seed)
            sol = sg.sim_equilibrium(doc.tree, doc.payoff_field())
            assert sol.report.passed, (seed, sol.report.gaps)

    def test_profile_payoff_matches_reduced_values(self):
        for seed in range(10):
            doc = gamefile.generate_random_game(4, 2, seed=400 + seed)
            sol = sg.sim_equilibrium(doc.tree, doc.payoff_field())
            assert sol.values[0] == approx(sol.reduced.w1[0], abs=1e-9)
            assert sol.values[1] == approx(sol.reduced.w2[0], abs=1e-9)

    def test_no_pure_equilibrium_but_mixed_exists(self, matching_tree, matching_payoffs):
        enum = sg.enumerate_oracle(matching_tree, matching_payoffs, "sim")
        assert len(enum.strategies1) == 2
        assert len(enum.strategies2) == 2
        assert enum.equilibria == ()
        sol = sg.sim_equilibrium(matching_tree, matching_payoffs)
        assert sol.report.passed
