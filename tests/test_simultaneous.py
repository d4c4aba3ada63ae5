"""Simultaneous-move solver: reduced processes, stage games, equilibrium."""

from __future__ import annotations

import math
import random

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import chain_tree, field_from_function, leaf_paths, leaves_under


class TestSimProcesses:
    def test_matching_game_processes(self, matching_tree, matching_payoffs):
        bundle = sg.sim_processes(matching_payoffs)
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
        bundle = sg.sim_processes(field)
        for proc in (bundle.x1, bundle.x2, bundle.y1, bundle.y2, bundle.z1, bundle.z2):
            assert all(v == approx(0.4, abs=1e-12) for v in proc)

    def test_tie_slices_are_exact(self):
        doc = gamefile.generate_random_game(3, 2, seed=31)
        tree, field = doc.tree, doc.payoff_field()
        bundle = sg.sim_processes(field)
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
            bundle = sg.sim_processes(field)
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
                                2, t, u, leaf_paths(tree)[pos][max(t, u)]
                            )
                            weight += prob
                        assert total <= bundle.x2[idx] * weight + 1e-9


def _has_pure(a, b) -> bool:
    return any(
        a[1 - r][c] <= a[r][c] and b[r][1 - c] <= b[r][c] for r in (0, 1) for c in (0, 1)
    )


def _stage_gaps(a, b, sol) -> tuple[float, float]:
    """How much each player gains by her better pure reply to the other's
    mix, over the solution's value."""
    p, q = sol.p, sol.q
    stop1 = q * a[0][0] + (1 - q) * a[0][1]
    cont1 = q * a[1][0] + (1 - q) * a[1][1]
    stop2 = p * b[0][0] + (1 - p) * b[1][0]
    cont2 = p * b[0][1] + (1 - p) * b[1][1]
    return max(stop1, cont1) - sol.value1, max(stop2, cont2) - sol.value2


def _random_stage(rng, scale, near, by_column):
    """A 2x2 payoff matrix at `scale`: uniform entries, or with `near`
    entries a few ulps around one base per column (`by_column`) or row."""
    if not near:
        return tuple(tuple(rng.uniform(-scale, scale) for _ in range(2)) for _ in range(2))
    bases = [rng.uniform(-scale, scale) for _ in range(2)]
    grid = [
        [b + rng.randint(-4, 4) * math.ulp(b) for b in bases] for _ in range(2)
    ]
    if not by_column:
        grid = [list(col) for col in zip(*grid)]
    return tuple(map(tuple, grid))


def _rescaled(m, k):
    return tuple(tuple(math.ldexp(x, k) for x in row) for row in m)


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

    def test_rounding_scale_cycle_is_mixed(self):
        # A cyclic preference pattern at rounding scale has no pure profile,
        # so its exact interior equilibrium p = q = 1/2 is returned.
        eps = 1e-13
        a = ((eps, 0.0), (0.0, eps))
        b = ((-eps, 0.0), (0.0, -eps))
        sol = sg.stage_nash_2x2(a, b)
        assert sol.rule == "mixed"
        assert (sol.p, sol.q) == (0.5, 0.5)
        assert _stage_gaps(a, b, sol) == (0.0, 0.0)

    def test_cancelled_denominator_still_mixes(self):
        # The four-term denominator of player 1 rounds to 0.0 here although
        # d_0 = u and d_1 = -2u; the exact indifference point is q = 2/3.
        u = 2.0**-52
        a = ((-1.0, 3.0 + 6 * u), (-1.0 - u, 3.0 + 8 * u))
        b = ((-1.0, 1.0), (1.0, -1.0))
        assert a[0][0] - a[0][1] - a[1][0] + a[1][1] == 0.0
        sol = sg.stage_nash_2x2(a, b)
        assert sol.rule == "mixed"
        assert sol.q == 2.0 / 3.0
        assert max(_stage_gaps(a, b, sol)) <= 4 * u * 3.0

    def test_no_pure_stages_mix_at_every_scale(self):
        # Stages with no pure equilibrium, drawn uniformly or as near-tie
        # cycles (each column of a, each row of b, a few ulps around its own
        # base), at scales from 1e-300 to 1e300.  The mixed solution must be
        # a probability pair and an equilibrium up to a few ulps.
        rng = random.Random(2024)
        seen = 0
        while seen < 4000:
            scale = 10.0 ** rng.uniform(-300, 300)
            near = rng.random() < 0.5
            a = _random_stage(rng, scale, near, by_column=True)
            b = _random_stage(rng, scale, near, by_column=False)
            if _has_pure(a, b):
                continue
            seen += 1
            sol = sg.stage_nash_2x2(a, b)
            assert sol.rule == "mixed"
            assert 0.0 <= sol.p <= 1.0 and 0.0 <= sol.q <= 1.0
            top = max(abs(x) for row in a + b for x in row)
            assert max(_stage_gaps(a, b, sol)) <= 8 * 2.0**-52 * top

    def test_mix_is_scale_free_up_to_the_float_limit(self):
        # At 2**1023 the indifference sums overflow; the mix must not change.
        rng = random.Random(5)
        checked = 0
        while checked < 200:
            a = _random_stage(rng, 1.0, False, by_column=True)
            b = _random_stage(rng, 1.0, False, by_column=False)
            if _has_pure(a, b):
                continue
            checked += 1
            sol = sg.stage_nash_2x2(a, b)
            big = sg.stage_nash_2x2(*(_rescaled(m, 1023) for m in (a, b)))
            assert (big.p, big.q) == (sol.p, sol.q)
            assert (big.value1, big.value2) == (
                math.ldexp(sol.value1, 1023),
                math.ldexp(sol.value2, 1023),
            )

    def test_stage_solution_is_equilibrium(self):
        rng = random.Random(7)
        for _ in range(200):
            a = tuple(
                tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(2)
            )
            b = tuple(
                tuple(rng.uniform(-1, 1) for _ in range(2)) for _ in range(2)
            )
            sol = sg.stage_nash_2x2(a, b)
            assert max(_stage_gaps(a, b, sol)) <= 1e-9


class TestReducedEquilibrium:
    def test_matching_game_half_half(self, matching_tree, matching_payoffs):
        bundle = sg.sim_processes(matching_payoffs)
        reduced = sg.randomized_dynkin_equilibrium(matching_tree, bundle)
        assert reduced.alpha.probs[0] == approx(0.5)
        assert reduced.beta.probs[0] == approx(0.5)
        assert reduced.alpha.probs[1] == 1.0
        assert reduced.w1[0] == approx(0.5)
        assert reduced.w2[0] == approx(-0.5)

    def test_horizon_nodes_stop_surely(self):
        doc = gamefile.generate_random_game(3, 2, seed=2)
        bundle = sg.sim_processes(doc.payoff_field())
        reduced = sg.randomized_dynkin_equilibrium(doc.tree, bundle)
        for leaf in doc.tree.leaves:
            assert reduced.alpha.probs[leaf] == 1.0
            assert reduced.beta.probs[leaf] == 1.0

    def test_constant_processes(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: -0.25)
        bundle = sg.sim_processes(field)
        reduced = sg.randomized_dynkin_equilibrium(tree, bundle)
        assert reduced.w1[0] == approx(-0.25, abs=1e-12)
        assert reduced.w2[0] == approx(-0.25, abs=1e-12)

    def test_stage_records_are_stage_equilibria(self):
        for seed in range(10):
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            bundle = sg.sim_processes(doc.payoff_field())
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


def _certify(field, sol):
    return sg.check_equilibrium(field, "sim", (sol.rho, sol.tau))


class TestSimEquilibrium:
    def test_matching_game(self, matching_payoffs):
        sol = sg.sim_equilibrium(matching_payoffs)
        assert sol.rho.initial.probs[0] == approx(0.5, abs=1e-12)
        assert sol.tau.initial.probs[0] == approx(0.5, abs=1e-12)
        assert sol.values[0] == approx(0.5, abs=1e-12)
        assert sol.values[1] == approx(-0.5, abs=1e-12)
        report = _certify(matching_payoffs, sol)
        assert report.passed
        assert max(report.gaps) <= 1e-12

    def test_horizon_zero(self):
        tree = sg.build_tree({"horizon": 0, "nodes": [{"id": "r", "time": 0}]})
        field = field_from_function(
            tree, lambda i, s, t, n: 1.5 if i == 1 else -2.5
        )
        sol = sg.sim_equilibrium(field)
        assert sol.values == (1.5, -2.5)
        assert sol.rho.initial.probs == (1.0,)
        assert _certify(field, sol).passed

    def test_random_games_certified(self):
        for seed in range(20):
            doc = gamefile.generate_random_game(3, 2, seed=300 + seed)
            field = doc.payoff_field()
            report = _certify(field, sg.sim_equilibrium(field))
            assert report.passed, (seed, report.gaps)

    def test_profile_payoff_matches_reduced_values(self):
        for seed in range(10):
            doc = gamefile.generate_random_game(4, 2, seed=400 + seed)
            sol = sg.sim_equilibrium(doc.payoff_field())
            assert sol.values[0] == approx(sol.reduced.w1[0], abs=1e-9)
            assert sol.values[1] == approx(sol.reduced.w2[0], abs=1e-9)

    def test_no_pure_equilibrium_but_mixed_exists(self, matching_payoffs):
        enum = sg.enumerate_oracle(matching_payoffs, "sim")
        assert len(enum.strategies1) == 2
        assert len(enum.strategies2) == 2
        assert enum.equilibria == ()
        assert _certify(matching_payoffs, sg.sim_equilibrium(matching_payoffs)).passed
