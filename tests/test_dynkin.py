"""Dynkin values, hitting-time saddles, and the zero-sum strategy game."""

from __future__ import annotations

import random

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import (
    brute_force_dynkin,
    chain_tree,
    leaf_paths,
    matching_field,
    stopped_submartingale_ok,
)


def _chain_values(tree, seq):
    return tuple(map(float, seq))


class TestDynkinValue:
    def test_worked_example_waits(self):
        tree = chain_tree(1)
        f = _chain_values(tree, [0.0, 1.0])
        g = _chain_values(tree, [2.0, 1.0])
        v = sg.dynkin_value(tree, f, g)
        assert (v[0], v[1]) == (1.0, 1.0)
        maximin, minimax = brute_force_dynkin(tree, f, g)
        assert maximin == approx(1.0, abs=1e-12)
        assert minimax == approx(1.0, abs=1e-12)

    def test_worked_example_stops(self):
        tree = chain_tree(1)
        f = _chain_values(tree, [1.0, 0.0])
        g = _chain_values(tree, [2.0, 2.0])
        v = sg.dynkin_value(tree, f, g)
        assert (v[0], v[1]) == (1.0, 0.0)
        maximin, minimax = brute_force_dynkin(tree, f, g)
        assert maximin == approx(1.0, abs=1e-12)

    def test_equal_boundaries_collapse(self):
        tree = chain_tree(2)
        f = _chain_values(tree, [0.3, -0.4, 0.9])
        v = sg.dynkin_value(tree, f, f)
        assert all(v[i] == f[i] for i in range(3))

    def test_boundaries_must_cover_every_node(self):
        tree = chain_tree(2)
        full = (0.0, 0.5, 1.0)
        for f, g in ((full[:2], full), (full, full[:2]), (full + (2.0,), full + (2.0,))):
            with pytest.raises(
                sg.GameSpecError, match="^boundary processes must be defined on all levels$"
            ):
                sg.dynkin_value(tree, f, g)

    def test_sandwich_and_terminal(self):
        rng = random.Random(4)
        for _ in range(20):
            tree = gamefile.generate_random_game(3, 2, seed=rng.randrange(10**6)).tree
            f = [rng.uniform(-1, 1) for _ in range(tree.n_nodes)]
            g = [f[i] + rng.uniform(0, 1) for i in range(tree.n_nodes)]
            v = sg.dynkin_value(tree, f, g)
            for i in range(tree.n_nodes):
                assert f[i] - 1e-12 <= v[i] <= g[i] + 1e-12
            for leaf in tree.leaves:
                assert v[leaf] == f[leaf]

    def test_reversed_orientation_matches_brute_force(self):
        # Boundary ordering g <= f: the recursion then values the game in
        # which the second stopper is the maximizer.
        rng = random.Random(11)
        for _ in range(10):
            tree = chain_tree(3)
            g = [rng.uniform(-1, 1) for _ in range(tree.n_nodes)]
            f = [g[i] + rng.uniform(0, 1) for i in range(tree.n_nodes)]
            v = sg.dynkin_value(tree, f, g)
            sts = sg.enumerate_stopping_times(tree)
            realized = [st.realized(tree) for st in sts]

            def payoff(ri, ti):
                total = 0.0
                for pos, prob in enumerate(tree.leaf_probs):
                    r, t = realized[ri][pos], realized[ti][pos]
                    if r <= t:
                        total += prob * f[leaf_paths(tree)[pos][r]]
                    else:
                        total += prob * g[leaf_paths(tree)[pos][t]]
                return total

            table = [[payoff(i, j) for j in range(len(sts))] for i in range(len(sts))]
            # tau (second index) maximizes, rho minimizes.
            maximin = max(
                min(table[i][j] for i in range(len(sts))) for j in range(len(sts))
            )
            minimax = min(max(row) for row in table)
            assert v[0] == approx(maximin, abs=1e-12)
            assert v[0] == approx(minimax, abs=1e-12)


class TestHittingSaddle:
    def test_worked_example_hits(self):
        tree = chain_tree(1)
        f = _chain_values(tree, [0.0, 1.0])
        g = _chain_values(tree, [2.0, 1.0])
        v = sg.dynkin_value(tree, f, g)
        sigma = sg.constant_stopping_time(tree, 0)
        rho, tau = sg.dynkin_hitting_saddle(tree, v, f, g, sigma, 1e-9)
        assert rho.realized(tree) == (1,)
        assert tau.stop.realized(tree) == (1,)
        assert tau.clamped == frozenset()

    def test_minimizer_may_clamp(self):
        tree = chain_tree(1)
        f = _chain_values(tree, [1.0, 0.0])
        g = _chain_values(tree, [2.0, 2.0])
        v = sg.dynkin_value(tree, f, g)
        sigma = sg.constant_stopping_time(tree, 0)
        rho, tau = sg.dynkin_hitting_saddle(tree, v, f, g, sigma, 1e-9)
        assert rho.realized(tree) == (0,)
        assert tau.clamped == frozenset({0})
        assert tau.stop.realized(tree) == (1,)

    def test_sigma_at_horizon_forces_both(self):
        tree = chain_tree(2)
        f = _chain_values(tree, [0.0, 0.5, 1.0])
        g = _chain_values(tree, [2.0, 2.5, 1.0])
        v = sg.dynkin_value(tree, f, g)
        sigma = sg.constant_stopping_time(tree, 2)
        rho, tau = sg.dynkin_hitting_saddle(tree, v, f, g, sigma, 1e-9)
        assert rho.realized(tree) == (2,)
        assert tau.stop.realized(tree) == (2,)

    def test_saddle_inequalities_brute_force(self):
        rng = random.Random(21)
        for _ in range(10):
            tree = gamefile.generate_random_game(2, 2, seed=rng.randrange(10**6)).tree
            f = [rng.uniform(-1, 1) for _ in range(tree.n_nodes)]
            g = [f[i] + rng.uniform(0, 1) for i in range(tree.n_nodes)]
            v = sg.dynkin_value(tree, f, g)
            zero = sg.constant_stopping_time(tree, 0)
            rho, tau = sg.dynkin_hitting_saddle(tree, v, f, g, zero, 1e-9)
            rho_real = rho.realized(tree)
            tau_real = tau.stop.realized(tree)

            def against(r_realized, t_realized):
                total = 0.0
                for pos, prob in enumerate(tree.leaf_probs):
                    r, t = r_realized[pos], t_realized[pos]
                    if r <= t:
                        total += prob * f[leaf_paths(tree)[pos][r]]
                    else:
                        total += prob * g[leaf_paths(tree)[pos][t]]
                return total

            center = against(rho_real, tau_real)
            assert center == approx(v[0], abs=1e-9)
            for st in sg.enumerate_stopping_times(tree):
                other = st.realized(tree)
                assert against(other, tau_real) <= center + 1e-9
                assert against(rho_real, other) >= center - 1e-9

    def test_stopped_value_is_submartingale(self):
        rng = random.Random(33)
        for _ in range(10):
            tree = gamefile.generate_random_game(3, 3, seed=rng.randrange(10**6)).tree
            f = [rng.uniform(-1, 1) for _ in range(tree.n_nodes)]
            g = [f[i] + rng.uniform(0, 1) for i in range(tree.n_nodes)]
            v = sg.dynkin_value(tree, f, g)
            zero = sg.constant_stopping_time(tree, 0)
            rho, _ = sg.dynkin_hitting_saddle(tree, v, f, g, zero, 1e-9)
            assert stopped_submartingale_ok(tree, v, rho)


class TestZeroSumSaddle:
    def test_matching_game(self, matching_tree):
        field = sg.PayoffField.zero_sum(
            matching_tree,
            [[1.0 if s == t else 0.0] for s in range(2) for t in range(2)],
        )
        saddle = sg.zero_sum_saddle(field)
        assert [saddle.f[i] for i in range(2)] == [0.0, 1.0]
        assert [saddle.g[i] for i in range(2)] == [0.0, 1.0]
        assert [saddle.v[i] for i in range(2)] == [0.0, 1.0]
        assert saddle.value == approx(0.0, abs=1e-12)
        assert saddle.rho_star.initial.realized(matching_tree) == (0,)
        assert saddle.tau_star.adjust.rules[0].realized(matching_tree) == (1,)
        report = sg.check_equilibrium(
            field, "zs", (saddle.rho_star, saddle.tau_star)
        )
        assert report.passed
        # Exhaustive check over both full strategy classes.
        value = sg.payoff_pure(
            field, "seq", saddle.rho_star, saddle.tau_star
        )[0]
        for rho in sg.enumerate_strategies(matching_tree, "a"):
            assert (
                sg.payoff_pure(field, "seq", rho, saddle.tau_star)[0]
                <= value + 1e-12
            )
        for tau in sg.enumerate_strategies(matching_tree, "b"):
            assert (
                sg.payoff_pure(field, "seq", saddle.rho_star, tau)[0]
                >= value - 1e-12
            )

    def test_constant_payoff(self):
        tree = chain_tree(2)
        field = sg.PayoffField.zero_sum(
            tree, [[0.5] for s in range(3) for t in range(3)]
        )
        saddle = sg.zero_sum_saddle(field)
        assert saddle.value == approx(0.5, abs=1e-12)

    def test_random_games_certified(self):
        for seed in range(15):
            doc = gamefile.generate_random_game(3, 2, seed=seed, zero_sum=True)
            field = doc.zero_sum_field()
            saddle = sg.zero_sum_saddle(field)
            report = sg.check_equilibrium(
                field, "zs", (saddle.rho_star, saddle.tau_star)
            )
            assert report.passed, (seed, report.gaps)
            values = sg.payoff_pure(
                field, "seq", saddle.rho_star, saddle.tau_star
            )
            assert values[0] == approx(saddle.value, abs=1e-9)

    def test_sigma_restricted_games_certified(self):
        for seed in range(10):
            doc = gamefile.generate_random_game(3, 2, seed=50 + seed, zero_sum=True)
            field = doc.zero_sum_field()
            sigma = sg.constant_stopping_time(doc.tree, 1 + seed % 3)
            saddle = sg.zero_sum_saddle(field, sigma)
            assert min(saddle.rho_star.initial.realized(doc.tree)) >= 1 + seed % 3
            report = sg.check_equilibrium(
                field,
                "zs",
                (saddle.rho_star, saddle.tau_star),
                not_before=sigma,
            )
            assert report.passed, (seed, report.gaps)
            # The achieved payoff equals the value process aggregated over
            # the starting rule.
            assert report.values[0] == approx(saddle.value, abs=1e-9)

    def test_strategy_game_value_by_enumeration(self):
        # The upper and lower values of the strategy game coincide with the
        # saddle value: maximin and minimax over the full enumerated classes.
        for seed in range(6):
            doc = gamefile.generate_random_game(seed % 2, 1 + seed % 2, seed=80 + seed, zero_sum=True)
            tree = doc.tree
            field = doc.zero_sum_field()
            saddle = sg.zero_sum_saddle(field)
            rhos = sg.enumerate_strategies(tree, "a")
            taus = sg.enumerate_strategies(tree, "b")
            table = [
                [sg.payoff_pure(field, "seq", rho, tau)[0] for tau in taus]
                for rho in rhos
            ]
            maximin = max(min(row) for row in table)
            minimax = min(
                max(table[i][j] for i in range(len(rhos))) for j in range(len(taus))
            )
            assert maximin == approx(saddle.value, abs=1e-9)
            assert minimax == approx(saddle.value, abs=1e-9)

    def test_clamped_minimizer_time_is_payoff_neutral(self):
        # When the minimizer's hitting time never fires, it is clamped to the
        # horizon; the maximizer stops no later, so the clamped rule never
        # collects its boundary payoff.
        tree = chain_tree(1)
        field = sg.PayoffField.zero_sum(
            tree,
            [[1.0], [2.0], [-2.0], [0.0]],  # (s, t) = (0, 0), (0, 1), (1, 0), (1, 1)
        )
        saddle = sg.zero_sum_saddle(field)
        rho_real = saddle.rho_star.initial.realized(tree)
        tau_real = saddle.tau_star.initial.realized(tree)
        if saddle.tau_hit.clamped:
            assert all(r <= t for r, t in zip(rho_real, tau_real))
        report = sg.check_equilibrium(
            field, "zs", (saddle.rho_star, saddle.tau_star)
        )
        assert report.passed
