"""Sequential-move solver: processes, certificates, and the equilibrium."""

from __future__ import annotations

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import (
    canonical_signature,
    chain_tree,
    field_from_function,
    stopped_submartingale_ok,
)


def _corner_game():
    """One-period game in which the threshold-time profile assembly fails:
    player 2's settle time and the side-game stop floor coincide, so both
    threshold rules stop at the root, the stage tie routes the move to
    player 1, and she strictly prefers waiting.  Regression witness for the
    stage-sequential construction."""
    tree = chain_tree(1)
    vals = {
        (1, 0, 0): 0.5, (1, 0, 1): 0.0, (1, 1, 0): 1.0, (1, 1, 1): 0.8,
        (2, 0, 0): 0.0, (2, 0, 1): 0.6, (2, 1, 0): 0.7, (2, 1, 1): 0.9,
    }
    return tree, field_from_function(tree, lambda i, s, t, n: vals[(i, s, t)])


class TestSeqProcesses:
    def test_matching_game_player_one(self, matching_tree, matching_payoffs):
        bundle = sg.seq_processes(matching_tree, matching_payoffs)
        assert [bundle.f1[i] for i in range(2)] == [0.0, 1.0]
        assert [bundle.g1[i] for i in range(2)] == [0.0, 1.0]
        assert [bundle.v1[i] for i in range(2)] == [0.0, 1.0]
        assert [bundle.h1[i] for i in range(2)] == [0.0, 1.0]

    def test_matching_game_player_two(self, matching_tree, matching_payoffs):
        bundle = sg.seq_processes(matching_tree, matching_payoffs)
        assert [bundle.f2[i] for i in range(2)] == [0.0, -1.0]
        assert [bundle.g2[i] for i in range(2)] == [0.0, -1.0]
        assert [bundle.v2[i] for i in range(2)] == [0.0, -1.0]
        assert [bundle.h2[i] for i in range(2)] == [0.0, -1.0]

    def test_constant_payoffs(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: 0.7)
        bundle = sg.seq_processes(tree, field)
        for proc in (
            bundle.f1, bundle.g1, bundle.f2, bundle.g2,
            bundle.h1, bundle.h2, bundle.v1, bundle.v2,
        ):
            assert all(v == approx(0.7, abs=1e-12) for v in proc)

    def test_boundary_orderings(self):
        for seed in range(15):
            doc = gamefile.generate_random_game(3, 2, seed=seed)
            bundle = sg.seq_processes(doc.tree, doc.payoff_field())
            for i in range(doc.tree.n_nodes):
                assert bundle.f1[i] <= bundle.h1[i] + 1e-12
                assert (
                    min(bundle.h2[i], bundle.f2[i])
                    >= bundle.g2[i] - 1e-12
                )
                assert bundle.f1[i] <= bundle.g1[i] + 1e-12
                assert bundle.g2[i] <= bundle.f2[i] + 1e-12
                assert (
                    bundle.f1[i] - 1e-12
                    <= bundle.v1[i]
                    <= bundle.g1[i] + 1e-12
                )
                assert (
                    bundle.g2[i] - 1e-12
                    <= bundle.v2[i]
                    <= bundle.f2[i] + 1e-12
                )
            for leaf in doc.tree.leaves:
                assert bundle.v1[leaf] == bundle.f1[leaf]
                assert bundle.v2[leaf] == bundle.f2[leaf]


class TestSeqEquilibrium:
    def test_matching_game(self, matching_tree, matching_payoffs):
        sol = sg.seq_equilibrium(matching_tree, matching_payoffs)
        assert sol.values == approx((0.0, 0.0), abs=1e-12)
        assert sol.rho_star.initial.realized(matching_tree) == (0,)
        # Player 2's reply to the time-0 stop is to wait.
        assert sol.tau_star.adjust.rules[0].realized(matching_tree) == (1,)
        assert sol.p1_settle.realized(matching_tree) == (0,)
        assert sol.p2_settle.realized(matching_tree) == (0,)
        assert sol.diagnostics.clean
        report = sg.check_equilibrium(
            matching_tree, matching_payoffs, "seq", (sol.rho_star, sol.tau_star)
        )
        assert report.passed
        assert max(report.gaps) <= 1e-12

    def test_constant_payoffs(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: 0.7)
        sol = sg.seq_equilibrium(tree, field)
        assert sol.values == approx((0.7, 0.7), abs=1e-12)
        report = sg.check_equilibrium(tree, field, "seq", (sol.rho_star, sol.tau_star))
        assert report.passed

    def test_corner_game_is_solved_correctly(self):
        tree, field = _corner_game()
        sol = sg.seq_equilibrium(tree, field)
        report = sg.check_equilibrium(tree, field, "seq", (sol.rho_star, sol.tau_star))
        assert report.passed
        assert sol.values == approx((0.8, 0.9), abs=1e-12)
        enum = sg.enumerate_oracle(tree, field, "seq")
        eq_payoffs = {enum.payoffs[i][j] for i, j in enum.equilibria}
        assert sol.values in eq_payoffs

    def test_corner_game_breaks_threshold_assembly(self):
        # The settle/reply threshold rules both stop at the root here; that
        # profile hands player 1 a unit best-response gap, which is exactly
        # why the solver builds the profile by stage recursion instead.
        tree, field = _corner_game()
        sol = sg.seq_equilibrium(tree, field)
        assert sol.p2_settle.realized(tree) == (0,)
        assert sol.p1_reply_time.realized(tree) == (0,)
        literal = (
            sg.Strategy(sol.p1_reply_time, sol.bundle.later_max1),
            sg.Strategy(sol.p2_settle, sol.bundle.reply_max2),
        )
        report = sg.check_equilibrium(tree, field, "seq", literal)
        assert not report.passed
        assert report.gaps[0] == approx(1.0, abs=1e-12)

    def test_random_games_certified(self):
        for seed in range(25):
            doc = gamefile.generate_random_game(1 + seed % 4, 1 + seed % 3, seed=seed)
            tree, field = doc.tree, doc.payoff_field()
            sol = sg.seq_equilibrium(tree, field)
            assert sol.diagnostics.clean, (seed, sol.diagnostics.defects)
            report = sg.check_equilibrium(tree, field, "seq", (sol.rho_star, sol.tau_star))
            assert report.passed, (seed, report.gaps)

    def test_output_in_enumerated_equilibrium_set(self, matching_tree, matching_payoffs):
        sol = sg.seq_equilibrium(matching_tree, matching_payoffs)
        enum = sg.enumerate_oracle(matching_tree, matching_payoffs, "seq")
        assert enum.equilibria  # pure equilibria exist in the sequential game

        signatures = {
            (
                canonical_signature(matching_tree, enum.strategies1[i]),
                canonical_signature(matching_tree, enum.strategies2[j]),
            )
            for i, j in enum.equilibria
        }
        ours = (
            canonical_signature(matching_tree, sol.rho_star),
            canonical_signature(matching_tree, sol.tau_star),
        )
        assert ours in signatures

    def test_output_in_enumerated_set_on_random_small_games(self):
        for seed in range(6):
            doc = gamefile.generate_random_game(1, 1 + seed % 2, seed=60 + seed)
            tree, field = doc.tree, doc.payoff_field()
            sol = sg.seq_equilibrium(tree, field)
            enum = sg.enumerate_oracle(tree, field, "seq")
            signatures = {
                (
                    canonical_signature(tree, enum.strategies1[i]),
                    canonical_signature(tree, enum.strategies2[j]),
                )
                for i, j in enum.equilibria
            }
            ours = (
                canonical_signature(tree, sol.rho_star),
                canonical_signature(tree, sol.tau_star),
            )
            assert ours in signatures, seed

    def test_hitting_times_never_clamp(self):
        for seed in range(20):
            doc = gamefile.generate_random_game(4, 2, seed=700 + seed)
            sol = sg.seq_equilibrium(doc.tree, doc.payoff_field())
            d = sol.diagnostics
            assert not d.settle1_clamped
            assert not d.settle2_clamped
            assert not d.reply1_clamped
            assert not d.reply2_clamped
            assert d.settle1_before_floor_hit

    def test_stopped_values_are_submartingales(self):
        for seed in range(15):
            doc = gamefile.generate_random_game(3, 3, seed=800 + seed)
            sol = sg.seq_equilibrium(doc.tree, doc.payoff_field())
            assert stopped_submartingale_ok(doc.tree, sol.bundle.v1, sol.p1_settle)
            assert stopped_submartingale_ok(doc.tree, sol.bundle.v2, sol.p2_settle)
