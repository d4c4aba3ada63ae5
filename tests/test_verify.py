"""Best-response oracles, certification, and exhaustive enumeration."""

from __future__ import annotations

import pytest
from pytest import approx

import stopgames as sg
from stopgames import gamefile

from conftest import (
    as_mixed,
    canonical_stopping_time,
    chain_tree,
    field_from_function,
    matching_field,
    reference_first_stops,
)


def _forced_family_a(tree):
    rule = sg.constant_stopping_time(tree, min(1, tree.horizon))
    return sg.AdjustmentFamily(tuple(rule for _ in range(tree.horizon + 1)), strict=True)


class TestBestResponse:
    def test_seq_player_two_replies_late(self, matching_tree, matching_payoffs):
        rho = sg.Strategy(
            sg.constant_stopping_time(matching_tree, 0), _forced_family_a(matching_tree)
        )
        value, strategy = sg.best_response(matching_payoffs, "seq", 2, rho)
        assert value == approx(0.0, abs=1e-12)
        assert strategy.adjust.rules[0].realized(matching_tree) == (1,)

    def test_constant_payoff_any_mode(self):
        tree = chain_tree(2)
        field = field_from_function(tree, lambda i, s, t, n: 0.9)
        rho = sg.Strategy(
            sg.constant_stopping_time(tree, 0),
            sg.AdjustmentFamily(
                tuple(sg.constant_stopping_time(tree, min(t + 1, 2)) for t in range(3)),
                strict=True,
            ),
        )
        value, _ = sg.best_response(field, "seq", 2, rho)
        assert value == approx(0.9, abs=1e-12)
        value, _ = sg.best_response(field, "sim", 1, as_mixed(rho))
        assert value == approx(0.9, abs=1e-12)

    def test_sim_vs_half_half_opponent(self, matching_tree, matching_payoffs):
        half = sg.Strategy(
            sg.RandomizedStoppingTime((0.5, 1.0)), _forced_family_a(matching_tree)
        )
        value, _ = sg.best_response(matching_payoffs, "sim", 1, half)
        assert value == approx(0.5, abs=1e-12)

    def test_class_mismatch(self, matching_tree, matching_payoffs):
        rho = sg.Strategy(
            sg.constant_stopping_time(matching_tree, 0), _forced_family_a(matching_tree)
        )
        with pytest.raises(sg.GameSpecError, match="type"):
            sg.best_response(matching_payoffs, "seq", 1, rho)

    def test_dp_matches_pure_enumeration_seq(self):
        for seed in range(6):
            doc = gamefile.generate_random_game(2, 2, seed=seed)
            tree, field = doc.tree, doc.payoff_field()
            taus = sg.enumerate_strategies(tree, "b")
            fixed_tau = taus[seed % len(taus)]
            value, strategy = sg.best_response(field, "seq", 1, fixed_tau)
            best = max(
                sg.payoff_pure(field, "seq", rho, fixed_tau)[0]
                for rho in sg.enumerate_strategies(tree, "a")
            )
            assert value == approx(best, abs=1e-12)
            achieved = sg.payoff_pure(field, "seq", strategy, fixed_tau)[0]
            assert achieved == approx(value, abs=1e-12)

            rhos = sg.enumerate_strategies(tree, "a")
            fixed_rho = rhos[seed % len(rhos)]
            value2, strategy2 = sg.best_response(field, "seq", 2, fixed_rho)
            best2 = max(
                sg.payoff_pure(field, "seq", fixed_rho, tau)[1] for tau in taus
            )
            assert value2 == approx(best2, abs=1e-12)
            achieved2 = sg.payoff_pure(field, "seq", fixed_rho, strategy2)[1]
            assert achieved2 == approx(value2, abs=1e-12)

    def test_dp_matches_pure_enumeration_sim_vs_mixed(self):
        for seed in range(4):
            doc = gamefile.generate_random_game(2, 2, seed=40 + seed)
            tree, field = doc.tree, doc.payoff_field()
            bundle = sg.sim_processes(field)
            probs = tuple(
                1.0 if tree.nodes[i].time == tree.horizon else 0.25 + 0.5 * ((i * 13) % 3) / 2.0
                for i in range(tree.n_nodes)
            )
            opponent = sg.Strategy(
                sg.RandomizedStoppingTime(probs), bundle.tau1_star
            )
            value, strategy = sg.best_response(field, "sim", 1, opponent)
            best = max(
                sg.payoff_mixed_sim(field, as_mixed(rho), opponent)[0]
                for rho in sg.enumerate_strategies(tree, "a")
            )
            assert value == approx(best, abs=1e-12)
            achieved = sg.payoff_mixed_sim(field, as_mixed(strategy), opponent)[0]
            assert achieved == approx(value, abs=1e-12)

    @pytest.mark.parametrize("horizon", [0, 1, 2])
    @pytest.mark.parametrize("branching", [1, 2])
    def test_dp_matches_pure_enumeration_seq_not_before(self, horizon, branching):
        for seed in range(2):
            doc = gamefile.generate_random_game(horizon, branching, seed=70 + seed)
            tree, field = doc.tree, doc.payoff_field()
            sol = sg.seq_equilibrium(field)
            for s in range(horizon + 1):
                sigma = sg.constant_stopping_time(tree, s)
                for player, kind, opponent in ((1, "a", sol.tau_star), (2, "b", sol.rho_star)):
                    def payoff(own):
                        profile = (own, opponent) if player == 1 else (opponent, own)
                        return sg.payoff_pure(field, "seq", *profile)[player - 1]

                    value, strategy = sg.best_response(
                        field, "seq", player, opponent, not_before=sigma
                    )
                    best = max(
                        payoff(own)
                        for own in sg.enumerate_strategies(tree, kind)
                        if min(own.initial.realized(tree)) >= s
                    )
                    assert value == approx(best, abs=1e-12)
                    assert min(strategy.initial.realized(tree)) >= s
                    assert payoff(strategy) == approx(value, abs=1e-12)

    def test_oracle_coherence_on_random_candidates(self):
        for seed in range(8):
            doc = gamefile.generate_random_game(3, 2, seed=900 + seed)
            tree, field = doc.tree, doc.payoff_field()
            sol = sg.seq_equilibrium(field)
            # Perturb the candidate by forcing an immediate stop.
            candidate = (
                sg.Strategy(sg.constant_stopping_time(tree, 0), sol.rho_star.adjust),
                sol.tau_star,
            )
            values = sg.payoff_pure(field, "seq", *candidate)
            br1, _ = sg.best_response(field, "seq", 1, candidate[1])
            br2, _ = sg.best_response(field, "seq", 2, candidate[0])
            assert br1 >= values[0] - 1e-9
            assert br2 >= values[1] - 1e-9


class TestCheckEquilibrium:
    def test_seq_equilibrium_passes(self, matching_payoffs):
        sol = sg.seq_equilibrium(matching_payoffs)
        report = sg.check_equilibrium(
            matching_payoffs, "seq", (sol.rho_star, sol.tau_star)
        )
        assert report.passed
        assert report.gaps == approx((0.0, 0.0), abs=1e-12)

    def test_both_stop_now_fails_for_player_two(self, matching_tree, matching_payoffs):
        sure = sg.Strategy(
            sg.RandomizedStoppingTime((1.0, 1.0)), _forced_family_a(matching_tree)
        )
        report = sg.check_equilibrium(
            matching_payoffs, "sim", (sure, sure)
        )
        assert not report.passed
        assert report.values == (1.0, -1.0)
        assert report.gaps[0] == approx(0.0, abs=1e-12)
        assert report.gaps[1] == approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "marks, message",
        [((True,), "do not cover the tree"), ((False,) * 7, "at the horizon must stop")],
    )
    def test_not_before_must_be_a_stopping_time(self, marks, message):
        doc = gamefile.generate_random_game(2, 2, seed=17, zero_sum=True)
        field = doc.zero_sum_field()
        saddle = sg.zero_sum_saddle(field)
        profile = (saddle.rho_star, saddle.tau_star)
        with pytest.raises(sg.GameSpecError, match=message):
            sg.check_equilibrium(field, "zs", profile, not_before=sg.StoppingTime(marks))

    def test_a_profile_that_stops_before_not_before_is_refused(self):
        # Each player's initial rule solved at sigma 0 against the other's
        # solved at the horizon, certified from the horizon on: the first
        # node in canonical order where the early rule stops is named.
        refused = set()
        for seed in range(6):
            doc = gamefile.generate_random_game(2, 2, seed=seed, zero_sum=True)
            field = doc.zero_sum_field()
            tree = doc.tree
            late = sg.constant_stopping_time(tree, 2)
            solved = sg.zero_sum_saddle(field, late)
            early = sg.zero_sum_saddle(field)
            profile = (solved.rho_star, solved.tau_star)
            assert sg.check_equilibrium(field, "zs", profile, not_before=late).passed
            for player in (1, 2):
                swapped = list(profile)
                swapped[player - 1] = (early.rho_star, early.tau_star)[player - 1]
                first = reference_first_stops(tree, swapped[player - 1].initial.marks)
                stops = [n for n in tree.nodes if first[n.index] == n.index and n.time < 2]
                if not stops:
                    sg.check_equilibrium(field, "zs", tuple(swapped), not_before=late)
                    continue
                message = f"player {player}'s initial rule stops at node {stops[0].id}, before"
                with pytest.raises(sg.GameSpecError, match=message):
                    sg.check_equilibrium(field, "zs", tuple(swapped), not_before=late)
                refused.add(player)
        assert refused == {1, 2}

    def test_a_mixed_profile_that_may_stop_before_not_before_is_refused(
        self, matching_tree, matching_payoffs
    ):
        half = sg.Strategy(
            sg.RandomizedStoppingTime((0.5, 1.0)), _forced_family_a(matching_tree)
        )
        never = sg.Strategy(
            sg.RandomizedStoppingTime((-0.0, 1.0)), _forced_family_a(matching_tree)
        )
        late = sg.constant_stopping_time(matching_tree, 1)
        sg.check_equilibrium(matching_payoffs, "sim", (never, never), not_before=late)
        with pytest.raises(sg.GameSpecError, match="player 2's initial rule stops at node 0:0"):
            sg.check_equilibrium(matching_payoffs, "sim", (never, half), not_before=late)

    def test_constant_game_any_profile_passes(self):
        tree = chain_tree(1)
        field = field_from_function(tree, lambda i, s, t, n: 0.1)
        sure = sg.Strategy(
            sg.RandomizedStoppingTime((1.0, 1.0)), _forced_family_a(tree)
        )
        report = sg.check_equilibrium(field, "sim", (sure, sure))
        assert report.passed
        assert report.gaps == approx((0.0, 0.0), abs=1e-12)


def _strategy_of_class(tree, mixed, strict):
    """A valid strategy of the given class; every rule stops at the horizon."""
    initial = (
        sg.RandomizedStoppingTime((0.5,) * tree.horizon + (1.0,))
        if mixed
        else sg.constant_stopping_time(tree, 0)
    )
    rule = sg.constant_stopping_time(tree, tree.horizon)
    family = sg.AdjustmentFamily((rule,) * (tree.horizon + 1), strict=strict)
    return sg.Strategy(initial, family)


_CLASSES = [(False, True), (False, False), (True, True), (True, False)]

# Each entry: a call taking (field, rho, tau), which slot is varied, and
# the (mixed, strict) class that slot needs.  The other slot holds its own
# required class.
_CLASS_CASES = {
    "payoff_pure-sim": (
        lambda f, r, t: sg.payoff_pure(f, "sim", r, t),
        ((False, True), (False, True)),
    ),
    "payoff_pure-seq": (
        lambda f, r, t: sg.payoff_pure(f, "seq", r, t),
        ((False, True), (False, False)),
    ),
    "payoff_mixed_sim": (
        lambda f, r, t: sg.payoff_mixed_sim(f, r, t),
        ((True, True), (True, True)),
    ),
    "check_equilibrium-sim": (
        lambda f, r, t: sg.check_equilibrium(f, "sim", (r, t)),
        ((True, True), (True, True)),
    ),
    "check_equilibrium-seq": (
        lambda f, r, t: sg.check_equilibrium(f, "seq", (r, t)),
        ((False, True), (False, False)),
    ),
    # best_response sees only the opponent: player 1 responds to tau, 2 to rho.
    "best_response-sim-1": (
        lambda f, r, t: sg.best_response(f, "sim", 1, t),
        (None, (True, True)),
    ),
    "best_response-sim-2": (
        lambda f, r, t: sg.best_response(f, "sim", 2, r),
        ((True, True), None),
    ),
    "best_response-seq-1": (
        lambda f, r, t: sg.best_response(f, "seq", 1, t),
        (None, (False, False)),
    ),
    "best_response-seq-2": (
        lambda f, r, t: sg.best_response(f, "seq", 2, r),
        ((False, True), None),
    ),
}


class TestClassChecks:
    @pytest.mark.parametrize("case", sorted(_CLASS_CASES))
    def test_wrong_class_is_a_spec_error(self, case):
        tree = chain_tree(2)
        field = matching_field(tree)
        call, needs = _CLASS_CASES[case]
        right = [_strategy_of_class(tree, *cls) if cls else None for cls in needs]
        call(field, *right)
        for slot, cls in enumerate(needs):
            if cls is None:
                continue
            for wrong in _CLASSES:
                if wrong == cls:
                    continue
                profile = list(right)
                profile[slot] = _strategy_of_class(tree, *wrong)
                with pytest.raises(sg.GameSpecError, match="type"):
                    call(field, *profile)


class TestEnumeration:
    def test_stopping_time_counts(self):
        chain = chain_tree(3)
        assert sg.count_stopping_times(chain) == 4
        assert sg.count_stopping_times(chain, min_level=2) == 2
        tree = gamefile.generate_random_game(2, 2, seed=0).tree
        assert sg.count_stopping_times(tree) == 5
        assert len(sg.enumerate_stopping_times(tree)) == 5

    def test_deep_chain_counts_without_recursion(self):
        tree = chain_tree(1500)
        assert sg.count_stopping_times(tree) == 1501
        assert len(sg.enumerate_stopping_times(tree)) == 1501

    def test_cap_error_reports_huge_counts(self):
        count = sg.count_strategies(chain_tree(1200), "b")
        error = sg.EnumerationCapError(count, 10)
        assert error.count == count
        assert str(error).startswith("enumeration needs about 10^")

    def test_enumerated_stopping_times_are_canonical_and_distinct(self):
        tree = gamefile.generate_random_game(2, 2, seed=1).tree
        sts = sg.enumerate_stopping_times(tree)
        assert len({st.marks for st in sts}) == len(sts)
        for st in sts:
            assert canonical_stopping_time(tree, st) == st

    def test_strategy_counts_match_materialization(self, matching_tree):
        assert sg.count_strategies(matching_tree, "a") == 2
        assert sg.count_strategies(matching_tree, "b") == 4
        assert len(sg.enumerate_strategies(matching_tree, "a")) == 2
        assert len(sg.enumerate_strategies(matching_tree, "b")) == 4

    def test_matching_game_table(self, matching_payoffs):
        result = sg.enumerate_oracle(matching_payoffs, "sim")
        assert len(result.strategies1) == 2
        assert len(result.strategies2) == 2
        payoffs = {
            result.payoffs[i][j] for i in range(2) for j in range(2)
        }
        assert payoffs == {(1.0, -1.0), (0.0, 0.0)}
        assert result.equilibria == ()

    def test_seq_table_has_equilibrium(self, matching_payoffs):
        result = sg.enumerate_oracle(matching_payoffs, "seq")
        assert len(result.strategies2) == 4
        assert result.equilibria

    def test_constant_game_everything_is_equilibrium(self):
        tree = chain_tree(1)
        field = field_from_function(tree, lambda i, s, t, n: 2.0)
        result = sg.enumerate_oracle(field, "seq")
        assert len(result.equilibria) == len(result.strategies1) * len(
            result.strategies2
        )

    def test_nash_marks_use_the_field_tolerance(self):
        # Player 1 gains 3e-9 by stopping at time 1 instead of time 0: a
        # real gain at unit 1, rounding noise at unit 4.
        tree = chain_tree(1)
        for scale, unit in ((0.5, 1.0), (3.0, 4.0)):
            def payoff(i, s, t, n):
                return scale + (3e-9 if (i, s) == (1, 1) else 0.0)

            field = field_from_function(tree, payoff)
            result = sg.enumerate_oracle(field, "seq")
            assert (field.unit, result.deviation_tol) == (unit, 1e-9 * unit)
            everything = len(result.strategies1) * len(result.strategies2)
            assert (len(result.equilibria) == everything) == (unit == 4.0)

    def test_cap_exceeded_reports_count(self, matching_payoffs):
        with pytest.raises(sg.EnumerationCapError) as info:
            sg.enumerate_oracle(matching_payoffs, "seq", cap=7)
        assert info.value.count == 8
        assert info.value.cap == 7

    def test_enumerated_best_matches_oracle(self, matching_payoffs):
        result = sg.enumerate_oracle(matching_payoffs, "seq")
        for j, tau in enumerate(result.strategies2):
            br, _ = sg.best_response(matching_payoffs, "seq", 1, tau)
            table_best = max(
                result.payoffs[i][j][0] for i in range(len(result.strategies1))
            )
            assert br == approx(table_best, abs=1e-12)
