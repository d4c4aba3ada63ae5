"""The payoff field's memos: each reaction and lone-stopper table, and each
profile's payoff, pure or mixed, is computed once per field, and a cached
result is the one a fresh field computes.  A reaction table is built with
its adjustment family only where a caller reads the family, and on a
zero-sum field one player's table is the other's mirrored."""

from __future__ import annotations

import importlib
import io
import sys
from collections import Counter

import pytest

import stopgames as sg
from stopgames import gamefile, strategies
from stopgames.cli import run
from stopgames.strategies import stop_alone_values

HORIZON = 4
#: The module, which the package's ``snell`` function would shadow.
snell = importlib.import_module("stopgames.snell")

#: Tables computed per command: reaction tables swept with their family,
#: swept for their values only and mirrored from the other player's, then
#: lone-stopper tables.
EXPECTED = {
    ("solve-sim",): (2, 0, 0, 4),
    ("solve-seq",): (2, 2, 0, 2),
    ("solve-zs",): (2, 0, 1, 2),
    ("verify", "sim"): (0, 2, 0, 4),
    ("verify", "seq"): (0, 2, 0, 2),
    ("verify", "zs"): (0, 2, 0, 2),
}


@pytest.fixture()
def games(tmp_path):
    paths = {}
    for kind, extra in (("general", []), ("zs", ["--zero-sum"])):
        path = str(tmp_path / f"{kind}.json")
        argv = ["gen", "--horizon", str(HORIZON), "--branching", "2", "--seed", "7"]
        assert run(argv + extra + ["-o", path], io.StringIO()) == 0
        paths[kind] = path
    return paths


class _CountingTables(dict):
    """A field's table memo that counts the tables stored in it, one store
    per miss: ``reaction`` and ``alone`` (lone-stopper) tables."""

    def __init__(self, counts: Counter):
        super().__init__()
        self.counts = counts

    def __setitem__(self, key, table):
        self.counts["reaction" if isinstance(table, sg.ReactionValue) else "alone"] += 1
        super().__setitem__(key, table)


@pytest.fixture()
def computed(monkeypatch):
    """Count the tables every payoff field computes, that is its memo's
    misses, and the reaction sweeps behind them by whether they build the
    adjustment family."""
    counts: Counter = Counter()
    original = sg.PayoffField.__init__
    sweep = snell._sweep

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._tables = _CountingTables(counts)

    def counted_sweep(tree, rewards, roots, strict, use_max, tol, family=True):
        counts["family" if family else "values"] += 1
        return sweep(tree, rewards, roots, strict, use_max, tol, family)

    monkeypatch.setattr(sg.PayoffField, "__init__", init)
    monkeypatch.setattr(snell, "_sweep", counted_sweep)
    return counts


def made(counts: Counter) -> tuple[int, int, int, int]:
    """Reaction tables swept with their family, swept for their values only
    and mirrored (stored without a sweep), then lone-stopper tables."""
    swept = counts["family"] + counts["values"]
    return counts["family"], counts["values"], counts["reaction"] - swept, counts["alone"]


@pytest.mark.parametrize("command", list(EXPECTED), ids=" ".join)
def test_each_table_is_computed_once_per_field(games, computed, tmp_path, command):
    mode = command[-1].removeprefix("solve-")
    game = games["zs" if mode == "zs" else "general"]
    if command[0] == "verify":
        profile = str(tmp_path / "profile.json")
        argv = [f"solve-{mode}", game, "--profile-out", profile]
        assert run(argv, io.StringIO()) == 0
        argv = ["verify", game, "--mode", mode, "--profile", profile]
    else:
        argv = [command[0], game]
    computed.clear()
    assert run(argv, io.StringIO()) == 0
    assert made(computed) == EXPECTED[command]


def _hex(values) -> list[str]:
    return [float.hex(v) for v in values]


def test_cached_tables_match_a_fresh_field():
    doc = gamefile.generate_random_game(HORIZON, 2, seed=3)
    field = doc.payoff_field()
    sim = sg.sim_equilibrium(field)
    seq = sg.seq_equilibrium(field)
    assert sg.check_equilibrium(field, "sim", (sim.rho, sim.tau)).passed
    sg.check_equilibrium(field, "seq", (seq.rho_star, seq.tau_star))
    keys = list(field._tables)
    # Reaction tables: 2 for sim, 4 for seq, one of them player 1's strict
    # "first" table that sim also uses.  Lone-stopper tables: 4 for sim, 2 for
    # seq, one of them player 2's against that table's family, as in sim.
    assert len(keys) == (2 + 4 - 1) + (4 + 2 - 1)
    # Seq reads only the values of player 1's inclusive min and player 2's
    # strict min.
    assert {key for key in keys if getattr(field._tables[key], "family", 0) is None} == {
        (1, "second", "inclusive", "min"),
        (2, "first", "strict", "min"),
    }
    for key in keys:
        fresh = doc.payoff_field()
        cached = field._tables[key]
        if isinstance(cached, sg.ReactionValue):
            family = cached.family is not None
            again = sg.reaction_value(fresh, *key, family=family)
            assert _hex(cached.process) == _hex(again.process)
            assert cached.family == again.family
            assert sg.reaction_value(field, *key, family=family) is cached
        else:
            # A lone-stopper entry is keyed by its family's id and holds it.
            player, stopper, _ = key
            family, table = cached
            again = stop_alone_values(fresh, player, stopper, family)
            assert _hex(table) == _hex(again)
            assert stop_alone_values(field, player, stopper, family) is table


def test_a_lone_stopper_lookup_hashes_no_family(monkeypatch):
    field = gamefile.generate_random_game(HORIZON, 2, seed=3).payoff_field()
    family = sg.reaction_value(field, 1, "first", "strict", "max").family

    def refuse(self):
        raise AssertionError("an adjustment family was hashed")

    monkeypatch.setattr(strategies.AdjustmentFamily, "__hash__", refuse)
    table = stop_alone_values(field, 2, 2, family)
    assert stop_alone_values(field, 2, 2, family) is table


def test_fields_on_twin_trees_compute_their_own_tables(computed):
    doc = gamefile.generate_random_game(HORIZON, 2, seed=5)
    field = doc.payoff_field()
    twin = gamefile.parse(gamefile.emit(doc)).payoff_field()
    assert twin.tree is not field.tree
    args = (1, "first", "strict", "max")
    first = sg.reaction_value(field, *args)
    assert sg.reaction_value(field, *args) is first
    assert made(computed) == (1, 0, 0, 0)
    second = sg.reaction_value(twin, *args)
    assert second is not first
    assert made(computed) == (2, 0, 0, 0)
    assert _hex(second.process) == _hex(first.process)
    assert second.family == first.family
    alone = stop_alone_values(field, 2, 2, first.family)
    twin_alone = stop_alone_values(twin, 2, 2, second.family)
    assert twin_alone is not alone
    assert made(computed) == (2, 0, 0, 2)
    assert _hex(twin_alone) == _hex(alone)


def test_a_family_table_serves_a_values_only_call(computed):
    field = gamefile.generate_random_game(HORIZON, 2, seed=3).payoff_field()
    args = (2, "second", "strict", "max")
    table = sg.reaction_value(field, *args)
    assert sg.reaction_value(field, *args, family=False) is table
    assert made(computed) == (1, 0, 0, 0)


def test_a_values_only_table_is_swept_again_for_its_family(computed):
    field = gamefile.generate_random_game(HORIZON, 2, seed=3).payoff_field()
    args = (1, "first", "inclusive", "min")
    values = sg.reaction_value(field, *args, family=False)
    assert values.family is None
    assert sg.reaction_value(field, *args, family=False) is values
    assert made(computed) == (0, 1, 0, 0)
    table = sg.reaction_value(field, *args)
    assert table.family is not None
    assert sg.reaction_value(field, *args, family=False) is table
    assert made(computed) == (1, 1, 0, 0)
    assert _hex(table.process) == _hex(values.process)


def test_a_zero_sum_field_mirrors_the_other_players_table(computed):
    doc = gamefile.generate_random_game(HORIZON, 2, seed=3, zero_sum=True)
    field = doc.zero_sum_field()
    solved = sg.reaction_value(field, 1, "second", "inclusive", "min")
    mirrored = sg.reaction_value(field, 2, "second", "inclusive", "max")
    assert mirrored.family is solved.family
    assert made(computed) == (1, 0, 1, 0)
    # A values-only table is mirrored for a values-only call, and swept
    # again for a call that needs the family; that one is then mirrored.
    values = sg.reaction_value(field, 2, "first", "strict", "max", family=False)
    assert sg.reaction_value(field, 1, "first", "strict", "min", family=False).family is None
    assert made(computed) == (1, 1, 2, 0)
    sg.reaction_value(field, 1, "first", "strict", "min")
    assert made(computed) == (2, 1, 2, 0)
    again = sg.reaction_value(field, 2, "first", "strict", "max")
    assert _hex(again.process) == _hex(values.process)
    assert made(computed) == (2, 1, 3, 0)
    # The same rows in a field not built as zero-sum are swept.
    rows = [field.row(p, s, t) for p in (1, 2) for s, t in field.tree.stop_pairs]
    plain = sg.PayoffField(field.tree, rows)
    sg.reaction_value(plain, 1, "second", "inclusive", "min")
    sg.reaction_value(plain, 2, "second", "inclusive", "max")
    assert made(computed) == (4, 1, 3, 0)


@pytest.fixture()
def mixed_calls(monkeypatch):
    """Count payoff_mixed_sim calls through every module that binds it, and
    the backward recursions behind them."""
    counts: Counter = Counter()
    original = strategies.payoff_mixed_sim
    recursion = strategies._mixed_values

    def counted(*args, **kwargs):
        counts["payoff_mixed_sim"] += 1
        return original(*args, **kwargs)

    def counted_recursion(*args, **kwargs):
        counts["recursion"] += 1
        return recursion(*args, **kwargs)

    for module in ("stopgames.strategies", "stopgames.simultaneous", "stopgames.verify"):
        monkeypatch.setattr(sys.modules[module], "payoff_mixed_sim", counted)
    monkeypatch.setattr(strategies, "_mixed_values", counted_recursion)
    return counts


def test_solve_sim_computes_its_mixed_payoff_once(games, mixed_calls):
    assert run(["solve-sim", games["general"]], io.StringIO()) == 0
    assert mixed_calls == {"payoff_mixed_sim": 2, "recursion": 1}


def _sim_profile():
    doc = gamefile.generate_random_game(HORIZON, 2, seed=11)
    sol = sg.sim_equilibrium(doc.payoff_field())
    return doc, sol.rho, sol.tau


def test_cached_mixed_payoff_matches_a_fresh_field():
    doc, rho, tau = _sim_profile()
    field = doc.payoff_field()
    first = sg.payoff_mixed_sim(field, rho, tau)
    assert sg.payoff_mixed_sim(field, rho, tau) is first
    assert _hex(first) == _hex(sg.payoff_mixed_sim(doc.payoff_field(), rho, tau))


def test_equal_profiles_with_a_zero_of_other_sign_are_not_shared(mixed_calls):
    doc, rho, tau = _sim_profile()
    probs = list(rho.initial.probs)
    zero = probs.index(0.0)
    probs[zero] = -0.0
    twin = sg.Strategy(sg.RandomizedStoppingTime(tuple(probs)), rho.adjust)
    assert twin == rho and twin is not rho
    field = doc.payoff_field()
    mixed_calls.clear()
    values = sg.payoff_mixed_sim(field, rho, tau)
    twin_values = sg.payoff_mixed_sim(field, twin, tau)
    assert mixed_calls["recursion"] == 2
    fresh = sg.payoff_mixed_sim(doc.payoff_field(), twin, tau)
    assert _hex(twin_values) == _hex(fresh)
    assert _hex(values) == _hex(sg.payoff_mixed_sim(doc.payoff_field(), rho, tau))


def test_each_mixed_strategy_is_validated_once_per_field(monkeypatch):
    doc, rho, tau = _sim_profile()
    field = doc.payoff_field()
    validated = Counter()
    original = sg.Strategy.validate

    def counted(self, tree):
        validated[id(self)] += 1
        return original(self, tree)

    monkeypatch.setattr(sg.Strategy, "validate", counted)
    for _ in range(3):
        sg.payoff_mixed_sim(field, rho, tau)
    sg.best_response(field, "sim", 1, tau)
    sg.best_response(field, "sim", 2, rho)
    assert validated == {id(rho): 1, id(tau): 1}
    # A profile built for another tree is refused on that tree's field,
    # cached payoff or not, and on every call.
    other = gamefile.generate_random_game(HORIZON + 1, 2, seed=11).payoff_field()
    for _ in range(2):
        with pytest.raises(sg.GameSpecError, match="do not cover the tree"):
            sg.payoff_mixed_sim(other, rho, tau)
    assert validated == {id(rho): 3, id(tau): 1}


@pytest.fixture()
def pure_calls(monkeypatch):
    """Count the pure-payoff evaluations behind payoff_pure."""
    counts: Counter = Counter()
    original = strategies._payoff_pure_core

    def counted(*args, **kwargs):
        counts[args[1]] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(strategies, "_payoff_pure_core", counted)
    return counts


@pytest.mark.parametrize("mode", ["seq", "zs"])
def test_a_solve_evaluates_its_pure_profile_once(games, pure_calls, mode):
    game = games["zs" if mode == "zs" else "general"]
    assert run([f"solve-{mode}", game], io.StringIO()) == 0
    assert pure_calls == {"seq": 1}


def test_cached_pure_payoff_matches_a_fresh_field():
    doc = gamefile.generate_random_game(HORIZON, 2, seed=13)
    sol = sg.seq_equilibrium(doc.payoff_field())
    field = doc.payoff_field()
    first = sg.payoff_pure(field, "seq", sol.rho_star, sol.tau_star)
    assert sg.payoff_pure(field, "seq", sol.rho_star, sol.tau_star) is first
    assert first == sol.values
    again = sg.payoff_pure(doc.payoff_field(), "seq", sol.rho_star, sol.tau_star)
    assert _hex(first) == _hex(again)


def test_each_pure_strategy_is_validated_once_per_field(monkeypatch, pure_calls):
    doc = gamefile.generate_random_game(HORIZON, 2, seed=13)
    sol = sg.seq_equilibrium(doc.payoff_field())
    field = doc.payoff_field()
    validated = Counter()
    original = sg.Strategy.validate

    def counted(self, tree):
        validated[id(self)] += 1
        return original(self, tree)

    monkeypatch.setattr(sg.Strategy, "validate", counted)
    pure_calls.clear()
    for _ in range(3):
        sg.payoff_pure(field, "seq", sol.rho_star, sol.tau_star)
    sg.best_response(field, "seq", 1, sol.tau_star)
    sg.best_response(field, "seq", 2, sol.rho_star)
    assert validated == {id(sol.rho_star): 1, id(sol.tau_star): 1}
    assert pure_calls == {"seq": 1}
    # The sim mode checks its own strategy classes, cached payoff or not.
    with pytest.raises(sg.GameSpecError, match="two type-A"):
        sg.payoff_pure(field, "sim", sol.rho_star, sol.tau_star)
    # A fresh field validates again.
    sg.payoff_pure(doc.payoff_field(), "seq", sol.rho_star, sol.tau_star)
    assert validated == {id(sol.rho_star): 2, id(sol.tau_star): 2}
