"""The payoff field's memos: each reaction and lone-stopper table, and each
mixed profile's payoff, is computed once per field, and a cached result is
the one a fresh field computes."""

from __future__ import annotations

import io
import sys
from collections import Counter

import pytest

import stopgames as sg
from stopgames import gamefile, strategies
from stopgames.cli import run
from stopgames.strategies import stop_alone_values

HORIZON = 4

#: Calls per command to snell and expected_at_stop, per T + 1 levels.
EXPECTED = {
    ("solve-sim",): (2, 4),
    ("solve-seq",): (4, 2),
    ("solve-zs",): (3, 2),
    ("verify", "sim"): (2, 4),
    ("verify", "seq"): (2, 2),
    ("verify", "zs"): (2, 2),
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


@pytest.fixture()
def calls(monkeypatch):
    """Count calls to snell and expected_at_stop through their modules."""
    counts: Counter = Counter()
    # The package attribute stopgames.snell is the function; patch the module.
    targets = (("stopgames.snell", "snell"), ("stopgames.strategies", "expected_at_stop"))
    for module, name in targets:
        original = getattr(sys.modules[module], name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sys.modules[module], name, counted)
    return counts


@pytest.mark.parametrize("command", list(EXPECTED), ids=" ".join)
def test_each_table_is_computed_once_per_field(games, calls, tmp_path, command):
    mode = command[-1].removeprefix("solve-")
    game = games["zs" if mode == "zs" else "general"]
    if command[0] == "verify":
        profile = str(tmp_path / "profile.json")
        argv = [f"solve-{mode}", game, "--profile-out", profile]
        assert run(argv, io.StringIO()) == 0
        argv = ["verify", game, "--mode", mode, "--profile", profile]
    else:
        argv = [command[0], game]
    calls.clear()
    assert run(argv, io.StringIO()) == 0
    snell_tables, alone_tables = EXPECTED[command]
    assert (calls["snell"], calls["expected_at_stop"]) == (
        snell_tables * (HORIZON + 1),
        alone_tables * (HORIZON + 1),
    )


def _hex(values) -> list[str]:
    return [float.hex(v) for v in values]


def test_cached_tables_match_a_fresh_field():
    doc = gamefile.generate_random_game(HORIZON, 2, seed=3)
    tree, field = doc.tree, doc.payoff_field()
    sim = sg.sim_equilibrium(tree, field)
    seq = sg.seq_equilibrium(tree, field)
    sg.check_equilibrium(tree, field, "seq", (seq.rho_star, seq.tau_star))
    assert sim.report.passed
    keys = list(field._tables)
    # Reaction tables: 2 for sim, 4 for seq, one of them player 1's strict
    # "first" table that sim also uses.  Lone-stopper tables: 4 for sim, 2 for
    # seq, one of them player 2's against that table's family, as in sim.
    assert len(keys) == (2 + 4 - 1) + (4 + 2 - 1)
    for key in keys:
        fresh = doc.payoff_field()
        cached = field._tables[key]
        if isinstance(cached, sg.ReactionValue):
            again = sg.reaction_value(tree, fresh, *key[1:])
            assert _hex(cached.process) == _hex(again.process)
            assert cached.family == again.family
            assert sg.reaction_value(tree, field, *key[1:]) is cached
        else:
            again = stop_alone_values(tree, fresh, *key[1:])
            assert _hex(cached) == _hex(again)
            assert stop_alone_values(tree, field, *key[1:]) is cached


def test_each_tree_gets_its_own_entry(calls):
    doc = gamefile.generate_random_game(HORIZON, 2, seed=5)
    twin = gamefile.parse(gamefile.emit(doc)).tree
    field = doc.payoff_field()
    args = (1, "first", "strict", "max")
    first = sg.reaction_value(doc.tree, field, *args)
    assert sg.reaction_value(doc.tree, field, *args) is first
    assert calls["snell"] == HORIZON + 1
    second = sg.reaction_value(twin, field, *args)
    assert second is not first
    assert calls["snell"] == 2 * (HORIZON + 1)
    assert _hex(second.process) == _hex(first.process)
    alone = stop_alone_values(doc.tree, field, 2, 2, first.family)
    assert stop_alone_values(twin, field, 2, 2, first.family) is not alone
    assert calls["expected_at_stop"] == 2 * (HORIZON + 1)


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
    sol = sg.sim_equilibrium(doc.tree, doc.payoff_field())
    return doc, sol.rho, sol.tau


def test_cached_mixed_payoff_matches_a_fresh_field():
    doc, rho, tau = _sim_profile()
    field = doc.payoff_field()
    first = sg.payoff_mixed_sim(doc.tree, field, rho, tau)
    assert sg.payoff_mixed_sim(doc.tree, field, rho, tau) is first
    assert _hex(first) == _hex(sg.payoff_mixed_sim(doc.tree, doc.payoff_field(), rho, tau))


def test_equal_profiles_with_a_zero_of_other_sign_are_not_shared(mixed_calls):
    doc, rho, tau = _sim_profile()
    probs = list(rho.initial.probs)
    zero = probs.index(0.0)
    probs[zero] = -0.0
    twin = sg.Strategy(sg.RandomizedStoppingTime(tuple(probs)), rho.adjust)
    assert twin == rho and twin is not rho
    field = doc.payoff_field()
    mixed_calls.clear()
    values = sg.payoff_mixed_sim(doc.tree, field, rho, tau)
    twin_values = sg.payoff_mixed_sim(doc.tree, field, twin, tau)
    assert mixed_calls["recursion"] == 2
    fresh = sg.payoff_mixed_sim(doc.tree, doc.payoff_field(), twin, tau)
    assert _hex(twin_values) == _hex(fresh)
    assert _hex(values) == _hex(sg.payoff_mixed_sim(doc.tree, doc.payoff_field(), rho, tau))


def test_every_call_validates_the_profile(monkeypatch):
    doc, rho, tau = _sim_profile()
    field = doc.payoff_field()
    validated = Counter()
    original = sg.Strategy.validate

    def counted(self, tree):
        validated[id(self)] += 1
        return original(self, tree)

    monkeypatch.setattr(sg.Strategy, "validate", counted)
    for _ in range(3):
        sg.payoff_mixed_sim(doc.tree, field, rho, tau)
    assert validated == {id(rho): 3, id(tau): 3}
    other = gamefile.generate_random_game(HORIZON + 1, 2, seed=11).tree
    with pytest.raises(sg.GameSpecError):
        sg.payoff_mixed_sim(other, field, rho, tau)
