"""The payoff field's table memo: each reaction and lone-stopper table is
computed once per field, and a cached table is the table a fresh field
computes."""

from __future__ import annotations

import io
import sys
from collections import Counter

import pytest

import stopgames as sg
from stopgames import gamefile
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
