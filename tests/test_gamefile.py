"""Game-file round-trips, validation diagnostics, and random generation."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math

import pytest

import stopgames as sg
from stopgames import gamefile


def _reference_game_text(doc: gamefile.GameDocument) -> str:
    """The game object written by ``json.dumps(obj, indent=2)``: the bytes
    that ``gamefile.emit`` must reproduce."""
    tree = doc.tree
    obj: dict = {"format": gamefile.FORMAT_NAME}
    if doc.name is not None:
        obj["name"] = doc.name
    if doc.seed is not None:
        obj["seed"] = doc.seed
    obj["horizon"] = tree.horizon
    nodes = []
    for node in tree.nodes:
        entry: dict = {"id": node.id, "time": node.time}
        if node.parent is not None:
            entry["parent"] = tree.nodes[node.parent].id
            entry["prob"] = node.edge_prob
        nodes.append(entry)
    obj["nodes"] = nodes
    obj["payoffs"] = {
        str(player): {
            f"{s},{t}": {
                tree.nodes[idx].id: doc.sections[player][(s, t)][tree.nodes[idx].id]
                for idx in tree.levels[max(s, t)]
            }
            for s in range(tree.horizon + 1)
            for t in range(tree.horizon + 1)
        }
        for player in sorted(doc.sections)
    }
    return json.dumps(obj, indent=2) + "\n"


def _reference_profile_text(tree: sg.EventTree, mode: str, profile: tuple) -> str:
    """The profile object written by ``json.dumps(obj, indent=2)``."""

    def marks(rule):
        return {node.id: bool(rule.marks[node.index]) for node in tree.nodes}

    def strategy(x):
        if x.mixed:
            obj = {"stop_prob": {node.id: x.initial.probs[node.index] for node in tree.nodes}}
        else:
            obj = {"stops": marks(x.initial)}
        obj["adjust"] = {str(t): marks(rule) for t, rule in enumerate(x.adjust.rules)}
        return obj

    rho, tau = profile
    obj = {"mode": mode, "player1": strategy(rho), "player2": strategy(tau)}
    return json.dumps(obj, indent=2) + "\n"


def _map_payoffs(doc: gamefile.GameDocument, fn) -> gamefile.GameDocument:
    """`doc` with payoff k (counted in section order) replaced by fn(k, value)."""
    counter = itertools.count()
    sections = {
        player: {
            st: {nid: fn(next(counter), v) for nid, v in per_node.items()}
            for st, per_node in by_st.items()
        }
        for player, by_st in doc.sections.items()
    }
    return dataclasses.replace(doc, sections=sections)


def _odd_values(k: int, v: float):
    """Ints, signed zeros and extreme exponents, in turn."""
    return (round(v), -0.0, 0.0, v * 1e-300, v * 1e22, 7, v)[k % 7]


def _odd_ids_game() -> gamefile.GameDocument:
    """A horizon-1 game whose node ids hold quotes, braces, a newline and
    non-ASCII text."""
    ids = ['r"{', "x},\n      {y", "\u00e9\u4e2d"]
    nodes = [{"id": ids[0], "time": 0}] + [
        {"id": nid, "time": 1, "parent": ids[0], "prob": 0.5} for nid in ids[1:]
    ]
    payoffs = {
        str(player): {
            f"{s},{t}": {nid: 0.25 * k - player for k, nid in enumerate(ids[1:] if max(s, t) else ids[:1])}
            for s in range(2)
            for t in range(2)
        }
        for player in (1, 2)
    }
    text = json.dumps({"horizon": 1, "nodes": nodes, "payoffs": payoffs})
    return gamefile.parse(text)


def _reversed_blocks(doc: gamefile.GameDocument) -> gamefile.GameDocument:
    """`doc` with every payoff block's nodes listed in reverse order."""
    sections = {
        player: {st: dict(reversed(per_node.items())) for st, per_node in by_st.items()}
        for player, by_st in doc.sections.items()
    }
    return dataclasses.replace(doc, sections=sections)


_EMIT_CASES = {
    "odd-node-ids": _odd_ids_game,
    "reversed-blocks": lambda: _reversed_blocks(gamefile.generate_random_game(3, 3, seed=7)),
    "h0": lambda: gamefile.generate_random_game(0, 2, seed=4),
    "h4-b3": lambda: gamefile.generate_random_game(4, 3, seed=1, name="h4"),
    "chain-30": lambda: gamefile.generate_random_game(30, 1, seed=2),
    "zero-sum": lambda: gamefile.generate_random_game(3, 2, seed=9, zero_sum=True),
    "int-and-signed-zero": lambda: _map_payoffs(
        gamefile.generate_random_game(3, 2, seed=3), _odd_values
    ),
    "rounded-zero-sum": lambda: _map_payoffs(
        gamefile.generate_random_game(2, 3, seed=5, zero_sum=True), lambda k, v: round(v)
    ),
    "no-name-no-seed": lambda: dataclasses.replace(
        gamefile.generate_random_game(2, 2, seed=6, name="x"), name=None, seed=None
    ),
    "quoted-name": lambda: gamefile.generate_random_game(
        1, 2, seed=8, name='say "hi"\nna\u00efve \u4e2d\u6587 \\ \t'
    ),
}


class TestRoundTrip:
    def test_parse_emit_exact(self):
        doc = gamefile.generate_random_game(3, 2, seed=5, name="roundtrip")
        text = gamefile.emit(doc)
        again = gamefile.parse(text)
        assert gamefile.emit(again) == text
        assert again.name == "roundtrip"
        assert again.seed == 5
        assert [n.id for n in again.tree.nodes] == [n.id for n in doc.tree.nodes]
        assert again.sections == doc.sections

    def test_bundled_game_loads(self):
        doc = gamefile.load_bundled("matching_times")
        assert doc.horizon == 1
        assert doc.tree.n_nodes == 2
        field = doc.payoff_field()
        assert field.value(1, 0, 0, 0) == 1.0
        assert field.value(2, 1, 1, 1) == -1.0

    def test_zero_sum_single_section(self):
        doc = gamefile.generate_random_game(2, 2, seed=9, zero_sum=True)
        assert set(doc.sections) == {1}
        field = doc.zero_sum_field()
        for s in range(3):
            for t in range(3):
                for idx in doc.tree.levels[max(s, t)]:
                    assert field.value(2, s, t, idx) == -field.value(1, s, t, idx)

    def test_zero_sum_rejects_mismatched_sections(self):
        doc = gamefile.generate_random_game(1, 1, seed=2)
        with pytest.raises(sg.GameSpecError, match="negation"):
            doc.zero_sum_field()

    def test_two_player_field_requires_both_sections(self):
        doc = gamefile.generate_random_game(1, 1, seed=3, zero_sum=True)
        with pytest.raises(sg.GameSpecError, match="players 1 and 2"):
            doc.payoff_field()


class TestEmitBytes:
    @pytest.mark.parametrize("case", sorted(_EMIT_CASES))
    def test_emit_matches_json_dumps(self, case):
        doc = _EMIT_CASES[case]()
        text = gamefile.emit(doc)
        assert text == _reference_game_text(doc)
        assert gamefile.emit(gamefile.parse(text)) == _reference_game_text(
            gamefile.parse(text)
        )

    @pytest.mark.parametrize("mode", ["sim", "seq", "zs"])
    def test_profile_matches_json_dumps(self, mode):
        doc = gamefile.generate_random_game(3, 2, seed=12, zero_sum=mode == "zs")
        tree = doc.tree
        if mode == "sim":
            sol = sg.sim_equilibrium(tree, doc.payoff_field())
            profile = (sol.rho, sol.tau)
        elif mode == "seq":
            sol = sg.seq_equilibrium(tree, doc.payoff_field())
            profile = (sol.rho_star, sol.tau_star)
        else:
            saddle = sg.zero_sum_saddle(tree, doc.zero_sum_field())
            profile = (saddle.rho_star, saddle.tau_star)
        text = gamefile.profile_to_json(tree, mode, profile)
        assert text == _reference_profile_text(tree, mode, profile)


class TestPayoffField:
    def test_int_payoffs_read_as_floats(self):
        doc = _map_payoffs(gamefile.generate_random_game(2, 2, seed=1), lambda k, v: round(v))
        field = doc.payoff_field()
        assert all(type(v) is float for vals in field._data.values() for v in vals)
        parsed = gamefile.parse(gamefile.emit(doc))
        assert all(
            type(v) is float
            for by_st in parsed.sections.values()
            for per_node in by_st.values()
            for v in per_node.values()
        )
        assert parsed.payoff_field()._data == field._data

    def test_zero_sum_negates_int_zero_to_negative_zero(self):
        doc = _map_payoffs(
            gamefile.generate_random_game(1, 1, seed=2, zero_sum=True), lambda k, v: 0
        )
        field = doc.zero_sum_field()
        assert math.copysign(1.0, field.value(1, 0, 0, 0)) == 1.0
        assert math.copysign(1.0, field.value(2, 0, 0, 0)) == -1.0
        assert field.bound == 0.0

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["1"]["1,0"].pop("1:1"), r"payoff missing for node 1:1 at \(s,t\)=\(1, 0\)"),
            (
                lambda p: (p["1"]["0,1"].pop("1:0"), p["1"]["0,1"].update({"0:0": 1.0})),
                r"unknown or off-level node 0:0 at \(s,t\)=\(0, 1\)",
            ),
            (lambda p: p["2"]["1,1"].update({"1:0": float("nan")}), r"non-finite payoff in slice \(2, 1, 1\)"),
            (
                lambda p: (
                    p["2"]["0,0"].update({"0:0": float("inf")}),
                    p["1"]["1,1"].update({"ghost": 0.0}),
                ),
                "ghost",
            ),
        ],
        ids=["missing", "off-level-first", "nan", "structure-before-finite"],
    )
    def test_field_errors(self, edit, message):
        obj = json.loads(gamefile.emit(gamefile.generate_random_game(1, 2, seed=3)))
        edit(obj["payoffs"])
        doc = gamefile.parse(json.dumps(obj))
        with pytest.raises(sg.GameSpecError, match=message):
            doc.payoff_field()


class TestParsing:
    def test_invalid_json_reports_line(self):
        with pytest.raises(sg.GameSpecError, match="line"):
            gamefile.parse("{\n  broken\n}")

    def test_duplicate_keys_rejected(self):
        text = (
            '{"format": "stopping-game-v1", "horizon": 0,'
            ' "nodes": [{"id": "r", "time": 0}],'
            ' "payoffs": {"1": {"0,0": {"r": 1.0, "r": 2.0}, "0,0": {"r": 1.0}},'
            ' "2": {"0,0": {"r": 0.0}}}}'
        )
        with pytest.raises(sg.GameSpecError, match="duplicate key"):
            gamefile.parse(text)

    def test_missing_payoff_entry(self):
        text = (
            '{"format": "stopping-game-v1", "horizon": 1,'
            ' "nodes": [{"id": "r", "time": 0},'
            ' {"id": "a", "time": 1, "parent": "r", "prob": 1.0}],'
            ' "payoffs": {"1": {"0,0": {"r": 1.0}},'
            ' "2": {"0,0": {"r": 1.0}}}}'
        )
        with pytest.raises(sg.GameSpecError, match=r"missing entry \(0,1\)"):
            gamefile.parse(text)

    def test_payoff_for_unknown_node(self):
        text = (
            '{"format": "stopping-game-v1", "horizon": 0,'
            ' "nodes": [{"id": "r", "time": 0}],'
            ' "payoffs": {"1": {"0,0": {"ghost": 1.0}},'
            ' "2": {"0,0": {"r": 0.0}}}}'
        )
        doc = gamefile.parse(text)
        with pytest.raises(sg.GameSpecError, match="ghost"):
            doc.payoff_field()

    def test_integer_payoff_too_large_for_a_float(self):
        obj = json.loads(gamefile.emit(gamefile.generate_random_game(1, 1, seed=3)))
        obj["payoffs"]["2"]["0,1"]["1:0"] = 10**400
        with pytest.raises(sg.GameSpecError, match="too large"):
            gamefile.parse(json.dumps(obj))

    @pytest.mark.parametrize(
        "text, message",
        [("[" * 100_000, "nests too deeply"), ("1" * 5000, "too many digits")],
        ids=["deep nesting", "long integer"],
    )
    def test_undecodable_json_is_a_spec_error(self, text, message):
        with pytest.raises(sg.GameSpecError, match=message):
            gamefile.parse(text)
        tree = gamefile.generate_random_game(1, 1, seed=3).tree
        with pytest.raises(sg.GameSpecError, match=message):
            gamefile.profile_from_json(tree, text, "sim")

    def test_unknown_format(self):
        with pytest.raises(sg.GameSpecError, match="unsupported format"):
            gamefile.parse('{"format": "other", "horizon": 0, "nodes": [], "payoffs": {}}')


class TestGeneration:
    def test_deterministic_from_seed(self):
        a = gamefile.emit(gamefile.generate_random_game(3, 2, seed=7))
        b = gamefile.emit(gamefile.generate_random_game(3, 2, seed=7))
        c = gamefile.emit(gamefile.generate_random_game(3, 2, seed=8))
        assert a == b
        assert a != c

    def test_node_count_geometric(self):
        doc = gamefile.generate_random_game(4, 3, seed=1)
        assert doc.tree.n_nodes == 1 + 3 + 9 + 27 + 81

    def test_horizon_zero(self):
        doc = gamefile.generate_random_game(0, 2, seed=4)
        assert doc.tree.n_nodes == 1
        field = doc.payoff_field()
        assert isinstance(field.value(1, 0, 0, 0), float)
        assert isinstance(field.value(2, 0, 0, 0), float)

    def test_payoffs_in_range(self):
        doc = gamefile.generate_random_game(2, 2, seed=6, payoff_range=(-0.25, 0.5))
        for section in doc.sections.values():
            for per_node in section.values():
                for val in per_node.values():
                    assert -0.25 <= val <= 0.5

    def test_branching_validation(self):
        with pytest.raises(sg.GameSpecError, match="branching"):
            gamefile.generate_random_game(1, 0, seed=0)


class TestProfiles:
    def test_sim_profile_round_trip(self):
        doc = gamefile.load_bundled("matching_times")
        tree, field = doc.tree, doc.payoff_field()
        sol = sg.sim_equilibrium(tree, field)
        text = gamefile.profile_to_json(tree, "sim", (sol.rho, sol.tau))
        rho, tau = gamefile.profile_from_json(tree, text, "sim")
        assert rho.initial.probs == sol.rho.initial.probs
        assert sg.payoff_mixed_sim(tree, field, rho, tau) == sol.values

    def test_seq_profile_round_trip(self):
        doc = gamefile.load_bundled("matching_times")
        tree, field = doc.tree, doc.payoff_field()
        sol = sg.seq_equilibrium(tree, field)
        text = gamefile.profile_to_json(tree, "seq", (sol.rho_star, sol.tau_star))
        rho, tau = gamefile.profile_from_json(tree, text, "seq")
        assert sg.payoff_pure(tree, field, "seq", rho, tau) == sol.values

    @pytest.mark.parametrize(
        "mode, keys, value, message",
        [
            ("seq", ("player1", "stops", "0:0"), "false", "stops at node '0:0' is not a boolean"),
            ("seq", ("player2", "adjust", "0", "1:0"), 0, "adjustment rule .* not a boolean"),
            ("sim", ("player2", "adjust", "1", "1:0"), "true", "adjustment rule .* not a boolean"),
            ("sim", ("player1", "stop_prob", "0:0"), False, "stop_prob .* not a number"),
            ("sim", ("player2", "stop_prob", "1:0"), "1", "stop_prob .* not a number"),
        ],
        ids=repr,
    )
    def test_profile_values_need_json_types(self, mode, keys, value, message):
        doc = gamefile.load_bundled("matching_times")
        tree, field = doc.tree, doc.payoff_field()
        if mode == "sim":
            sol = sg.sim_equilibrium(tree, field)
            profile = (sol.rho, sol.tau)
        else:
            sol = sg.seq_equilibrium(tree, field)
            profile = (sol.rho_star, sol.tau_star)
        obj = json.loads(gamefile.profile_to_json(tree, mode, profile))
        target = obj
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(sg.GameSpecError, match=message):
            gamefile.profile_from_json(tree, json.dumps(obj), mode)

    def test_profile_mode_mismatch(self):
        doc = gamefile.load_bundled("matching_times")
        sol = sg.seq_equilibrium(doc.tree, doc.payoff_field())
        text = gamefile.profile_to_json(doc.tree, "seq", (sol.rho_star, sol.tau_star))
        with pytest.raises(sg.GameSpecError, match="mode"):
            gamefile.profile_from_json(doc.tree, text, "sim")
