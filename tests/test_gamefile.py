"""Game-file round-trips, validation diagnostics, and random generation."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

import pytest

import stopgames as sg
from stopgames import gamefile, strategies

from conftest import reference_payoff_rows


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
            sol = sg.sim_equilibrium(doc.payoff_field())
            profile = (sol.rho, sol.tau)
        elif mode == "seq":
            sol = sg.seq_equilibrium(doc.payoff_field())
            profile = (sol.rho_star, sol.tau_star)
        else:
            saddle = sg.zero_sum_saddle(doc.zero_sum_field())
            profile = (saddle.rho_star, saddle.tau_star)
        text = gamefile.profile_to_json(tree, mode, profile)
        assert text == _reference_profile_text(tree, mode, profile)


class TestPayoffField:
    def test_int_payoffs_read_as_floats(self):
        doc = _map_payoffs(gamefile.generate_random_game(2, 2, seed=1), lambda k, v: round(v))
        field = doc.payoff_field()
        assert all(type(v) is float for vals in field._data for v in vals)
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


def _game_object(horizon: int, branching: int, seed: int, zero_sum: bool = False) -> dict:
    doc = gamefile.generate_random_game(horizon, branching, seed=seed, zero_sum=zero_sum)
    return json.loads(gamefile.emit(doc))


def _irregular_object(seed: int, zero_sum: bool) -> dict:
    """A horizon-3 game whose levels hold 1, 1, 2 and 3 nodes."""
    rng = random.Random(seed)
    nodes = [
        {"id": "r", "time": 0},
        {"id": "a", "time": 1, "parent": "r", "prob": 1.0},
        {"id": "c", "time": 2, "parent": "a", "prob": 0.75},
        {"id": "b", "time": 2, "parent": "a", "prob": 0.25},
        {"id": "f", "time": 3, "parent": "c", "prob": 1.0},
        {"id": "e", "time": 3, "parent": "b", "prob": 0.5},
        {"id": "d", "time": 3, "parent": "b", "prob": 0.5},
    ]
    ids = [["r"], ["a"], ["b", "c"], ["d", "e", "f"]]
    payoffs = {
        str(player): {
            f"{s},{t}": {nid: rng.uniform(-1, 1) for nid in ids[max(s, t)]}
            for s in range(4)
            for t in range(4)
        }
        for player in ((1,) if zero_sum else (1, 2))
    }
    return {"horizon": 3, "nodes": nodes, "payoffs": payoffs}


def _odd_document(shape, seed: int, zero_sum: bool, section_2: bool) -> dict:
    """A game object with int payoffs and signed zeros, its payoff blocks in
    shuffled (s, t) order and each block's nodes shuffled; `shape` is a
    (horizon, branching) for ``gen``, or "irregular".  With `zero_sum` and
    `section_2`, section 2 is written out as the exact negation of section
    1, and listed first."""
    rng = random.Random(seed)
    if shape == "irregular":
        obj = _irregular_object(seed, zero_sum)
    else:
        obj = _game_object(*shape, seed, zero_sum)
    for section in obj["payoffs"].values():
        for block in section.values():
            for nid, val in block.items():
                block[nid] = rng.choice([val, round(5 * val), 0, -0.0, 0.0, -3, val])
    if zero_sum and section_2:
        negated = {
            st: {nid: -val for nid, val in block.items()}
            for st, block in obj["payoffs"]["1"].items()
        }
        obj["payoffs"] = {"2": negated, "1": obj["payoffs"]["1"]}
    for key, section in obj["payoffs"].items():
        blocks = list(section.items())
        rng.shuffle(blocks)
        shuffled = {}
        for st, block in blocks:
            nodes = list(block.items())
            rng.shuffle(nodes)
            shuffled[st] = dict(nodes)
        obj["payoffs"][key] = shuffled
    return obj


#: (shape, seed, zero_sum, section 2 written out)
_ODD_DOCUMENTS = [
    ((3, 2), 1, False, False),
    ((6, 1), 2, False, False),
    ((2, 3), 3, False, False),
    ((0, 2), 4, False, False),
    ("irregular", 5, False, False),
    ((3, 2), 5, True, False),
    ((5, 1), 6, True, True),
    ((2, 3), 7, True, True),
    ("irregular", 8, True, True),
]


def _hex_field(field: sg.PayoffField) -> dict:
    horizon = field.tree.horizon
    rows = {
        key: tuple(map(float.hex, field.row(*key)))
        for key in itertools.product((1, 2), range(horizon + 1), range(horizon + 1))
    }
    return {"rows": rows, "bound": float.hex(field.bound)}


def _hex_reference(obj: dict, zero_sum: bool) -> dict:
    rows = reference_payoff_rows(obj, zero_sum)
    return {
        "rows": {key: tuple(map(float.hex, row)) for key, row in rows.items()},
        "bound": float.hex(max((abs(v) for row in rows.values() for v in row), default=0.0)),
    }


class TestBulkRead:
    @pytest.mark.parametrize("case", _ODD_DOCUMENTS, ids=repr)
    def test_fields_match_a_reference_read_entry_by_entry(self, case):
        shape, seed, zero_sum, section_2 = case
        obj = _odd_document(*case)
        doc = gamefile.parse(json.dumps(obj))
        if not zero_sum or section_2:
            assert _hex_field(doc.payoff_field()) == _hex_reference(obj, zero_sum=False)
        if zero_sum:
            assert _hex_field(doc.zero_sum_field()) == _hex_reference(obj, zero_sum=True)

    @pytest.mark.parametrize("case", _ODD_DOCUMENTS, ids=repr)
    def test_sections_keep_the_file_order(self, case):
        obj = _odd_document(*case)
        doc = gamefile.parse(json.dumps(obj))
        assert list(doc.sections) == list(map(int, obj["payoffs"]))
        for key, section in obj["payoffs"].items():
            parsed = doc.sections[int(key)]
            assert [f"{s},{t}" for s, t in parsed] == list(section)
            for (s, t), block in parsed.items():
                want = section[f"{s},{t}"]
                assert list(block) == list(want)
                assert list(map(float.hex, block.values())) == [
                    float.hex(float(v)) for v in want.values()
                ]

    @pytest.mark.parametrize("case", _ODD_DOCUMENTS, ids=repr)
    def test_a_field_rebuilds_from_its_own_rows(self, case):
        doc = gamefile.parse(json.dumps(_odd_document(*case)))
        field = doc.zero_sum_field() if case[2] else doc.payoff_field()
        rebuilt = sg.PayoffField(doc.tree, field._data)
        assert _hex_field(rebuilt) == _hex_field(field)
        assert (rebuilt.unit.hex(), rebuilt.tol.hex()) == (field.unit.hex(), field.tol.hex())

    def test_valid_documents_never_enter_the_per_block_loops(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a valid document entered a per-block loop")

        for module, name in (
            (gamefile, "_slices_by_block"),
            (gamefile, "_negation_by_block"),
            (strategies, "_first_row_fault"),
        ):
            monkeypatch.setattr(module, name, refuse)
        for horizon, branching, seed in ((4, 2, 1), (30, 1, 2), (2, 3, 3), (0, 1, 4)):
            doc = gamefile.parse(json.dumps(_game_object(horizon, branching, seed)))
            doc.payoff_field()
            zs = gamefile.parse(json.dumps(_game_object(horizon, branching, seed, True)))
            zs.zero_sum_field()
        for case in _ODD_DOCUMENTS:
            doc = gamefile.parse(json.dumps(_odd_document(*case)))
            if 2 in doc.sections:
                doc.payoff_field()
            if case[2]:
                doc.zero_sum_field()


def _pop(block: dict, nid: str) -> None:
    del block[nid]


def _first(payoffs: dict, key: str) -> None:
    """List section `key` first."""
    for other in [k for k in payoffs if k != key]:
        payoffs[other] = payoffs.pop(other)


#: Documents with two faults: the edit of the payoff object of a ``gen`` h2 b2
#: game (general, zero-sum, or zero-sum with section 2 written out as the
#: negation of section 1), the call that raises and the message that wins.
_TWO_FAULTS = {
    "nan-early-missing-node-later": (
        lambda p: (
            p["1"]["0,0"].update({"0:0": float("nan")}),
            _pop(p["2"]["2,1"], "2:3"),
        ),
        "general",
        "payoff_field",
        "payoff missing for node 2:3 at (s,t)=(2, 1)",
    ),
    "nan-early-missing-node-later-same-section": (
        lambda p: (
            p["1"]["0,0"].update({"0:0": float("nan")}),
            _pop(p["1"]["1,2"], "2:0"),
        ),
        "general",
        "payoff_field",
        "payoff missing for node 2:0 at (s,t)=(1, 2)",
    ),
    "off-level-and-missing-node-in-one-block": (
        lambda p: (_pop(p["1"]["1,1"], "1:0"), p["1"]["1,1"].update({"2:0": 1.0})),
        "general",
        "payoff_field",
        "payoff for unknown or off-level node 2:0 at (s,t)=(1, 1)",
    ),
    "unknown-and-missing-node-in-one-block": (
        lambda p: (_pop(p["2"]["2,2"], "2:2"), p["2"]["2,2"].update({"zz": 1.0})),
        "general",
        "payoff_field",
        "payoff for unknown or off-level node zz at (s,t)=(2, 2)",
    ),
    "missing-entry-and-non-object-block": (
        lambda p: (p["1"].pop("2,2"), p["1"].update({"0,1": [1.0]})),
        "general",
        "parse",
        "payoff entry '0,1' must be an object",
    ),
    "missing-entry-before-a-later-sections-non-object-block": (
        lambda p: (p["1"].pop("0,0"), p["2"].update({"2,2": 5})),
        "general",
        "parse",
        "payoff section 1 missing entry (0,0)",
    ),
    "non-object-block-before-a-bad-key": (
        lambda p: (p["1"].update({"0,0": "x"}), p["1"].update({"9,9": {}})),
        "general",
        "parse",
        "payoff entry '0,0' must be an object",
    ),
    "missing-nodes-in-both-sections-section-2-first": (
        lambda p: (_pop(p["1"]["0,0"], "0:0"), _pop(p["2"]["2,2"], "2:1"), _first(p, "2")),
        "general",
        "payoff_field",
        "payoff missing for node 2:1 at (s,t)=(2, 2)",
    ),
    "non-finite-in-both-sections": (
        lambda p: (
            p["2"]["0,0"].update({"0:0": float("inf")}),
            p["1"]["2,2"].update({"2:1": float("nan")}),
        ),
        "general",
        "payoff_field",
        "non-finite payoff in slice (1, 2, 2)",
    ),
    "not-negated-and-missing-node-in-section-1": (
        lambda p: (
            p["2"]["2,0"].update({"2:1": p["2"]["2,0"]["2:1"] + 1.0}),
            _pop(p["1"]["0,1"], "1:1"),
        ),
        "zero-sum+2",
        "zero_sum_field",
        "payoff section 2 is not the negation of section 1 at (s,t)=(0, 1), node 1:1",
    ),
    "unknown-node-in-section-1-and-nan": (
        lambda p: (
            p["1"]["1,1"].update({"zz": 5.0}),
            p["1"]["2,2"].update({"2:0": float("nan")}),
        ),
        "zero-sum",
        "zero_sum_field",
        "payoff for unknown or off-level node zz at (s,t)=(1, 1)",
    ),
    "section-2-lacks-a-node-and-nan": (
        lambda p: (_pop(p["2"]["0,1"], "1:1"), p["1"]["2,2"].update({"2:0": float("nan")})),
        "zero-sum+2",
        "zero_sum_field",
        "payoff section 2 is not the negation of section 1 at (s,t)=(0, 1), node 1:1",
    ),
    "missing-node-in-section-1-and-nan": (
        lambda p: (_pop(p["1"]["1,0"], "1:1"), p["1"]["0,0"].update({"0:0": float("nan")})),
        "zero-sum",
        "zero_sum_field",
        "payoff missing for node 1:1 at (s,t)=(1, 0)",
    ),
}


class TestFirstFaultWins:
    @pytest.mark.parametrize("case", sorted(_TWO_FAULTS))
    def test_message(self, case):
        edit, kind, call, message = _TWO_FAULTS[case]
        obj = _game_object(2, 2, seed=3, zero_sum=kind != "general")
        payoffs = obj["payoffs"]
        if kind == "zero-sum+2":
            payoffs["2"] = {
                st: {nid: -val for nid, val in block.items()}
                for st, block in payoffs["1"].items()
            }
        edit(payoffs)
        text = json.dumps(obj)
        if call == "parse":
            with pytest.raises(sg.GameSpecError) as exc:
                gamefile.parse(text)
        else:
            doc = gamefile.parse(text)
            with pytest.raises(sg.GameSpecError) as exc:
                getattr(doc, call)()
        assert str(exc.value) == message


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
        sol = sg.sim_equilibrium(field)
        text = gamefile.profile_to_json(tree, "sim", (sol.rho, sol.tau))
        rho, tau = gamefile.profile_from_json(tree, text, "sim")
        assert rho.initial.probs == sol.rho.initial.probs
        assert sg.payoff_mixed_sim(field, rho, tau) == sol.values

    def test_seq_profile_round_trip(self):
        doc = gamefile.load_bundled("matching_times")
        tree, field = doc.tree, doc.payoff_field()
        sol = sg.seq_equilibrium(field)
        text = gamefile.profile_to_json(tree, "seq", (sol.rho_star, sol.tau_star))
        rho, tau = gamefile.profile_from_json(tree, text, "seq")
        assert sg.payoff_pure(field, "seq", rho, tau) == sol.values

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
            sol = sg.sim_equilibrium(field)
            profile = (sol.rho, sol.tau)
        else:
            sol = sg.seq_equilibrium(field)
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
        sol = sg.seq_equilibrium(doc.payoff_field())
        text = gamefile.profile_to_json(doc.tree, "seq", (sol.rho_star, sol.tau_star))
        with pytest.raises(sg.GameSpecError, match="mode"):
            gamefile.profile_from_json(doc.tree, text, "sim")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["player2"]["adjust"].update({"7": {}}), "key '7' outside 0..1"),
            (lambda p: p["player1"]["adjust"].update({"x": 1}), "key 'x' outside 0..1"),
            (lambda p: p["player1"]["adjust"].update({"01": {}}), "key '01' outside 0..1"),
            (lambda p: p["player1"]["adjust"].update({"-1": {}}), "key '-1' outside 0..1"),
            # Named before a missing rule, and before a rule's own values.
            (
                lambda p: (
                    p["player1"]["adjust"].pop("0"),
                    p["player1"]["adjust"].update({"2": {}}),
                ),
                "key '2' outside 0..1",
            ),
            (
                lambda p: (
                    p["player2"]["adjust"]["0"].update({"1:0": 0}),
                    p["player2"]["adjust"].update({"9": {}}),
                ),
                "key '9' outside 0..1",
            ),
            # Named after the initial rule's faults and after player 1's.
            (
                lambda p: (
                    p["player1"]["stops"].update({"0:0": 0}),
                    p["player1"]["adjust"].update({"7": {}}),
                ),
                "stops at node '0:0' is not a boolean",
            ),
            (
                lambda p: (
                    p["player1"]["adjust"].pop("1"),
                    p["player2"]["adjust"].update({"7": {}}),
                ),
                "profile adjustment missing rule for time 1",
            ),
        ],
    )
    def test_adjustment_keys_are_times_of_the_tree(self, edit, message):
        doc = gamefile.load_bundled("matching_times")
        sol = sg.seq_equilibrium(doc.payoff_field())
        obj = json.loads(
            gamefile.profile_to_json(doc.tree, "seq", (sol.rho_star, sol.tau_star))
        )
        edit(obj)
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.profile_from_json(doc.tree, json.dumps(obj), "seq")
        assert str(exc.value).endswith(message)
