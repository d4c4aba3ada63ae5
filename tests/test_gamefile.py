"""Game-file round-trips, validation diagnostics, and random generation."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import random
import re
import types

import pytest

import stopgames as sg
from stopgames import gamefile, strategies

from conftest import map_payoffs, payoff_blocks, reference_payoff_rows, reference_random_game
from test_tables import random_spec


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
    blocks = payoff_blocks(doc)
    obj["payoffs"] = {
        str(player): {f"{s},{t}": block for (s, t), block in blocks[player].items()}
        for player in sorted(blocks)
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


def _odd_values(k: int, v: float):
    """Ints, signed zeros and extreme exponents, in turn."""
    return (round(v), -0.0, 0.0, v * 1e-300, v * 1e22, 7, v)[k % 7]


def _odd_ids_game() -> gamefile.GameDocument:
    """A horizon-1 game whose node ids hold quotes, braces, a backslash, a
    newline and non-ASCII text."""
    ids = ['r"{\\', "x},\n      {y", "\u00e9\u4e2d}"]
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
    """`doc` read back from its file with every payoff block's nodes listed
    in reverse order."""
    obj = json.loads(gamefile.emit(doc))
    for section in obj["payoffs"].values():
        for st, block in section.items():
            section[st] = dict(reversed(block.items()))
    return gamefile.parse(json.dumps(obj))


def _non_finite_game() -> gamefile.GameDocument:
    """A game whose section 2 holds Infinity, -Infinity and NaN payoffs among
    finite ones, read back through ``parse`` as a file may give them; its
    section 1 is all finite."""
    doc = gamefile.generate_random_game(2, 2, seed=10)
    odd = itertools.cycle((math.inf, 0.5, -math.inf, -0.0, math.nan, 1))
    section = [tuple(next(odd) for _ in row) for row in doc.rows[2]]
    doc = dataclasses.replace(doc, rows={**doc.rows, 2: section})
    return gamefile.parse(_reference_game_text(doc))


_EMIT_CASES = {
    "odd-node-ids": _odd_ids_game,
    "reversed-blocks": lambda: _reversed_blocks(gamefile.generate_random_game(3, 3, seed=7)),
    "h0": lambda: gamefile.generate_random_game(0, 2, seed=4),
    "h4-b3": lambda: gamefile.generate_random_game(4, 3, seed=1, name="h4"),
    "chain-30": lambda: gamefile.generate_random_game(30, 1, seed=2),
    "chain-200": lambda: gamefile.generate_random_game(200, 1, seed=1),
    "non-finite": _non_finite_game,
    "zero-sum": lambda: gamefile.generate_random_game(3, 2, seed=9, zero_sum=True),
    "int-and-signed-zero": lambda: map_payoffs(
        gamefile.generate_random_game(3, 2, seed=3), _odd_values
    ),
    "rounded-zero-sum": lambda: map_payoffs(
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
        assert again.rows == doc.rows

    def test_bundled_game_loads(self):
        doc = gamefile.load_bundled("matching_times")
        assert doc.horizon == 1
        assert doc.tree.n_nodes == 2
        field = doc.payoff_field()
        assert field.value(1, 0, 0, 0) == 1.0
        assert field.value(2, 1, 1, 1) == -1.0

    def test_zero_sum_single_section(self):
        doc = gamefile.generate_random_game(2, 2, seed=9, zero_sum=True)
        assert set(doc.rows) == {1}
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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rows: rows.__setitem__(5, rows[5] + (0.5,)),
            lambda rows: rows.__setitem__(5, rows[5][:-1]),
            lambda rows: rows.pop(),
            lambda rows: rows.append((0.5,)),
            lambda rows: rows.__setitem__(0, 0.5),
            lambda rows: (rows.__setitem__(1, rows[1] + rows[2]), rows.pop(2)),
        ],
        ids=["long-row", "short-row", "row-missing", "extra-row", "bare-value", "merged-rows"],
    )
    @pytest.mark.parametrize("player", [1, 2])
    def test_emit_refuses_rows_that_do_not_fit_the_tree(self, edit, player):
        # str.format ignores surplus arguments, so rows that hold more values
        # than the template's slots would otherwise be written silently.
        doc = gamefile.generate_random_game(2, 2, seed=4)
        rows = list(doc.rows[player])
        edit(rows)
        doc = dataclasses.replace(doc, rows={**doc.rows, player: rows})
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.emit(doc)
        assert str(exc.value) == (
            f"payoff section {player} rows do not fit the (s,t) levels"
        )

    def test_emit_names_a_parsed_blocks_fault(self):
        obj = json.loads(gamefile.emit(gamefile.generate_random_game(2, 2, seed=4)))
        del obj["payoffs"]["2"]["0,2"]["2:3"]
        doc = gamefile.parse(json.dumps(obj))
        assert doc.rows[2] is None
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.emit(doc)
        assert str(exc.value) == "payoff missing for node 2:3 at (s,t)=(0, 2)"

    @pytest.mark.parametrize("mode", ["sim", "seq", "zs"])
    def test_profile_matches_json_dumps(self, mode):
        doc = gamefile.generate_random_game(3, 2, seed=12, zero_sum=mode == "zs")
        profile = _solved_profile(doc, mode)
        text = gamefile.profile_to_json(doc.tree, mode, profile)
        assert text == _reference_profile_text(doc.tree, mode, profile)

    @pytest.mark.parametrize("mode", ["sim", "seq", "zs"])
    def test_profile_with_odd_node_ids_matches_json_dumps(self, mode):
        doc = _odd_ids_game()
        if mode == "zs":
            doc = dataclasses.replace(doc, rows={1: doc.rows[1]})
        profile = _solved_profile(doc, mode)
        text = gamefile.profile_to_json(doc.tree, mode, profile)
        assert text == _reference_profile_text(doc.tree, mode, profile)


def _solved_profile(doc: gamefile.GameDocument, mode: str) -> tuple:
    """The profile that the solver of `mode` finds for `doc`."""
    if mode == "sim":
        sol = sg.sim_equilibrium(doc.payoff_field())
        return (sol.rho, sol.tau)
    if mode == "seq":
        sol = sg.seq_equilibrium(doc.payoff_field())
        return (sol.rho_star, sol.tau_star)
    saddle = sg.zero_sum_saddle(doc.zero_sum_field())
    return (saddle.rho_star, saddle.tau_star)


class TestPayoffField:
    def test_int_payoffs_read_as_floats(self):
        doc = map_payoffs(gamefile.generate_random_game(2, 2, seed=1), lambda k, v: round(v))
        field = doc.payoff_field()
        assert all(type(v) is float for vals in field._data for v in vals)
        parsed = gamefile.parse(gamefile.emit(doc))
        assert all(type(v) is float for rows in parsed.rows.values() for row in rows for v in row)
        assert parsed.payoff_field()._data == field._data

    def test_zero_sum_negates_int_zero_to_negative_zero(self):
        doc = map_payoffs(
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


def _held_objects(root) -> list:
    """Every object that `root` holds, through containers and the package's
    own objects, but not through types, modules or functions."""
    seen, stack, held = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        held.append(obj)
        stack.extend(gc.get_referents(obj))
    return held


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
        assert list(doc.rows) == list(map(int, obj["payoffs"]))
        for key, section in obj["payoffs"].items():
            # The section read entry by entry as a zero-sum game's player 1.
            reference = reference_payoff_rows({**obj, "payoffs": {"1": section}}, zero_sum=True)
            assert [list(map(float.hex, row)) for row in doc.rows[int(key)]] == [
                list(map(float.hex, reference[(1, s, t)])) for s, t in doc.tree.stop_pairs
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

        for name in ("_block_fault", "_block_faults"):
            monkeypatch.setattr(gamefile, name, refuse)
        checked_rows = strategies._checked_rows

        def taken_as_they_are(tree, rows, players):
            # The per-row walk would read each row into a new tuple.
            assert checked_rows(tree, rows, players) is rows, "a valid document's rows were walked"
            return rows

        monkeypatch.setattr(strategies, "_checked_rows", taken_as_they_are)
        for horizon, branching, seed in ((4, 2, 1), (30, 1, 2), (2, 3, 3), (0, 1, 4)):
            doc = gamefile.parse(json.dumps(_game_object(horizon, branching, seed)))
            doc.payoff_field()
            zs = gamefile.parse(json.dumps(_game_object(horizon, branching, seed, True)))
            zs.zero_sum_field()
        for case in _ODD_DOCUMENTS:
            doc = gamefile.parse(json.dumps(_odd_document(*case)))
            if 2 in doc.rows:
                doc.payoff_field()
            if case[2]:
                doc.zero_sum_field()

    @pytest.mark.parametrize("case", [*_ODD_DOCUMENTS, "blocks-fault"], ids=repr)
    def test_a_parsed_document_holds_no_decoded_section(self, case):
        # A decoded payoff section is a dict keyed by "s,t" texts; the rows
        # and the fault messages are all that a parsed document keeps.
        if case == "blocks-fault":
            obj = _game_object(2, 2, seed=4)
            del obj["payoffs"]["2"]["0,2"]["2:3"]
        else:
            obj = _odd_document(*case)
        doc = gamefile.parse(json.dumps(obj))
        assert case != "blocks-fault" or doc.rows[2] is None
        st_keyed = [
            held
            for held in _held_objects(doc)
            if isinstance(held, dict) and any(re.fullmatch(r"\d+,\d+", str(k)) for k in held)
        ]
        assert st_keyed == []

    def test_checked_rows_of_another_tree_are_walked(self):
        # Rows checked on a branching-2 tree hold the wrong number of values
        # for each block of a branching-3 tree of the same horizon.
        doc = gamefile.generate_random_game(2, 2, seed=1)
        rows = doc.payoff_field()._data
        other = gamefile.generate_random_game(2, 3, seed=1)
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.GameDocument(other.tree, doc.rows).payoff_field()
        assert str(exc.value) == "payoff slice (1, 0, 1) needs 3 values, got 2"
        with pytest.raises(sg.GameSpecError) as exc:
            sg.PayoffField(other.tree, rows)
        assert str(exc.value) == "payoff slice (1, 0, 1) needs 3 values, got 2"

    @pytest.mark.parametrize("game", ["gen", "odd-node-ids"])
    def test_valid_profiles_never_enter_the_per_node_loop(self, monkeypatch, game):
        def refuse(*args, **kwargs):
            raise AssertionError("a valid profile entered the per-node loop")

        monkeypatch.setattr(gamefile, "_per_node_fault", refuse)
        doc = gamefile.generate_random_game(3, 2, seed=4) if game == "gen" else _odd_ids_game()
        for mode in ("sim", "seq"):
            profile = _solved_profile(doc, mode)
            text = gamefile.profile_to_json(doc.tree, mode, profile)
            assert gamefile.profile_from_json(doc.tree, text, mode) == profile


def _shuffled_spec_file(seed: int) -> tuple[dict, str, bool]:
    """A game file on a ``test_tables.random_spec`` tree: its object, its
    text and whether it is zero-sum.  Payoffs mix floats, ints, signed
    zeros and, in one file of three, an Infinity or NaN; sections, blocks
    and the node keys of each block are listed in shuffled order.  A
    zero-sum file holds section 1 alone, or also section 2 as its
    negation."""
    rng = random.Random(seed)
    spec = random_spec(rng)
    levels: dict[int, list[str]] = {}
    for node in spec["nodes"]:
        levels.setdefault(node["time"], []).append(node["id"])
    draws = [lambda: rng.uniform(-2, 2), lambda: rng.randint(-3, 3), lambda: -0.0, lambda: 0.0]
    if seed % 3 == 0:
        draws.append(lambda: rng.choice((math.inf, -math.inf, math.nan)))
    zero_sum = seed % 2 == 1
    horizon = spec["horizon"]
    section = {
        f"{s},{t}": {nid: rng.choice(draws)() for nid in levels[max(s, t)]}
        for s in range(horizon + 1)
        for t in range(horizon + 1)
    }
    if zero_sum:
        payoffs = {"1": section}
        if rng.random() < 0.5:
            payoffs["2"] = {
                st: {nid: -val for nid, val in block.items()} for st, block in section.items()
            }
    else:
        payoffs = {
            "1": section,
            "2": {
                st: {nid: rng.choice(draws)() for nid in block} for st, block in section.items()
            },
        }
    shuffled = {}
    for key in rng.sample(sorted(payoffs), len(payoffs)):
        blocks = list(payoffs[key].items())
        rng.shuffle(blocks)
        shuffled[key] = {st: dict(rng.sample(list(b.items()), len(b))) for st, b in blocks}
    obj = {"horizon": horizon, "nodes": spec["nodes"], "payoffs": shuffled}
    return obj, json.dumps(obj), zero_sum


def _canonical_text(obj: dict) -> str:
    """The canonical text of a decoded game object, without ``gamefile``:
    nodes sorted by (time, id), sections by player, blocks in row-major
    (s, t) order, each block's nodes in canonical order, numbers as floats."""
    nodes = sorted(obj["nodes"], key=lambda n: (n["time"], n["id"]))
    levels: dict[int, list[str]] = {}
    for node in nodes:
        levels.setdefault(node["time"], []).append(node["id"])
    horizon = obj["horizon"]
    out = {"format": gamefile.FORMAT_NAME, "horizon": horizon}
    out["nodes"] = [
        {"id": n["id"], "time": n["time"]}
        if n.get("parent") is None
        else {"id": n["id"], "time": n["time"], "parent": n["parent"], "prob": float(n["prob"])}
        for n in nodes
    ]
    out["payoffs"] = {
        key: {
            f"{s},{t}": {
                nid: float(obj["payoffs"][key][f"{s},{t}"][nid]) for nid in levels[max(s, t)]
            }
            for s in range(horizon + 1)
            for t in range(horizon + 1)
        }
        for key in sorted(obj["payoffs"])
    }
    return json.dumps(out, indent=2) + "\n"


class TestReadPath:
    """Parsed rows against ``conftest.reference_payoff_rows``, which reads a
    file's blocks entry by entry, on irregular trees."""

    @pytest.mark.parametrize("seed", range(40))
    def test_rows_match_a_reference_read_entry_by_entry(self, seed):
        obj, text, zero_sum = _shuffled_spec_file(seed)
        doc = gamefile.parse(text)
        assert list(doc.rows) == list(map(int, obj["payoffs"]))
        finite = all(
            math.isfinite(v)
            for section in obj["payoffs"].values()
            for block in section.values()
            for v in block.values()
        )
        for key, section in obj["payoffs"].items():
            # The section read entry by entry as a zero-sum game's player 1.
            reference = reference_payoff_rows({**obj, "payoffs": {"1": section}}, zero_sum=True)
            rows = doc.rows[int(key)]
            assert type(rows) is (strategies.CheckedRows if finite else list)
            assert [list(map(float.hex, row)) for row in rows] == [
                list(map(float.hex, reference[(1, s, t)])) for s, t in doc.tree.stop_pairs
            ]
        read = doc.zero_sum_field if zero_sum else doc.payoff_field
        if finite:
            assert _hex_field(read()) == _hex_reference(obj, zero_sum)
        else:
            with pytest.raises(sg.GameSpecError, match="non-finite payoff in slice|negation"):
                read()

    @pytest.mark.parametrize("seed", range(40))
    def test_emit_writes_the_canonical_text(self, seed):
        obj, text, _ = _shuffled_spec_file(seed)
        canonical = _canonical_text(obj)
        assert gamefile.emit(gamefile.parse(text)) == canonical
        assert gamefile.emit(gamefile.parse(canonical)) == canonical

    @pytest.mark.parametrize(
        "horizon, branching, seed, payoff_range, zero_sum",
        [
            (0, 1, 1, (-1.0, 1.0), False),
            (7, 1, 2, (-1.0, 1.0), False),
            (9, 1, 3, (0, 5), True),
            (4, 2, 4, (-1.0, 1.0), False),
            (5, 2, 5, (-1e9, 1e9), True),
            (3, 3, 6, (-0.5, -0.25), False),
            (3, 3, 7, (-1.0, 1.0), True),
        ],
    )
    def test_generated_rows_are_the_reference_draws(
        self, horizon, branching, seed, payoff_range, zero_sum
    ):
        want = reference_random_game(horizon, branching, seed, payoff_range, zero_sum)
        doc = gamefile.generate_random_game(
            horizon, branching, seed, payoff_range, zero_sum, name="g"
        )
        assert list(doc.rows) == list(want["payoffs"])
        for player, blocks in want["payoffs"].items():
            assert [list(map(float.hex, row)) for row in doc.rows[player]] == [
                list(map(float.hex, blocks[st].values())) for st in doc.tree.stop_pairs
            ]
        obj = {
            "format": gamefile.FORMAT_NAME,
            "name": "g",
            "seed": seed,
            "horizon": horizon,
            "nodes": sorted(want["nodes"], key=lambda n: (n["time"], n["id"])),
            "payoffs": {
                str(player): {f"{s},{t}": block for (s, t), block in blocks.items()}
                for player, blocks in want["payoffs"].items()
            },
        }
        assert gamefile.emit(doc) == json.dumps(obj, indent=2) + "\n"


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
    "non-number-and-missing-node-in-one-block": (
        lambda p: (_pop(p["1"]["1,1"], "1:0"), p["1"]["1,1"].update({"1:1": "x"})),
        "general",
        "parse",
        "payoff for node 1:1 at (s,t)=(1, 1) in section 1 is not a number",
    ),
    "missing-node-then-non-number-in-one-block": (
        lambda p: (_pop(p["2"]["2,0"], "2:0"), p["2"]["2,0"].update({"2:3": None})),
        "general",
        "parse",
        "payoff for node 2:3 at (s,t)=(2, 0) in section 2 is not a number",
    ),
    "off-level-node-and-nan-elsewhere": (
        lambda p: (
            p["1"]["0,0"].update({"0:0": float("nan")}),
            p["2"]["2,2"].update({"1:0": 0.5}),
        ),
        "general",
        "payoff_field",
        "payoff for unknown or off-level node 1:0 at (s,t)=(2, 2)",
    ),
    "off-level-node-and-infinity-elsewhere-zero-sum": (
        lambda p: (
            p["1"]["1,2"].update({"1:0": 0.5}),
            p["1"]["0,0"].update({"0:0": float("-inf")}),
        ),
        "zero-sum",
        "zero_sum_field",
        "payoff for unknown or off-level node 1:0 at (s,t)=(1, 2)",
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

    def test_a_text_too_short_for_its_payoffs_is_refused(self):
        # A horizon-30 chain needs 31**2 = 961 entries per section, at least
        # 4,805 characters each.
        nodes = [{"id": "0", "time": 0}]
        nodes += [{"id": str(t), "time": t, "parent": str(t - 1), "prob": 1.0} for t in range(1, 31)]
        for payoffs, sections in (({"1": {}, "2": {}}, 2), ({"1": {}, "3": {}}, 1)):
            text = json.dumps({"horizon": 30, "nodes": nodes, "payoffs": payoffs})
            assert len(text) < 5 * 961 * sections
            with pytest.raises(sg.GameSpecError) as exc:
                gamefile.parse(text)
            assert str(exc.value) == (
                f"game file of {len(text)} characters cannot hold 961 payoff entries per section"
            )

    def test_a_compact_valid_file_is_not_refused_for_its_length(self):
        # One-character ids and payoffs of 0 written without spaces: each
        # entry takes 6 characters, more than the 5 the bound counts.
        nodes = [{"id": "0", "time": 0}]
        nodes += [{"id": str(t), "time": t, "parent": str(t - 1), "prob": 1} for t in range(1, 10)]
        payoffs = {
            str(player): {
                f"{s},{t}": {str(max(s, t)): 0} for s in range(10) for t in range(10)
            }
            for player in (1, 2)
        }
        text = json.dumps(
            {"horizon": 9, "nodes": nodes, "payoffs": payoffs}, separators=(",", ":")
        )
        assert gamefile.parse(text).tree.n_nodes == 10

    @pytest.mark.parametrize("key", ["00,1", " 0,1", "0,+1", "0,0_1", "0, 1", "0,1 "])
    @pytest.mark.parametrize("replace", [True, False], ids=["renamed", "added"])
    def test_a_non_canonical_payoff_key_is_refused(self, key, replace):
        # Each key reads through int() as (0, 1): renamed, it would stand in
        # for "0,1"; added, it would overwrite that block.
        obj = _game_object(2, 2, seed=3)
        section = obj["payoffs"]["1"]
        block = section.pop("0,1") if replace else dict(section["0,1"])
        section[key] = block
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(json.dumps(obj))
        assert str(exc.value) == f"malformed payoff key {key!r}"

    @pytest.mark.parametrize(
        "key, message",
        [
            ("0,3", "payoff key '0,3' outside 0..2"),
            ("-1,0", "payoff key '-1,0' outside 0..2"),
            ("0,03", "malformed payoff key '0,03'"),
            ("0,1,2", "malformed payoff key '0,1,2'"),
            ("a,b", "malformed payoff key 'a,b'"),
        ],
    )
    def test_a_key_off_the_horizon_is_named(self, key, message):
        obj = _game_object(2, 2, seed=3)
        obj["payoffs"]["2"][key] = {}
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(json.dumps(obj))
        assert str(exc.value) == message

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


def _insert(text: str, anchor: str, extra: str) -> str:
    """`text` with `extra` inserted after the first `anchor`."""
    at = text.index(anchor) + len(anchor)
    return text[:at] + extra + text[at:]


def _repeat_game(name: str = "g") -> str:
    return gamefile.emit(gamefile.generate_random_game(1, 2, seed=3, name=name))


def _repeat_profile() -> tuple[sg.EventTree, str]:
    doc = gamefile.generate_random_game(1, 2, seed=3)
    sol = sg.seq_equilibrium(doc.payoff_field())
    return doc.tree, gamefile.profile_to_json(doc.tree, "seq", (sol.rho_star, sol.tau_star))


#: A repeated key inserted into a horizon-1 game file: (anchor, inserted
#: text, the key the error names).
_GAME_REPEATS = {
    "payoff block": ('"0,1": {', '\n        "1:1": 0.5,', "1:1"),
    "node object": ('"id": "1:0",', '\n      "time": 1,', "time"),
    "top level": ('"horizon": 1,', '\n  "seed": 4,', "seed"),
    "string values with colons": ('"name": "g",', '\n  "name": "x:y:z",', "name"),
    "under an unknown field": ('"horizon": 1,', '\n  "extra": {"d": null, "d": 1},', "d"),
    "deep under an unknown field": (
        '"horizon": 1,',
        '\n  "extra": [[{"k": {"d": [], "d": {}}}]],',
        "d",
    ),
    "space before the colon": ('"0,1": {', '\n        "1:1" : 0.5,', "1:1"),
    "a newline before the colon": ('"id": "1:0",', '\n      "time"\n: 1,', "time"),
}


class TestDuplicateKeys:
    @pytest.mark.parametrize("case", sorted(_GAME_REPEATS))
    def test_game_file(self, case):
        anchor, extra, key = _GAME_REPEATS[case]
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(_insert(_repeat_game(), anchor, extra))
        assert str(exc.value) == f"duplicate key {key!r} in game file"

    def test_name_holding_an_escaped_quote_and_colon(self):
        text = _repeat_game(name='a":b')
        assert '"a\\":b"' in text
        assert gamefile.parse(text).name == 'a":b'
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(_insert(text, '"0,1": {', '\n        "1:1": 0.5,'))
        assert str(exc.value) == "duplicate key '1:1' in game file"

    @pytest.mark.parametrize(
        "escaped, name",
        [
            (r"a\"b", 'a"b'),
            (r"say \"hi\"", 'say "hi"'),
            (r"back\\", "back\\"),
            (r"x\\\"y", 'x\\"y'),
            ("u\\u0022", 'u"'),
        ],
        ids=repr,
    )
    def test_escapes_cannot_hide_a_repeat(self, escaped, name):
        # An escaped quote adds a quote to the text that delimits no string.
        text = _repeat_game().replace('"name": "g"', f'"name": "{escaped}"')
        assert gamefile.parse(text).name == name
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(_insert(text, '"horizon": 1,', '\n  "horizon": 1,'))
        assert str(exc.value) == "duplicate key 'horizon' in game file"

    def test_valid_files_are_decoded_once_without_a_hook(self, monkeypatch):
        docs = [
            gamefile.generate_random_game(3, 2, seed=1, name="a:b"),
            gamefile.generate_random_game(6, 1, seed=2, zero_sum=True),
        ]
        texts = [gamefile.emit(doc) for doc in docs]
        for mode in ("sim", "seq"):
            field = docs[0].payoff_field()
            if mode == "sim":
                sol = sg.sim_equilibrium(field)
                profile = (sol.rho, sol.tau)
            else:
                sol = sg.seq_equilibrium(field)
                profile = (sol.rho_star, sol.tau_star)
            texts.append(gamefile.profile_to_json(docs[0].tree, mode, profile))
        calls = []
        loads = json.loads

        def counted(text, **kwargs):
            calls.append(sorted(kwargs))
            return loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        gamefile.parse(texts[0])
        gamefile.parse(texts[1])
        gamefile.profile_from_json(docs[0].tree, texts[2], "sim")
        gamefile.profile_from_json(docs[0].tree, texts[3], "seq")
        assert calls == [[]] * 4

    def test_whitespace_before_colons_reads_as_the_emitted_file(self):
        text = _repeat_game()
        spaced = json.dumps(json.loads(text), separators=(" ,", " : "))
        assert gamefile.emit(gamefile.parse(spaced)) == text

    def test_an_inner_repeat_is_named_before_an_earlier_outer_one(self):
        # The hook sees an object when it closes: the block closes first.
        text = _insert(_repeat_game(), '"seed": 3,', '\n  "seed": 3,')
        text = _insert(text, '"1,0": {', '\n        "1:0": 0.5,')
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(text)
        assert str(exc.value) == "duplicate key '1:0' in game file"

    def test_of_two_blocks_the_first_repeat_is_named(self):
        text = _insert(_repeat_game(), '"1,0": {', '\n        "1:1": 0.5,')
        text = _insert(text, '"0,1": {', '\n        "1:0": 0.5,')
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.parse(text)
        assert str(exc.value) == "duplicate key '1:0' in game file"

    def test_profile_inner_repeat_is_named_before_the_mode(self):
        tree, text = _repeat_profile()
        text = _insert(text, '"mode": "seq",', '\n  "mode": "seq",')
        text = _insert(text, '"adjust": {', '\n      "1": {},')
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.profile_from_json(tree, text, "seq")
        assert str(exc.value) == "duplicate key '1' in profile"

    def test_profile_rule_repeat(self):
        tree, text = _repeat_profile()
        text = _insert(text, '"stops": {', '\n      "1:1": false,')
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.profile_from_json(tree, text, "seq")
        assert str(exc.value) == "duplicate key '1:1' in profile"


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
        for rows in doc.rows.values():
            for row in rows:
                for val in row:
                    assert -0.25 <= val <= 0.5

    def test_branching_validation(self):
        with pytest.raises(sg.GameSpecError, match="branching"):
            gamefile.generate_random_game(1, 0, seed=0)

    @pytest.mark.parametrize(
        "horizon, branching",
        # A chain of horizon T has (T + 1)**2 entries: 4097**2 > 2**24.
        [(40, 2), (4096, 1), (10**9, 1), (10**9, 10**9), (1, 2**24)],
    )
    def test_a_shape_over_the_budget_is_refused(self, horizon, branching):
        with pytest.raises(sg.GameSpecError) as exc:
            gamefile.generate_random_game(horizon, branching, seed=0)
        assert str(exc.value) == (
            f"horizon {horizon}, branching {branching} needs more than 16777216 "
            f"payoff entries per player"
        )
        assert gamefile.GEN_BUDGET == 2**24


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
