"""Fuzzed game and profile files: a reader returns or raises GameSpecError.

Each example starts from a valid file, applies one to three random edits
(replace any value, delete any key or item) and writes it back as JSON; raw
text is fuzzed too.  Whatever the input, `gamefile.parse` and
`gamefile.profile_from_json` either succeed or raise `GameSpecError`.
"""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import stopgames as sg  # noqa: E402
from stopgames import gamefile  # noqa: E402

#: Reproducible and stateless: no example database, a fixed example order.
FUZZ = settings(database=None, derandomize=True, deadline=None)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["0:0", "1:0", "1:1", "0", "1", "2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    """Every location in a JSON value, the value itself included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, val in items:
        yield from _paths(val, prefix + (key,))


@st.composite
def _edited(draw, base):
    """The JSON text of `base` after one to three random edits."""
    obj = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(JSON_VALUES)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(obj)


_GAME = gamefile.generate_random_game(2, 2, seed=3)
_ZS_GAME = gamefile.generate_random_game(2, 2, seed=4, zero_sum=True)


def _solved_profile(mode: str) -> tuple[sg.EventTree, dict]:
    """The tree of a small game and the profile its solver writes."""
    if mode == "sim":
        tree = _GAME.tree
        eq = sg.sim_equilibrium(_GAME.payoff_field())
        profile = (eq.rho, eq.tau)
    elif mode == "seq":
        tree = _GAME.tree
        eq = sg.seq_equilibrium(_GAME.payoff_field())
        profile = (eq.rho_star, eq.tau_star)
    else:
        tree = _ZS_GAME.tree
        saddle = sg.zero_sum_saddle(_ZS_GAME.zero_sum_field())
        profile = (saddle.rho_star, saddle.tau_star)
    return tree, json.loads(gamefile.profile_to_json(tree, mode, profile))


_PROFILES = {mode: _solved_profile(mode) for mode in ("sim", "seq", "zs")}


def _read_game(text: str) -> None:
    """Parse `text` and build both payoff fields, as the commands do."""
    try:
        doc = gamefile.parse(text)
    except sg.GameSpecError:
        return
    for build in (doc.payoff_field, doc.zero_sum_field):
        try:
            build()
        except sg.GameSpecError:
            pass


def _read_profile(text: str, mode: str) -> None:
    try:
        gamefile.profile_from_json(_PROFILES[mode][0], text, mode)
    except sg.GameSpecError:
        pass


class TestGameReader:
    @FUZZ
    @given(_edited(json.loads(gamefile.emit(_GAME))))
    def test_edited_game(self, text):
        _read_game(text)

    @FUZZ
    @given(_edited(json.loads(gamefile.emit(_ZS_GAME))))
    def test_edited_zero_sum_game(self, text):
        _read_game(text)

    @FUZZ
    @given(st.text(max_size=40))
    def test_raw_text(self, text):
        _read_game(text)


def _with_section_2(doc: gamefile.GameDocument) -> dict:
    """The game object of a zero-sum game with section 2 written out as the
    negation of section 1."""
    obj = json.loads(gamefile.emit(doc))
    obj["payoffs"]["2"] = {
        st: {nid: -val for nid, val in block.items()}
        for st, block in obj["payoffs"]["1"].items()
    }
    return obj


_ZS2 = _with_section_2(_ZS_GAME)
_NODE_IDS = [node["id"] for node in _ZS2["nodes"]] + ["zz"]


@st.composite
def _edited_blocks(draw):
    """`_ZS2` after one to three edits of payoff blocks: a node deleted from,
    or set in, one block of section 1, of section 2, or of both, where
    "both" keeps section 2 the negation of section 1."""
    obj = json.loads(json.dumps(_ZS2))
    payoffs = obj["payoffs"]
    for _ in range(draw(st.integers(1, 3))):
        sections = draw(st.sampled_from([("1",), ("2",), ("1", "2")]))
        key = draw(st.sampled_from(sorted(payoffs["1"])))
        nid = draw(st.sampled_from(_NODE_IDS))
        value = draw(st.none() | st.sampled_from([0.0, -0.0, 0.5, -1.25]))
        for section in sections:
            block = payoffs[section][key]
            if value is None:
                block.pop(nid, None)
            else:
                block[nid] = value if section == "1" else -value
    return obj


class TestZeroSumBlocks:
    @FUZZ
    @given(_edited_blocks())
    def test_an_accepted_field_has_exact_blocks_and_negation(self, obj):
        doc = gamefile.parse(json.dumps(obj))
        try:
            doc.zero_sum_field()
        except sg.GameSpecError:
            return
        tree = doc.tree
        u1, u2 = doc.sections[1], doc.sections[2]
        for (s, t), block in u1.items():
            ids = {tree.nodes[idx].id for idx in tree.levels[max(s, t)]}
            assert set(block) == set(u2[(s, t)]) == ids
            assert all(u2[(s, t)][nid] == -val for nid, val in block.items())


class TestProfileReader:
    @pytest.mark.parametrize("mode", sorted(_PROFILES))
    def test_edited_profile(self, mode):
        @FUZZ
        @given(_edited(_PROFILES[mode][1]))
        def check(text):
            _read_profile(text, mode)

        check()

    @FUZZ
    @given(st.text(max_size=40), st.sampled_from(sorted(_PROFILES)))
    def test_raw_text(self, text, mode):
        _read_profile(text, mode)
