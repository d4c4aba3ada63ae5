"""Game-file parsing, emission, random instance generation, and profile
serialization.

A game file is a UTF-8 JSON document with explicit node ids and a dense
payoff listing, one value per (player, s, t, node at level max(s, t)):

    {
      "format": "stopping-game-v1",
      "name": "...",            # optional
      "seed": 7,                # optional
      "horizon": 1,
      "nodes": [
        {"id": "0:0", "time": 0},
        {"id": "1:0", "time": 1, "parent": "0:0", "prob": 1.0}
      ],
      "payoffs": {
        "1": {"0,0": {"0:0": 1.0}, "0,1": {"1:0": 0.0}, ...},
        "2": {...}
      }
    }

Zero-sum files may carry only section "1"; the second player's payoffs are
synthesized as the negation.  Emission is canonical (nodes sorted by time
then id, payoff keys in (player, s, t) order), so parse/emit round-trips are
byte-stable and exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from math import isfinite
from operator import eq, itemgetter, neg
from typing import Iterable, Mapping

from .errors import GameSpecError
from .strategies import AdjustmentFamily, PayoffField, RandomizedStoppingTime, Strategy
from .tree import EventTree, StoppingTime, build_tree, checked_int

FORMAT_NAME = "stopping-game-v1"


#: Encoders of flat objects (no nested values), keyed by the nesting depth
#: of the object's braces.  Each writes the items of such an object exactly
#: as ``json.dumps(..., indent=2)`` would inside the whole document, but
#: through the C encoder, which ``indent`` disables.
_FLAT = {
    depth: json.JSONEncoder(
        separators=(",\n" + "  " * (depth + 1), ": "), check_circular=False
    )
    for depth in (0, 2, 3)
}


def _flat(obj: Mapping, depth: int) -> str:
    """A flat object as ``json.dumps(..., indent=2)`` writes it at `depth`."""
    if not obj:
        return "{}"
    pad = "  " * depth
    return f"{{\n{pad}  {_FLAT[depth].encode(obj)[1:-1]}\n{pad}}}"


def _flat_list(objs: list[Mapping], depth: int) -> str:
    """A list of non-empty flat objects as ``json.dumps(..., indent=2)``
    writes it at `depth`, in one encoder call.

    Encoded with the separator of the objects' items, the list separates two
    objects by ``},<newline+pad>{``.  That text occurs nowhere else: inside an
    object the separator precedes a key, and an encoded string holds no raw
    newline.  So one replacement lays out the objects.
    """
    if not objs:
        return "[]"
    pad = "  " * depth
    text = _FLAT[depth + 1].encode(objs)[2:-2]
    inner = f"\n{pad}  }},\n{pad}  {{\n{pad}    "
    text = text.replace(f"}},\n{pad}    {{", inner)
    return f"[\n{pad}  {{\n{pad}    {text}\n{pad}  }}\n{pad}]"


def _loads(text: str, document: str):
    """Decode JSON text, rejecting a repeated key in any object."""

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise GameSpecError(f"duplicate key {key!r} in {document}")
                seen.add(key)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except GameSpecError:
        raise
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise GameSpecError(f"number with too many digits in {document}") from exc
    except RecursionError:
        raise GameSpecError(f"{document} nests too deeply") from None


def _level_ids(tree: EventTree) -> list[list[str]]:
    """Node ids of each level, in canonical order."""
    return [[tree.nodes[idx].id for idx in level] for level in tree.levels]


def _rows(tree: EventTree, sections: list[Mapping]) -> list[tuple] | None:
    """The blocks of the given payoff sections as value tuples, in field
    order: section by section, each in canonical (s, t) order and each block
    in canonical node order, whatever the order in the file.

    None when a section's (s, t) entries are not exactly the horizon's, or a
    block does not hold exactly the nodes of its level; ``_slices_by_block``
    then words the fault.
    """
    pairs, levels = tree.stop_pairs, tree.stop_levels
    level_ids = _level_ids(tree)
    level_sizes = list(map(len, level_ids))
    sizes = list(map(level_sizes.__getitem__, levels))
    # Each level's getter reads its nodes in canonical order.  For a one-node
    # level it returns the bare value.  Those levels come first, since no
    # node before the horizon is a leaf, so in each row s < lone of the
    # (s, t) grid the first `lone` values are wrapped into 1-tuples.
    level_getters = [itemgetter(*ids) for ids in level_ids]
    getters = list(map(level_getters.__getitem__, levels))
    lone = level_sizes.count(1)
    n = tree.horizon + 1
    rows: list[tuple] = []
    try:
        for by_st in sections:
            blocks = list(map(by_st.__getitem__, pairs))
            if len(by_st) != len(pairs) or list(map(len, blocks)) != sizes:
                return None
            values = list(map(itemgetter.__call__, getters, blocks))
            for start in range(0, lone * n, n):
                values[start : start + lone] = zip(values[start : start + lone])
            rows += values
    except KeyError:
        return None
    return rows


def _slices_by_block(sections: Iterable[Mapping], tree: EventTree) -> None:
    """Word the first fault ``_rows`` found, one block at a time in file
    order: a node off the block's level, else a node of the level that the
    block lacks."""
    level_ids = _level_ids(tree)
    for by_st in sections:
        for st, per_node in by_st.items():
            ids = level_ids[max(st)]
            extra = per_node.keys() - set(ids)
            if extra:
                raise GameSpecError(
                    f"payoff for unknown or off-level node {sorted(extra)[0]} "
                    f"at (s,t)={st}"
                )
            if len(per_node) != len(ids):
                missing = next(nid for nid in ids if nid not in per_node)
                raise GameSpecError(f"payoff missing for node {missing} at (s,t)={st}")


def _negation_by_block(
    sections: Mapping[int, Mapping[tuple[int, int], Mapping[str, float]]], tree: EventTree
) -> None:
    """Word the first payoff of section 2 that is not the negation of
    section 1's, one block at a time in file order: the block's own nodes
    first, then the nodes of its level that it lacks."""
    level_ids = _level_ids(tree)
    for st, per_node in sections[2].items():
        base = sections[1][st]
        for nid in chain(per_node, level_ids[max(st)]):
            if nid not in per_node or nid not in base or per_node[nid] != -base[nid]:
                raise GameSpecError(
                    f"payoff section 2 is not the negation of section 1 "
                    f"at (s,t)={st}, node {nid}"
                )


@dataclass(frozen=True)
class GameDocument:
    """A parsed game file: the tree plus raw per-player payoff sections."""

    tree: EventTree
    sections: dict[int, dict[tuple[int, int], dict[str, float]]]
    name: str | None = None
    seed: int | None = None

    @property
    def horizon(self) -> int:
        return self.tree.horizon

    def payoff_field(self) -> PayoffField:
        """Two-player field; both payoff sections must be present."""
        if set(self.sections) != {1, 2}:
            raise GameSpecError("game file needs payoff sections for players 1 and 2")
        rows = _rows(self.tree, [self.sections[1], self.sections[2]])
        if rows is None:
            _slices_by_block(self.sections.values(), self.tree)
        return PayoffField(self.tree, rows)

    def zero_sum_field(self) -> PayoffField:
        """Field with player 2's payoffs the negation of player 1's.

        A present section 2 must already equal the negation exactly.  Its
        faults are named before section 1's.
        """
        if 1 not in self.sections:
            raise GameSpecError("game file needs a payoff section for player 1")
        tree = self.tree
        rows = _rows(tree, [self.sections[p] for p in (1, 2) if p in self.sections])
        n = len(tree.stop_pairs)
        # Section 2's rows, if any, follow section 1's and must negate them.
        if rows is None or not all(
            map(eq, chain.from_iterable(rows[n:]), map(neg, chain.from_iterable(rows[:n])))
        ):
            if 2 in self.sections:
                _negation_by_block(self.sections, tree)
            _slices_by_block([self.sections[1]], tree)
        return PayoffField.zero_sum(tree, rows[:n])


def _st_key(st_key: str, horizon: int) -> tuple[int, int]:
    """The (s, t) of a payoff key, checked against the horizon."""
    try:
        s_str, t_str = st_key.split(",")
        st = (int(s_str), int(t_str))
    except ValueError as exc:
        raise GameSpecError(f"malformed payoff key {st_key!r}") from exc
    if not (0 <= st[0] <= horizon and 0 <= st[1] <= horizon):
        raise GameSpecError(f"payoff key {st_key!r} outside 0..{horizon}")
    return st


def _float_payoffs(section: dict, player: int) -> dict:
    """`section` with every payoff a float; each must be a JSON number."""
    kinds = set(map(type, chain.from_iterable(map(dict.values, section.values()))))
    if kinds <= {float}:
        return section
    if kinds <= {float, int}:
        try:
            return {
                st: dict(zip(per_node, map(float, per_node.values())))
                for st, per_node in section.items()
            }
        except OverflowError:
            pass
    for st, per_node in section.items():
        for nid, val in per_node.items():
            if type(val) not in (float, int):
                raise GameSpecError(
                    f"payoff for node {nid} at (s,t)={st} in section {player} "
                    f"is not a number"
                )
    raise GameSpecError(
        f"payoff section {player} holds an integer too large for a float"
    )


def parse(text: str) -> GameDocument:
    """Parse and validate a game file."""
    raw = _loads(text, "game file")
    if not isinstance(raw, dict):
        raise GameSpecError("game file must be a JSON object")
    if raw.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise GameSpecError(f"unsupported format {raw.get('format')!r}")
    for key in ("horizon", "nodes", "payoffs"):
        if key not in raw:
            raise GameSpecError(f"game file missing field {key!r}")
    tree = build_tree({"horizon": raw["horizon"], "nodes": raw["nodes"]})

    horizon = tree.horizon
    pairs = tree.stop_pairs  # shared by the sections and fields on the tree
    keys = dict(zip([f"{s},{t}" for s, t in pairs], pairs))
    sections: dict[int, dict[tuple[int, int], dict[str, float]]] = {}
    if not isinstance(raw["payoffs"], dict) or not raw["payoffs"]:
        raise GameSpecError("payoffs must map player ids to payoff sections")
    for player_key, by_st in raw["payoffs"].items():
        if player_key not in ("1", "2"):
            raise GameSpecError(f"unknown payoff section {player_key!r}")
        if not isinstance(by_st, dict):
            raise GameSpecError(f"payoff section {player_key} must be an object")
        player = int(player_key)
        section: dict[tuple[int, int], dict[str, float]] = {}
        for st_key, per_node in by_st.items():
            if not isinstance(per_node, dict):
                raise GameSpecError(f"payoff entry {st_key!r} must be an object")
            section[keys.get(st_key) or _st_key(st_key, horizon)] = per_node
        if len(section) != len(keys):
            s, t = next(st for st in keys.values() if st not in section)
            raise GameSpecError(f"payoff section {player} missing entry ({s},{t})")
        sections[player] = _float_payoffs(section, player)

    name = raw.get("name")
    seed = raw.get("seed")
    return GameDocument(
        tree=tree,
        sections=sections,
        name=None if name is None else str(name),
        seed=None if seed is None else checked_int(seed, "seed"),
    )


def read_text(path: str, document: str) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 is a GameSpecError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise GameSpecError(f"{document} {path} is not UTF-8 text") from None


def load(path: str) -> GameDocument:
    return parse(read_text(path, "game file"))


def load_bundled(name: str) -> GameDocument:
    """Load a game file shipped with the package, e.g. ``matching_times``."""
    return parse(
        resources.files("stopgames").joinpath("data", f"{name}.json").read_text("utf-8")
    )


def emit(doc: GameDocument) -> str:
    """Canonical JSON text; parse(emit(doc)) reproduces the game exactly.

    The text is ``json.dumps(obj, indent=2) + "\n"`` of the game object:
    the layout is written here, and the flat objects in it go through the C
    encoders of ``_FLAT``.
    """
    tree = doc.tree
    head: dict = {"format": FORMAT_NAME}
    if doc.name is not None:
        head["name"] = doc.name
    if doc.seed is not None:
        head["seed"] = doc.seed
    head["horizon"] = tree.horizon
    nodes = []
    for node in tree.nodes:
        entry: dict = {"id": node.id, "time": node.time}
        if node.parent is not None:
            entry["parent"] = tree.nodes[node.parent].id
            entry["prob"] = node.edge_prob
        nodes.append(entry)
    level_ids = _level_ids(tree)
    players = []
    for player in sorted(doc.sections):
        section = doc.sections[player]
        blocks = []
        for s in range(tree.horizon + 1):
            for t in range(tree.horizon + 1):
                ids = level_ids[max(s, t)]
                per_node = section[(s, t)]
                if type(per_node) is not dict or list(per_node) != ids:
                    per_node = dict(zip(ids, map(per_node.__getitem__, ids)))
                blocks.append(f'      "{s},{t}": {_flat(per_node, 3)}')
        players.append(f'    "{player}": {{\n' + ",\n".join(blocks) + "\n    }")
    payoffs = "{\n" + ",\n".join(players) + "\n  }" if players else "{}"
    return (
        f"{{\n  {_FLAT[0].encode(head)[1:-1]},\n"
        f'  "nodes": {_flat_list(nodes, 1)},\n'
        f'  "payoffs": {payoffs}\n}}\n'
    )


def save(doc: GameDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(doc))


def generate_random_game(
    horizon: int,
    branching: int,
    seed: int,
    payoff_range: tuple[float, float] = (-1.0, 1.0),
    zero_sum: bool = False,
    name: str | None = None,
) -> GameDocument:
    """Uniform-branching random game, fully determined by the seed.

    Edge probabilities are normalized positive weights; payoffs are i.i.d.
    uniform over ``payoff_range``, one per (player, s, t, node).  Zero-sum
    games carry a single payoff section.
    """
    if horizon < 0:
        raise GameSpecError(f"horizon must be >= 0, got {horizon}")
    if branching < 1:
        raise GameSpecError(f"branching must be >= 1, got {branching}")
    lo, hi = payoff_range
    if not lo < hi:
        raise GameSpecError(f"empty payoff range ({lo:g}, {hi:g})")
    if not isfinite(hi - lo):
        raise GameSpecError(f"payoff range ({lo:g}, {hi:g}) needs finite bounds and width")

    rng = random.Random(seed)
    nodes = [{"id": "0:0", "time": 0}]
    level_ids = ["0:0"]
    for t in range(1, horizon + 1):
        next_ids = []
        counter = 0
        for parent in level_ids:
            weights = [0.1 + 0.9 * rng.random() for _ in range(branching)]
            total = sum(weights)
            for w in weights:
                nid = f"{t}:{counter}"
                counter += 1
                nodes.append(
                    {"id": nid, "time": t, "parent": parent, "prob": w / total}
                )
                next_ids.append(nid)
        level_ids = next_ids
    tree = build_tree({"horizon": horizon, "nodes": nodes})

    players = (1,) if zero_sum else (1, 2)
    level_ids = _level_ids(tree)
    sections: dict[int, dict[tuple[int, int], dict[str, float]]] = {}
    for player in players:
        sections[player] = {
            st: {nid: lo + (hi - lo) * rng.random() for nid in level_ids[level]}
            for st, level in zip(tree.stop_pairs, tree.stop_levels)
        }
    return GameDocument(tree=tree, sections=sections, name=name, seed=seed)


# -- Strategy profile serialization -------------------------------------------


def _object(data, what: str) -> Mapping:
    if not isinstance(data, dict):
        raise GameSpecError(f"{what} must be a JSON object")
    return data


#: JSON types a profile value may have: numbers for stop probabilities,
#: booleans for stop marks.
_KINDS = {"number": {int, float}, "boolean": {bool}}


def _per_node(tree: EventTree, data, what: str, kind: str) -> tuple:
    """Per-node values of a {node id: value} object of the given kind.

    Every node needs a value; numbers read as floats.
    """
    data = _object(data, what)
    kinds = _KINDS[kind]
    if not (data.keys() <= tree.by_id.keys() and set(map(type, data.values())) <= kinds):
        for nid, val in data.items():
            if nid not in tree.by_id:
                raise GameSpecError(f"unknown node {nid!r} in profile")
            if type(val) not in kinds:
                raise GameSpecError(f"{what} at node {nid!r} is not a {kind}")
    if len(data) != tree.n_nodes:
        missing = next(nid for nid in tree.by_id if nid not in data)
        raise GameSpecError(f"{what} has no value for node {missing!r}")
    if kind == "boolean":
        return tuple(map(data.__getitem__, tree.by_id))
    try:
        return tuple(map(float, map(data.__getitem__, tree.by_id)))
    except OverflowError as exc:
        raise GameSpecError(f"{what} holds an integer too large for a float") from exc


def _strategy_to_json(tree: EventTree, strategy: Strategy) -> str:
    """A strategy's object, as ``json.dumps(..., indent=2)`` writes it in a profile."""

    def marks(rule: StoppingTime) -> dict[str, bool]:
        return dict(zip(tree.by_id, map(bool, rule.marks)))

    if strategy.mixed:
        head = f'"stop_prob": {_flat(dict(zip(tree.by_id, strategy.initial.probs)), 2)}'
    else:
        head = f'"stops": {_flat(marks(strategy.initial), 2)}'
    rules = ",\n".join(
        f'      "{t}": {_flat(marks(rule), 3)}'
        for t, rule in enumerate(strategy.adjust.rules)
    )
    adjust = f"{{\n{rules}\n    }}" if rules else "{}"
    return f'{{\n    {head},\n    "adjust": {adjust}\n  }}'


def _strategy_from_json(
    tree: EventTree, data, label: str, mixed: bool, strict: bool
) -> Strategy:
    data = _object(data, f"profile section {label}")
    key = "stop_prob" if mixed else "stops"
    for name in (key, "adjust"):
        if name not in data:
            raise GameSpecError(f"profile section {label} missing {name!r}")
    initial: StoppingTime | RandomizedStoppingTime
    if mixed:
        initial = RandomizedStoppingTime(_per_node(tree, data[key], key, "number"))
    else:
        initial = StoppingTime(_per_node(tree, data[key], key, "boolean"))
    adjust = _object(data["adjust"], "profile adjustment")
    times = [str(t) for t in range(tree.horizon + 1)]
    if not adjust.keys() <= set(times):
        key = next(key for key in adjust if key not in times)
        raise GameSpecError(f"profile adjustment key {key!r} outside 0..{tree.horizon}")
    rules = []
    for t in times:
        if t not in adjust:
            raise GameSpecError(f"profile adjustment missing rule for time {t}")
        marks = _per_node(tree, adjust[t], "adjustment rule", "boolean")
        rules.append(StoppingTime(marks))
    strategy = Strategy(initial, AdjustmentFamily(tuple(rules), strict))
    strategy.validate(tree)
    return strategy


def profile_to_json(tree: EventTree, mode: str, profile: tuple) -> str:
    """Serialize a strategy profile for the given mode."""
    if mode not in ("sim", "seq", "zs"):
        raise GameSpecError(f"unknown mode {mode!r}")
    rho, tau = profile
    return (
        f'{{\n  "mode": "{mode}",\n'
        f'  "player1": {_strategy_to_json(tree, rho)},\n'
        f'  "player2": {_strategy_to_json(tree, tau)}\n}}\n'
    )


def profile_from_json(tree: EventTree, text: str, mode: str) -> tuple:
    """Deserialize and validate a strategy profile for the given mode."""
    raw = _object(_loads(text, "profile"), "profile")
    if raw.get("mode") != mode:
        raise GameSpecError(
            f"profile mode {raw.get('mode')!r} does not match requested {mode!r}"
        )
    try:
        p1 = raw["player1"]
        p2 = raw["player2"]
    except KeyError as exc:
        raise GameSpecError(f"profile missing section {exc}") from exc
    mixed = mode == "sim"
    return (
        _strategy_from_json(tree, p1, "player1", mixed, strict=True),
        _strategy_from_json(tree, p2, "player2", mixed, strict=mixed),
    )
