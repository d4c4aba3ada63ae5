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
from typing import Mapping

from .errors import GameSpecError
from .strategies import AdjustmentFamily, PayoffField, RandomizedStoppingTime, Strategy
from .tree import EventTree, StoppingTime, build_tree

FORMAT_NAME = "stopping-game-v1"


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
        return PayoffField(self.tree, self._slices(self.sections))

    def zero_sum_field(self) -> PayoffField:
        """Field with player 2's payoffs the negation of player 1's.

        A present section 2 must already equal the negation exactly.
        """
        if 1 not in self.sections:
            raise GameSpecError("game file needs a payoff section for player 1")
        if 2 in self.sections:
            for st, per_node in self.sections[2].items():
                for nid, val in per_node.items():
                    base = self.sections[1][st].get(nid)
                    if base is None or val != -base:
                        raise GameSpecError(
                            f"payoff section 2 is not the negation of section 1 "
                            f"at (s,t)={st}, node {nid}"
                        )
        one = {
            st: self._aligned(st, per_node)
            for st, per_node in self.sections[1].items()
        }
        return PayoffField.zero_sum(self.tree, one)

    def _aligned(self, st: tuple[int, int], per_node: Mapping[str, float]) -> list[float]:
        level = max(st)
        out = []
        for idx in self.tree.levels[level]:
            nid = self.tree.nodes[idx].id
            if nid not in per_node:
                raise GameSpecError(
                    f"payoff missing for node {nid} at (s,t)={st}"
                )
            out.append(per_node[nid])
        return out

    def _slices(self, sections) -> dict[tuple[int, int, int], list[float]]:
        out = {}
        for player, by_st in sections.items():
            for st, per_node in by_st.items():
                extra = per_node.keys() - {
                    self.tree.nodes[idx].id for idx in self.tree.levels[max(st)]
                }
                if extra:
                    raise GameSpecError(
                        f"payoff for unknown or off-level node {sorted(extra)[0]} "
                        f"at (s,t)={st}"
                    )
                out[(player, st[0], st[1])] = self._aligned(st, per_node)
        return out


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise GameSpecError(f"duplicate key {key!r} in game file")
        seen.add(key)
        out[key] = value
    return out


def parse(text: str) -> GameDocument:
    """Parse and validate a game file."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise GameSpecError("game file must be a JSON object")
    if raw.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise GameSpecError(f"unsupported format {raw.get('format')!r}")
    for key in ("horizon", "nodes", "payoffs"):
        if key not in raw:
            raise GameSpecError(f"game file missing field {key!r}")
    tree = build_tree({"horizon": raw["horizon"], "nodes": raw["nodes"]})

    horizon = tree.horizon
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
            try:
                s_str, t_str = st_key.split(",")
                st = (int(s_str), int(t_str))
            except ValueError as exc:
                raise GameSpecError(f"malformed payoff key {st_key!r}") from exc
            if not (0 <= st[0] <= horizon and 0 <= st[1] <= horizon):
                raise GameSpecError(f"payoff key {st_key!r} outside 0..{horizon}")
            section[st] = {str(k): float(v) for k, v in per_node.items()}
        for s in range(horizon + 1):
            for t in range(horizon + 1):
                if (s, t) not in section:
                    raise GameSpecError(
                        f"payoff section {player} missing entry ({s},{t})"
                    )
        sections[player] = section

    name = raw.get("name")
    seed = raw.get("seed")
    return GameDocument(
        tree=tree,
        sections=sections,
        name=None if name is None else str(name),
        seed=None if seed is None else int(seed),
    )


def load(path: str) -> GameDocument:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def load_bundled(name: str) -> GameDocument:
    """Load a game file shipped with the package, e.g. ``matching_times``."""
    return parse(
        resources.files("stopgames").joinpath("data", f"{name}.json").read_text("utf-8")
    )


def emit(doc: GameDocument) -> str:
    """Canonical JSON text; parse(emit(doc)) reproduces the game exactly."""
    tree = doc.tree
    obj: dict = {"format": FORMAT_NAME}
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
    payoffs: dict = {}
    for player in sorted(doc.sections):
        by_st = {}
        for s in range(tree.horizon + 1):
            for t in range(tree.horizon + 1):
                per_node = doc.sections[player][(s, t)]
                by_st[f"{s},{t}"] = {
                    tree.nodes[idx].id: per_node[tree.nodes[idx].id]
                    for idx in tree.levels[max(s, t)]
                }
        payoffs[str(player)] = by_st
    obj["payoffs"] = payoffs
    return json.dumps(obj, indent=2) + "\n"


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
    sections: dict[int, dict[tuple[int, int], dict[str, float]]] = {}
    for player in players:
        section = {}
        for s in range(horizon + 1):
            for t in range(horizon + 1):
                section[(s, t)] = {
                    tree.nodes[idx].id: lo + (hi - lo) * rng.random()
                    for idx in tree.levels[max(s, t)]
                }
        sections[player] = section
    return GameDocument(tree=tree, sections=sections, name=name, seed=seed)


# -- Strategy profile serialization -------------------------------------------


def _object(data, what: str) -> Mapping:
    if not isinstance(data, dict):
        raise GameSpecError(f"{what} must be a JSON object")
    return data


def _per_node(tree: EventTree, data, what: str, convert, default) -> tuple:
    """Per-node values of a {node id: value} object; omitted nodes get `default`."""
    values = [default] * tree.n_nodes
    for nid, val in _object(data, what).items():
        if nid not in tree.by_id:
            raise GameSpecError(f"unknown node {nid!r} in profile")
        try:
            values[tree.by_id[nid]] = convert(val)
        except (TypeError, ValueError) as exc:
            raise GameSpecError(f"{what} at node {nid!r} is not a number") from exc
    return tuple(values)


def _marks_to_json(tree: EventTree, st: StoppingTime) -> dict[str, bool]:
    return {tree.nodes[idx].id: bool(st.marks[idx]) for idx in range(tree.n_nodes)}


def _strategy_to_json(tree: EventTree, strategy: Strategy) -> dict:
    if strategy.mixed:
        probs = strategy.initial.probs
        obj: dict = {"stop_prob": {node.id: probs[node.index] for node in tree.nodes}}
    else:
        obj = {"stops": _marks_to_json(tree, strategy.initial)}
    obj["adjust"] = {
        str(t): _marks_to_json(tree, rule) for t, rule in enumerate(strategy.adjust.rules)
    }
    return obj


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
        initial = RandomizedStoppingTime(_per_node(tree, data[key], key, float, 0.0))
    else:
        initial = StoppingTime(_per_node(tree, data[key], key, bool, False))
    adjust = _object(data["adjust"], "profile adjustment")
    rules = []
    for t in range(tree.horizon + 1):
        if str(t) not in adjust:
            raise GameSpecError(f"profile adjustment missing rule for time {t}")
        marks = _per_node(tree, adjust[str(t)], "adjustment rule", bool, False)
        rules.append(StoppingTime(marks))
    strategy = Strategy(initial, AdjustmentFamily(tuple(rules), strict))
    strategy.validate(tree)
    return strategy


def profile_to_json(tree: EventTree, mode: str, profile: tuple) -> str:
    """Serialize a strategy profile for the given mode."""
    if mode not in ("sim", "seq", "zs"):
        raise GameSpecError(f"unknown mode {mode!r}")
    rho, tau = profile
    obj = {
        "mode": mode,
        "player1": _strategy_to_json(tree, rho),
        "player2": _strategy_to_json(tree, tau),
    }
    return json.dumps(obj, indent=2) + "\n"


def profile_from_json(tree: EventTree, text: str, mode: str) -> tuple:
    """Deserialize and validate a strategy profile for the given mode."""
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise GameSpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    raw = _object(raw, "profile")
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
