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
byte-stable and exact.  A key repeated in any object of a game or profile
file is an error.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate, chain, compress, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import add, is_, itemgetter, mul, ne, neg, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import GameSpecError
from .strategies import AdjustmentFamily, CheckedRows, PayoffField, RandomizedStoppingTime
from .strategies import Strategy
from .tree import EventTree, StoppingTime, build_tree, checked_int, left_sum

FORMAT_NAME = "stopping-game-v1"


#: Encoders of flat objects (no nested values), keyed by the nesting depth
#: of the object's braces: a game file's header and nodes.  Each writes the
#: items of such an object exactly as ``json.dumps(..., indent=2)`` would
#: inside the whole document, but through the C encoder, which ``indent``
#: disables.
_FLAT = {
    depth: json.JSONEncoder(
        separators=(",\n" + "  " * (depth + 1), ": "), check_circular=False
    )
    for depth in (0, 2)
}


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


#: The nesting depth of the deepest objects that a game file (its payoff
#: blocks) or a profile (its adjustment rules) holds; the document is at 0.
_DEEPEST = 3


def _string_count(obj) -> int:
    """The strings of a decoded document, keys and values, counted in its
    objects and arrays down to depth ``_DEEPEST``.

    The walk goes one nesting level at a time, with C-level passes over
    each level's values, so it costs no Python step per object.  The values
    of the objects at depth ``_DEEPEST`` are not read.
    """
    count = 0
    level = [obj]
    for depth in range(_DEEPEST + 1):
        kinds = list(map(type, level))
        objects = list(compress(level, map(is_, kinds, repeat(dict))))
        count += sum(map(len, objects)) + kinds.count(str)
        if depth < _DEEPEST:
            arrays = compress(level, map(is_, kinds, repeat(list)))
            level = list(
                chain(chain.from_iterable(map(dict.values, objects)), chain.from_iterable(arrays))
            )
    return count


def _loads(text: str, document: str):
    """Decode JSON text, rejecting a repeated key in any object.

    Every quote of a JSON text opens or closes a string, unless it is
    escaped inside one, so the text holds at most half as many strings as
    quotes: one key per pair, and the string values.  A repeated key
    collapses into one entry of its object, so the decoded document holds
    fewer.  So a plain decode stands when its strings number half the
    text's quotes.  Otherwise (counts that differ, an escaped quote, an
    object deeper than ``_DEEPEST``, or a decode error) the text is decoded
    again with a hook on every object, which names the first repeat, or
    words the first fault, in the order of the text.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        pass  # worded by the hooked decode below
    else:
        if 2 * _string_count(obj) == text.count('"'):
            return obj

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


def _block_faults(section: Mapping, base: Mapping | None, level_ids: list[list[str]]) -> tuple:
    """The first fault of each kind in a decoded payoff section, as the error
    that a field raises, or None, in one walk of its blocks in file order: a
    block without exactly its level's nodes (a node off the level, else one it
    lacks), and a payoff that does not negate section 1's, `base` (the block's
    own nodes first, then those it lacks)."""
    slices = negation = None
    for st_key, block in section.items():
        st = tuple(map(int, st_key.split(",")))
        ids = level_ids[max(st)]
        extra = block.keys() - set(ids)
        if slices is None and extra:
            slices = GameSpecError(
                f"payoff for unknown or off-level node {min(extra)} at (s,t)={st}"
            )
        elif slices is None and len(block) != len(ids):
            missing = next(nid for nid in ids if nid not in block)
            slices = GameSpecError(f"payoff missing for node {missing} at (s,t)={st}")
        if base is not None and negation is None:
            other = base[st_key]
            for nid in chain(block, ids):
                if nid not in block or nid not in other or float(block[nid]) != -float(other[nid]):
                    negation = _negation_fault(st, nid)
                    break
        if slices is not None and (base is None or negation is not None):
            break
    return slices, negation


def _negation_fault(st: tuple[int, int], nid: str) -> GameSpecError:
    return GameSpecError(
        f"payoff section 2 is not the negation of section 1 at (s,t)={st}, node {nid}"
    )


class _ParsedRows(dict):
    """A parsed document's rows by player, with ``faults``: the messages of
    the faults that its fields raise, as ``_SectionReader.faults`` gives them.
    They travel with the rows they describe, so a document made by
    ``GameDocument._replace`` keeps them exactly when it keeps the rows."""

    __slots__ = ("faults",)


class GameDocument(NamedTuple):
    """A game: the tree plus, per player present (in a file's section order),
    the payoff rows that ``PayoffField`` takes: one tuple per (s, t) in
    ``tree.stop_pairs`` order, of the values of level max(s, t)'s nodes in
    canonical order.  ``generate_random_game`` gives ``CheckedRows``, and so
    does ``parse`` for a section of finite values; it gives None for one whose
    blocks do not hold exactly their levels' nodes.

    A parsed document keeps no decoded section, only its fields' fault
    messages, held by its rows (``_ParsedRows``).
    """

    tree: EventTree
    rows: dict[int, list[tuple[float, ...]] | None]
    name: str | None = None
    seed: int | None = None

    @property
    def horizon(self) -> int:
        return self.tree.horizon

    @property
    def _messages(self) -> tuple[dict[int, str], str | None] | None:
        return getattr(self.rows, "faults", None)

    def _section_fault(self, player: int) -> GameSpecError:
        """The fault of `player`'s payoff section, whose rows are None: as its
        file was parsed, or, for rows that do not come from a parse, in terms
        of the rows."""
        if self._messages and player in self._messages[0]:
            return GameSpecError(self._messages[0][player])
        return GameSpecError(f"payoff section {player} has no rows for the (s,t) levels")

    def payoff_field(self) -> PayoffField:
        """Two-player field; both payoff sections must be present."""
        if set(self.rows) != {1, 2}:
            raise GameSpecError("game file needs payoff sections for players 1 and 2")
        rows1, rows2 = self.rows[1], self.rows[2]
        if rows1 is None or rows2 is None:
            raise self._section_fault(next(p for p, rows in self.rows.items() if rows is None))
        rows = [*rows1, *rows2]
        if type(rows1) is type(rows2) is CheckedRows:
            rows = CheckedRows(rows, max(rows1.bound, rows2.bound))
        return PayoffField(self.tree, rows)

    def zero_sum_field(self) -> PayoffField:
        """Field with player 2's payoffs the negation of player 1's.  A present
        section 2 must already equal the negation exactly; its faults come first."""
        if 1 not in self.rows:
            raise GameSpecError("game file needs a payoff section for player 1")
        messages = self._messages
        if messages is None and 2 in self.rows:  # worded as its file would be
            messages = parse(emit(self))._messages
        sections, negation = messages or ({}, None)
        for message in (negation, sections.get(1)):
            if message is not None:
                raise GameSpecError(message)
        if self.rows[1] is None:
            raise self._section_fault(1)
        return PayoffField.zero_sum(self.tree, self.rows[1])


def _st_key_fault(st_key: str, horizon: int) -> GameSpecError:
    """The error for a payoff key that is not the text "s,t" of a stop pair
    of the horizon: out of range when it is two integers written as ``str``
    writes them, else malformed (so ``"00,1"`` never stands in for
    ``"0,1"``)."""
    try:
        s, t = map(int, st_key.split(","))
    except ValueError:
        pass
    else:
        if f"{s},{t}" == st_key:
            return GameSpecError(f"payoff key {st_key!r} outside 0..{horizon}")
    return GameSpecError(f"malformed payoff key {st_key!r}")


def _block_fault(by_st: Mapping, texts: set[str], horizon: int) -> None:
    """Raise the first fault of a payoff section's entries, one at a time
    in file order: a block that is not an object, or a key that is not one
    of the `texts`, the "s,t" of each stop pair of the horizon."""
    for st_key, per_node in by_st.items():
        if not isinstance(per_node, dict):
            raise GameSpecError(f"payoff entry {st_key!r} must be an object")
        if st_key not in texts:
            raise _st_key_fault(st_key, horizon)


class _SectionReader:
    """Reads a file's payoff sections on one tree into rows in field order,
    each block looked up by its "s,t" text and read by its level's getter."""

    def __init__(self, tree: EventTree):
        self.tree = tree
        self.texts = list(_st_texts(tree.horizon + 1, "", ""))
        self.level_ids = level_ids = _level_ids(tree)
        level_sizes = list(map(len, level_ids))
        self.sizes = list(map(level_sizes.__getitem__, tree.stop_levels))
        getters = [itemgetter(*ids) for ids in level_ids]
        self.getters = list(map(getters.__getitem__, tree.stop_levels))
        self.lone = level_sizes.count(1)

    def __call__(self, by_st: Mapping, player: int) -> list[tuple[float, ...]] | None:
        """Section `player` as ``CheckedRows`` when every value is finite,
        else a plain list, or None when a block does not hold exactly its
        level's nodes (a field words that).  Other faults are raised, walked
        in file order only when a whole-list pass fails."""
        tree = self.tree
        blocks = list(map(by_st.get, self.texts))
        if len(by_st) != len(blocks) or not set(map(type, blocks)) <= {dict}:
            _block_fault(by_st, set(self.texts), tree.horizon)
            missing = next(st_key for st_key in self.texts if st_key not in by_st)
            raise GameSpecError(f"payoff section {player} missing entry ({missing})")
        kinds = set(map(type, chain.from_iterable(map(dict.values, blocks))))
        if not kinds <= {float, int}:
            for st_key, per_node in by_st.items():
                for nid, val in per_node.items():
                    if type(val) not in (float, int):
                        st = tuple(map(int, st_key.split(",")))
                        raise GameSpecError(
                            f"payoff for node {nid} at (s,t)={st} in section {player} "
                            f"is not a number"
                        )
        if int in kinds:
            try:
                blocks = [dict(zip(block, map(float, block.values()))) for block in blocks]
            except OverflowError:
                raise GameSpecError(
                    f"payoff section {player} holds an integer too large for a float"
                ) from None
        if list(map(len, blocks)) != self.sizes:
            return None
        try:
            rows = list(map(itemgetter.__call__, self.getters, blocks))
        except KeyError:
            return None
        # A getter returns a bare value for a one-node level.  Those levels
        # come first, as no node before the horizon is a leaf, so in each row
        # s < lone of the (s, t) grid the first `lone` values are wrapped.
        n = tree.horizon + 1
        for start in range(0, self.lone * n, n):
            rows[start : start + self.lone] = zip(rows[start : start + self.lone])
        # A sum of finite floats can overflow, but a sum that is finite has
        # no infinite or NaN term, so that one C-level pass stands for the
        # test of each value in the common case.
        flat = chain.from_iterable
        if not (isfinite(sum(flat(rows))) or all(map(isfinite, flat(rows)))):
            return rows
        return CheckedRows(rows, max(map(abs, flat(rows)), default=0.0))

    def faults(self, rows: Mapping, payoffs: Mapping) -> tuple:
        """The messages of the faults that the fields raise, worded from the
        decoded `payoffs` that gave `rows`: by player in file order, of each
        section that does not gather, and of section 2's first payoff that
        does not negate section 1's, found by a lazy compare of the rows."""
        flat = chain.from_iterable
        if None not in rows.values():
            if len(rows) < 2 or not any(map(ne, flat(rows[2]), map(neg, flat(rows[1])))):
                return {}, None
            for st_key, block in payoffs["2"].items():
                other = map(float, map(payoffs["1"][st_key].__getitem__, block))
                for nid in compress(block, map(ne, map(float, block.values()), map(neg, other))):
                    return {}, str(_negation_fault(tuple(map(int, st_key.split(","))), nid))
        sections, negation = {}, None
        for player, section_rows in rows.items():
            base = payoffs["1"] if player == 2 and len(rows) == 2 else None
            if section_rows is None or base is not None:
                slices, found = _block_faults(payoffs[str(player)], base, self.level_ids)
                negation = negation or found
            if section_rows is None:
                sections[player] = str(slices)
        return sections, negation and str(negation)


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
    payoffs = raw["payoffs"]
    if not isinstance(payoffs, dict) or not payoffs:
        raise GameSpecError("payoffs must map player ids to payoff sections")
    # A section holds 2u + 1 entries per level-u node, and an entry takes at
    # least 5 characters ('"":0' and a comma or brace), so a text too short
    # for its sections is refused before anything of size (T + 1)^2 exists.
    starts = tree.level_start
    entries = sum(map(mul, range(1, 2 * horizon + 2, 2), map(sub, starts[1:], starts)))
    if len(text) < 5 * entries * (("1" in payoffs) + ("2" in payoffs)):
        raise GameSpecError(
            f"game file of {len(text)} characters cannot hold {entries} payoff entries per section"
        )

    read = _SectionReader(tree)
    rows = _ParsedRows()
    for player_key, by_st in payoffs.items():
        if player_key not in ("1", "2"):
            raise GameSpecError(f"unknown payoff section {player_key!r}")
        if not isinstance(by_st, dict):
            raise GameSpecError(f"payoff section {player_key} must be an object")
        rows[int(player_key)] = read(by_st, int(player_key))
    rows.faults = read.faults(rows, payoffs)

    name = raw.get("name")
    seed = raw.get("seed")
    return GameDocument(
        tree=tree,
        rows=rows,
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
    from importlib import resources

    return parse(
        resources.files("stopgames").joinpath("data", f"{name}.json").read_text("utf-8")
    )


def _st_texts(n: int, before: str, after: str) -> Iterator[str]:
    """``before + "s,t" + after`` for every (s, t) in 0..n-1, in the
    row-major order of ``EventTree.stop_pairs``, joined by C-level string
    additions as they are drawn."""
    firsts = [f"{before}{s}," for s in range(n)]
    seconds = [f"{t}{after}" for t in range(n)]
    return map(add, chain.from_iterable(map(repeat, firsts, repeat(n))), seconds * n)


def _id_slots(ids: Iterable[str]) -> list[str]:
    """Each node id as the key of a JSON object's item in a ``str.format``
    template: JSON-encoded, its braces doubled, and followed by ``: {!s}``."""
    return [
        encode_basestring_ascii(nid).replace("{", "{{").replace("}", "}}") + ": {!s}"
        for nid in ids
    ]


def _section_template(tree: EventTree, level_ids: list[list[str]]) -> str:
    """The ``str.format`` template of a payoff section's blocks, as
    ``json.dumps(..., indent=2)`` lays them out in a game file.

    Each level has one block template: its node ids in canonical order,
    JSON-encoded with their braces doubled, each followed by a ``{!s}`` slot
    for its value.  Each (s, t) puts its key before its level's template.
    """
    levels = [
        "{{\n        " + ",\n        ".join(_id_slots(ids)) + "\n      }}" for ids in level_ids
    ]
    heads = _st_texts(tree.horizon + 1, '      "', '": ')
    return ",\n".join(map(add, heads, map(levels.__getitem__, tree.stop_levels)))


#: The JSON text of one scalar, for numbers that ``str`` does not write as
#: JSON does: non-finite floats and anything but a float.
_SCALAR = json.JSONEncoder(check_circular=False).encode


def _json_numbers(values: Sequence) -> Sequence:
    """Numbers to fill a template's ``{!s}`` slots with their JSON text:
    `values` as they are when all are finite floats, whose ``str`` is that
    text, else each one's ``_SCALAR``."""
    if set(map(type, values)) <= {float} and all(map(isfinite, values)):
        return values
    return list(map(_SCALAR, values))


def _payoff_parts(doc: GameDocument) -> list[str]:
    """The text of a game file's payoffs object, in parts that the whole
    document is joined from, so no section's text is copied on the way.
    Each section is one ``format`` of the tree's section template with its
    rows' values, as ``_json_numbers`` gives them, once the rows are seen to
    fit the tree: ``str.format`` would ignore surplus values."""
    if not doc.rows:
        return ["{}"]
    tree = doc.tree
    level_ids = _level_ids(tree)
    sizes = list(map(len, map(level_ids.__getitem__, tree.stop_levels)))
    template = _section_template(tree, level_ids)
    parts = ["{\n"]
    for player in sorted(doc.rows):
        rows = doc.rows[player]
        if rows is None:
            raise doc._section_fault(player)
        try:
            fits = list(map(len, rows)) == sizes
        except TypeError:
            fits = False
        if not fits:
            raise GameSpecError(f"payoff section {player} rows do not fit the (s,t) levels")
        values = list(chain.from_iterable(rows))
        parts += [f'    "{player}": {{\n', template.format(*_json_numbers(values)), "\n    },\n"]
    parts[-1] = "\n    }\n  }"
    return parts


def emit(doc: GameDocument) -> str:
    """Canonical JSON text; parse(emit(doc)) reproduces the game exactly.

    The text is ``json.dumps(obj, indent=2) + "\n"`` of the game object:
    the layout is written here.  The header and the node list go through
    the C encoders of ``_FLAT``, the payoffs through ``_payoff_parts``.
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
    return "".join(
        [
            f"{{\n  {_FLAT[0].encode(head)[1:-1]},\n",
            f'  "nodes": {_flat_list(nodes, 1)},\n',
            '  "payoffs": ',
            *_payoff_parts(doc),
            "\n}\n",
        ]
    )


def save(doc: GameDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(doc))


#: The most payoff entries per player that ``generate_random_game`` builds:
#: about 89 times the 188,419 of horizon 12, branching 2.
GEN_BUDGET = 2**24


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
    games carry a single payoff section.  A shape of more than
    ``GEN_BUDGET`` payoff entries per player is refused before anything is
    built.
    """
    if horizon < 0:
        raise GameSpecError(f"horizon must be >= 0, got {horizon}")
    if branching < 1:
        raise GameSpecError(f"branching must be >= 1, got {branching}")
    # Level u holds branching**u nodes of 2u + 1 entries each; the sum stops
    # once it passes the budget, so a huge horizon is refused at once.
    entries = 0
    for u in range(horizon + 1):
        entries += (2 * u + 1) * branching**u
        if entries > GEN_BUDGET:
            raise GameSpecError(
                f"horizon {horizon}, branching {branching} needs more than {GEN_BUDGET} "
                f"payoff entries per player"
            )
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
        for parent in level_ids:
            weights = [0.1 + 0.9 * rng.random() for _ in range(branching)]
            total = left_sum(weights)
            for w in weights:
                nid = f"{t}:{len(next_ids)}"
                nodes.append({"id": nid, "time": t, "parent": parent, "prob": w / total})
                next_ids.append(nid)
        level_ids = next_ids
    tree = build_tree({"horizon": horizon, "nodes": nodes})

    # Payoffs are drawn in field order, one rng.random() per node of each
    # (s, t) block, and cut into rows; a finite range keeps each draw finite.
    level_sizes = list(map(len, tree.levels))
    ends = list(accumulate(map(level_sizes.__getitem__, tree.stop_levels)))
    cuts = list(map(slice, [0, *ends[:-1]], ends))
    rand = rng.random
    rows = {}
    for player in (1,) if zero_sum else (1, 2):
        draws = [lo + (hi - lo) * rand() for _ in range(ends[-1])]
        rows[player] = CheckedRows(map(tuple, map(draws.__getitem__, cuts)), max(map(abs, draws)))
    return GameDocument(tree=tree, rows=rows, name=name, seed=seed)


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

    Every node needs a value; numbers read as floats.  The values are read
    in canonical order, then their types checked, in two C-level passes; an
    object that fails either is walked by ``_per_node_fault``.
    """
    data = _object(data, what)
    try:
        values = tuple(map(data.__getitem__, tree.by_id))
    except KeyError:
        values = None
    if values is None or len(data) != tree.n_nodes or not set(map(type, values)) <= _KINDS[kind]:
        _per_node_fault(tree, data, what, kind)
    if kind == "boolean":
        return values
    try:
        return tuple(map(float, values))
    except OverflowError as exc:
        raise GameSpecError(f"{what} holds an integer too large for a float") from exc


def _per_node_fault(tree: EventTree, data: Mapping, what: str, kind: str) -> None:
    """Raise the first fault of a {node id: value} object: in the object's
    order, an unknown node or a value not of the kind, else the first node
    in canonical order that has no value."""
    kinds = _KINDS[kind]
    for nid, val in data.items():
        if nid not in tree.by_id:
            raise GameSpecError(f"unknown node {nid!r} in profile")
        if type(val) not in kinds:
            raise GameSpecError(f"{what} at node {nid!r} is not a {kind}")
    missing = next(nid for nid in tree.by_id if nid not in data)
    raise GameSpecError(f"{what} has no value for node {missing!r}")


#: The JSON text of a stop mark, by the mark.
_MARK = {False: "false", True: "true"}


def _node_templates(tree: EventTree) -> tuple[str, str]:
    """The ``str.format`` templates of a profile's per-node objects, as
    ``json.dumps(..., indent=2)`` lays them out: a strategy's initial rule
    (depth 2) and an adjustment rule (depth 3), with the ``_id_slots`` of the
    node ids in canonical order."""
    keys = _id_slots(tree.by_id)
    return tuple(
        f"{{{{\n{pad}  " + f",\n{pad}  ".join(keys) + f"\n{pad}}}}}" for pad in ("    ", "      ")
    )


def _marks_text(template: str, marks: Sequence) -> str:
    """A per-node template filled with the JSON text of each stop mark's
    truth value: ``_MARK`` of the mark, which is equal to that of
    ``bool(mark)`` where it is found."""
    try:
        return template.format(*map(_MARK.__getitem__, marks))
    except (KeyError, TypeError):
        return template.format(*map(_MARK.__getitem__, map(bool, marks)))


def _strategy_to_json(templates: tuple[str, str], strategy: Strategy) -> str:
    """A strategy's object, as ``json.dumps(..., indent=2)`` writes it in a
    profile, from the tree's ``_node_templates``."""
    initial, adjust = templates
    if strategy.mixed:
        head = f'"stop_prob": {initial.format(*_json_numbers(strategy.initial.probs))}'
    else:
        head = f'"stops": {_marks_text(initial, strategy.initial.marks)}'
    rules = ",\n".join(
        f'      "{t}": {_marks_text(adjust, rule.marks)}'
        for t, rule in enumerate(strategy.adjust.rules)
    )
    rules = f"{{\n{rules}\n    }}" if rules else "{}"
    return f'{{\n    {head},\n    "adjust": {rules}\n  }}'


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
    templates = _node_templates(tree)
    return (
        f'{{\n  "mode": "{mode}",\n'
        f'  "player1": {_strategy_to_json(templates, rho)},\n'
        f'  "player2": {_strategy_to_json(templates, tau)}\n}}\n'
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
