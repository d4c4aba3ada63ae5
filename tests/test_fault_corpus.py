"""Every game-file fault message pinned, on a seeded corpus of mutants.

A fixed ``random.Random`` seed draws ``N_INPUTS`` mutants of small ``gen``
games: horizons 0 to 3, branching 1 to 3, general and zero-sum, and zero-sum
with section 2 written out as the negation of section 1.  Some bases have
their node list, blocks and block items shuffled, and one lists section "2"
before "1".  Each mutant takes one to three edits: a value replaced by an
odd one (null, a boolean, a string, a list, NaN, an infinity, 10**400,
-0.0, 2**53 + 1, ...), an item deleted, a bad key added, a node dropped from
or added to a payoff block of either section (off its level, or unknown),
or one value of section 2 flipped.

Each mutant runs through ``solve-sim``, ``solve-zs`` and ``verify --mode
sim`` (``cli.run``, against the base's solved profile), and through
``gamefile.emit(gamefile.parse(text))``.  The records of each chunk of
``CHUNK`` inputs, (command, exit code, stdout, stderr or message), are
hashed with sha256 and compared with the committed table
``fault_corpus.json``.  The table also keeps, compressed, a one-line summary
of each input's records (exit code and first line of stderr, or a digest of
stdout), so a mismatch names the first input that differs and shows what it
gave then and now.

After an intended message change, rewrite the table with

    PYTHONPATH=src python tests/test_fault_corpus.py --write

and name the changed message, and why, in the change log.
"""

from __future__ import annotations

import ast
import base64
import contextlib
import copy
import hashlib
import io
import json
import lzma
import math
import os
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

import stopgames as sg
from stopgames import gamefile
from stopgames.cli import run

TABLE = Path(__file__).with_name("fault_corpus.json")
SEED = 31
N_INPUTS = 3000
CHUNK = 250

#: (name, horizon, branching, seed, kind, shuffled); kind is "general",
#: "zero-sum" (section 1 only), "negated" (section 2 written out as the
#: negation of section 1) or "negated-2-first" (the same, section 2 first).
BASES = (
    ("h0", 0, 2, 1, "general", False),
    ("h1", 1, 2, 2, "general", False),
    ("h2", 2, 1, 3, "general", True),
    ("h3", 3, 2, 4, "general", False),
    ("b3", 1, 3, 5, "general", True),
    ("z1", 1, 2, 6, "zero-sum", False),
    ("z2", 2, 2, 7, "zero-sum", True),
    ("n1", 1, 3, 8, "negated", False),
    ("n2", 2, 2, 9, "negated", True),
    ("n2-21", 2, 2, 10, "negated-2-first", False),
)

ODD_VALUES = (
    None, True, False, "x", "", [], [1.0], {}, math.nan, math.inf, -math.inf,
    10**400, -0.0, 2**53 + 1, 0, 1.5, -3,
)  # fmt: skip

BAD_KEYS = ("zz", "00,1", " 0,1", "0,9", "1,1,1", "3", "", "-1,0", "0:0", "2:1", "payoffs")

#: ``GameSpecError`` templates of ``gamefile.py`` that no input reaches, each
#: with the reason.  Keys are templates as ``_templates`` writes them.
UNREACHED = {
    "duplicate key {} in {}": "mutants are written by json.dumps, which repeats no key",
    "invalid JSON at line {}: {}": "mutants are written by json.dumps as valid JSON",
    "number with too many digits in {}": "the longest odd value, 10**400, is within "
    "the interpreter's digit limit",
    "{} nests too deeply": "mutants nest no deeper than a replaced value adds",
    "{} {} is not UTF-8 text": "inputs are written as UTF-8",
    "game file of {} characters cannot hold {} payoff entries per section": "an edit "
    "keeps the nodes' text, which outweighs five characters per payoff entry",
    "payoff section {} rows do not fit the (s,t) levels": "parse gives rows that fit "
    "the tree; only a document built from rows can hold others",
    "horizon must be >= 0, got {}": "gen is not run on the corpus",
    "branching must be >= 1, got {}": "gen is not run on the corpus",
    "horizon {}, branching {} needs more than {} payoff entries per player": "gen is not "
    "run on the corpus",
    "empty payoff range ({}, {})": "gen is not run on the corpus",
    "payoff range ({}, {}) needs finite bounds and width": "gen is not run on the corpus",
    "{} must be a JSON object": "profile mutants are left out; the profile is a solved one",
    "{} holds an integer too large for a float": "profile mutants are left out",
    "unknown node {} in profile": "a mutant tree that parses keeps the base's node ids, "
    "as its payoff blocks name them",
    "{} at node {} is not a {}": "profile mutants are left out",
    "{} has no value for node {}": "profile mutants are left out",
    "profile section {} missing {}": "profile mutants are left out",
    "profile adjustment key {} outside 0..{}": "profile mutants are left out",
    "profile adjustment missing rule for time {}": "profile mutants are left out",
    "unknown mode {}": "profiles are written only by the solvers' modes",
    "profile mode {} does not match requested {}": "profile mutants are left out",
    "profile missing section {}": "profile mutants are left out",
}


def _game_object(horizon, branching, seed, kind, shuffled, rng) -> dict:
    """The game object of a base, as ``gen`` writes it, then reshaped."""
    doc = gamefile.generate_random_game(
        horizon, branching, seed, zero_sum=kind != "general", name=f"base-{seed}"
    )
    obj = json.loads(gamefile.emit(doc))
    if kind.startswith("negated"):
        section = obj["payoffs"]["1"]
        negation = {st: {nid: -v for nid, v in block.items()} for st, block in section.items()}
        if kind == "negated-2-first":
            obj["payoffs"] = {"2": negation, "1": section}
        else:
            obj["payoffs"]["2"] = negation
    if shuffled:
        rng.shuffle(obj["nodes"])
        for key, section in obj["payoffs"].items():
            blocks = [(st, list(block.items())) for st, block in section.items()]
            rng.shuffle(blocks)
            for _, items in blocks:
                rng.shuffle(items)
            obj["payoffs"][key] = {st: dict(items) for st, items in blocks}
    return obj


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


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _located(obj, paths, rng):
    """A random location of `obj`, drawn from the base's `paths` while one
    still holds, else from the object's own."""
    for _ in range(3):
        path = rng.choice(paths)
        try:
            _at(obj, path)
        except (KeyError, IndexError, TypeError):
            continue
        return path
    return rng.choice(list(_paths(obj)))


def _section(obj, rng, key=None):
    """A random payoff section (section `key` when given), or None."""
    payoffs = obj.get("payoffs") if isinstance(obj, dict) else None
    if not isinstance(payoffs, dict):
        return None
    keys = [k for k, v in payoffs.items() if isinstance(v, dict) and key in (None, k)]
    return payoffs[rng.choice(keys)] if keys else None


def _block(obj, rng, key=None):
    """A random payoff block of a random section (of section `key` when
    given), or None."""
    blocks = [b for b in (_section(obj, rng, key) or {}).values() if isinstance(b, dict)]
    return rng.choice(blocks) if blocks else None


def _odd(rng, extra=()):
    """A fresh copy of a random odd value."""
    return copy.deepcopy(rng.choice(ODD_VALUES + extra))


#: The edits, drawn with these weights.
EDITS = ("replace", "replace", "delete", "add", "bad-key", "drop-node", "add-node", "flip")


def _edit(obj, rng, base):
    """One random edit of `obj` in place: (the object, as a replaced root
    is a new one, and a word for the edit)."""
    kind = rng.choice(EDITS)
    if kind in ("replace", "delete"):
        path = _located(obj, base["paths"], rng)
        if not path:
            return _odd(rng), "replace-root"
        parent = _at(obj, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _odd(rng)
        return obj, f"{kind} {'/'.join(map(str, path))}"
    if kind == "add":
        path = _located(obj, base["objects"], rng)
        target = _at(obj, path)
        if not isinstance(target, dict):
            return obj, "add-nowhere"
        key = rng.choice(BAD_KEYS)
        target[key] = _odd(rng, (0.5,))
        return obj, f"add {'/'.join(map(str, path + (key,)))}"
    if kind == "bad-key":
        section = _section(obj, rng)
        if not section:
            return obj, "bad-key-nowhere"
        key = rng.choice(BAD_KEYS)
        section[key] = copy.deepcopy(rng.choice(list(section.values())))
        return obj, f"bad-key {key}"
    block = _block(obj, rng, "2" if kind == "flip" else None)
    if not block:
        return obj, f"{kind}-nowhere"
    if kind == "drop-node":
        del block[rng.choice(list(block))]
    elif kind == "add-node":
        block[rng.choice(base["node_ids"] + ["zz"])] = 0.5
    else:
        nids = [nid for nid, val in block.items() if type(val) is float]
        if nids:
            nid = rng.choice(nids)
            block[nid] = -block[nid] if rng.random() < 0.5 else block[nid] + 1.0
    return obj, kind


def corpus() -> tuple[list[tuple[str, str, str]], dict[str, str]]:
    """(label, base name, text) of each input, and each base's solved
    simultaneous profile text by base name."""
    rng = random.Random(SEED)
    bases, profiles = [], {}
    for name, horizon, branching, seed, kind, shuffled in BASES:
        obj = _game_object(horizon, branching, seed, kind, shuffled, rng)
        doc = gamefile.parse(json.dumps(obj))
        eq = sg.sim_equilibrium(doc.zero_sum_field() if kind != "general" else doc.payoff_field())
        profiles[name] = gamefile.profile_to_json(doc.tree, "sim", (eq.rho, eq.tau))
        bases.append(
            {
                "name": name,
                "text": json.dumps(obj),
                "paths": list(_paths(obj)),
                "objects": [p for p in _paths(obj) if isinstance(_at(obj, p), dict)],
                "node_ids": [node["id"] for node in obj["nodes"]],
            }
        )
    inputs = []
    for k in range(N_INPUTS):
        base = rng.choice(bases)
        obj = json.loads(base["text"])
        edits = []
        for _ in range(rng.randint(1, 3)):
            obj, word = _edit(obj, rng, base)
            edits.append(word)
        label = f"input {k} ({base['name']}: {'; '.join(edits)})"
        inputs.append((label, base["name"], json.dumps(obj)))
    return inputs, profiles


def _command(argv: list[str]) -> tuple[str, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out)
    return (" ".join(argv), code, out.getvalue(), err.getvalue())


def _round_trip(text: str) -> tuple[str, int, str, str]:
    try:
        return ("emit(parse)", 0, gamefile.emit(gamefile.parse(text)), "")
    except sg.GameSpecError as exc:
        return ("emit(parse)", 1, "", f"error: {exc}\n")


def records(text: str, profile: str) -> list[tuple[str, int, str, str]]:
    """The four records of one input, its commands run on ``game.json`` in
    the working directory, against the `profile` file there."""
    with open("game.json", "w", encoding="utf-8") as fh:
        fh.write(text)
    return [
        _command(["solve-sim", "game.json"]),
        _command(["solve-zs", "game.json"]),
        _command(["verify", "game.json", "--profile", profile, "--mode", "sim"]),
        _round_trip(text),
    ]


def compute(workdir: str) -> list[tuple[str, list]]:
    """(label, records) of every input, run in `workdir`."""
    inputs, profiles = corpus()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in profiles.items():
            with open(f"{name}.profile.json", "w", encoding="utf-8") as fh:
                fh.write(text)
        return [(label, records(text, f"{name}.profile.json")) for label, name, text in inputs]
    finally:
        os.chdir(here)


def _digest(chunk: list[tuple[str, list]]) -> str:
    blob = "\0".join(
        f"{cmd}\0{code}\0{out}\0{err}" for _, recs in chunk for cmd, code, out, err in recs
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _summary(recs: list) -> str:
    """One line for an input's records: per command its exit code and the
    first line of stderr, or a digest of stdout when stderr is empty."""
    return " | ".join(
        f"{code} {err.splitlines()[0] if err else hashlib.sha256(out.encode()).hexdigest()[:12]}"
        for _, code, out, err in recs
    )


def _pack(lines: list[str]) -> str:
    return base64.b64encode(lzma.compress("\n".join(lines).encode())).decode()


def _unpack(text: str) -> list[str]:
    return lzma.decompress(base64.b64decode(text)).decode().split("\n")


def table(results: list[tuple[str, list]]) -> list[dict]:
    """The committed table of `results`: per chunk, its inputs, sha256 and
    packed summaries."""
    chunks = []
    for start in range(0, len(results), CHUNK):
        chunk = results[start : start + CHUNK]
        chunks.append(
            {
                "inputs": f"{start}-{start + len(chunk) - 1}",
                "sha256": _digest(chunk),
                "summaries": _pack([_summary(recs) for _, recs in chunk]),
            }
        )
    return chunks


def _templates(path: str) -> dict[str, re.Pattern]:
    """Each ``GameSpecError`` message template of a source file, the text
    of a string or f-string first argument with ``{}`` for each formatted
    value, to the pattern that a message of it matches."""
    templates = {}
    for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "GameSpecError"
        ):
            continue
        arg = node.args[0]
        if not isinstance(arg, (ast.Constant, ast.JoinedStr)):
            continue  # a message worded elsewhere, passed on
        parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
        pieces = [p.value if isinstance(p, ast.Constant) else None for p in parts]
        template = "".join("{}" if p is None else p for p in pieces)
        pattern = "".join("(.*)" if p is None else re.escape(p) for p in pieces)
        templates[template] = re.compile(pattern, re.DOTALL)
    return templates


def reached_templates(results: list[tuple[str, list]]) -> set[str]:
    """The ``gamefile.py`` templates that some error of `results` is worded
    by: of the templates of every module that a message matches, the one
    with the most literal text."""
    package = Path(sg.__file__).parent
    candidates = [
        (template, pattern, module.name == "gamefile.py")
        for module in sorted(package.glob("*.py"))
        for template, pattern in _templates(str(module)).items()
    ]
    literal = lambda template: len(template.replace("{}", ""))  # noqa: E731
    reached = set()
    messages = {
        err.splitlines()[0][len("error: ") :]
        for _, recs in results
        for _, code, _, err in recs
        if err.startswith("error: ")
    }
    for message in messages:
        matches = [(literal(t), not own, t) for t, p, own in candidates if p.fullmatch(message)]
        if matches:
            # Of equally literal templates, another module's wins: the same
            # words in gamefile.py cannot be told apart from them.
            _, other, template = max(matches)
            if not other:
                reached.add(template)
    return reached


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return compute(str(tmp_path_factory.mktemp("faults")))


def test_corpus_matches_the_table(results):
    committed = json.loads(TABLE.read_text(encoding="utf-8"))
    now = table(results)
    assert [c["inputs"] for c in now] == [c["inputs"] for c in committed]
    for was, chunk in zip(committed, now):
        if was["sha256"] == chunk["sha256"]:
            continue
        start = int(was["inputs"].split("-")[0])
        lines = zip(_unpack(was["summaries"]), _unpack(chunk["summaries"]))
        for k, (before, after) in enumerate(lines):
            if before != after:
                label = results[start + k][0]
                pytest.fail(f"{label} differs:\n  table: {before}\n  now:   {after}")
        pytest.fail(f"inputs {was['inputs']} differ past the first line of each record")


def test_unreached_templates_are_listed(results):
    templates = set(_templates(gamefile.__file__))
    unreached = templates - reached_templates(results)
    for template in sorted(unreached):
        print(f"unreached: {template!r}: {UNREACHED.get(template, '(no reason given)')}")
    missing, reached = sorted(unreached - set(UNREACHED)), sorted(set(UNREACHED) - unreached)
    assert not missing, f"unreached templates without a reason: {missing}"
    assert not reached, f"listed templates that the corpus reaches: {reached}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fault_corpus.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        chunks = table(compute(tmp))
    TABLE.write_text(json.dumps(chunks, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {TABLE.name}: {len(chunks)} chunks of up to {CHUNK} inputs")
