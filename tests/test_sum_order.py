"""Report and game-file bytes do not depend on how the interpreter's ``sum``
rounds.

From Python 3.12 on, the builtin ``sum`` of floats compensates its rounding
error (Neumaier's variant of Kahan summation), so it can differ in the last
bit from the left-to-right sum of 3.11.  Here every stopgames module sees
such a ``sum`` in place of the builtin; the bytes of ``gen`` and of the three
solves must not change.
"""

from __future__ import annotations

import importlib
import io
import math
import pkgutil
import sys
from functools import reduce
from operator import add

import stopgames
from stopgames.cli import run


def _neumaier_sum(iterable, start=0):
    """``sum`` as Python 3.12 computes it: exact while the items are ints,
    compensated once a float appears."""
    total = start
    items = iter(iterable)
    for item in items:
        if type(total) is int and type(item) is int:
            total += item
            continue
        total = total + item
        comp = 0.0
        for x in items:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        return total + comp if comp and math.isfinite(comp) else total
    return total


def test_the_patched_sum_rounds_otherwise():
    values = [0.1] * 10
    assert reduce(add, values, 0) == 0.9999999999999999
    assert _neumaier_sum(values) == 1.0
    assert _neumaier_sum([1, 2, 3]) == 6 and type(_neumaier_sum([1, 2])) is int


def _outputs(tmp_path, tag: str) -> list[str]:
    """The game files and reports of gen and the three solves on a few
    branching-3 games."""
    texts = []
    for seed in range(1, 6):
        for kind, extra in (("general", []), ("zs", ["--zero-sum"])):
            path = tmp_path / f"{tag}-{kind}-{seed}.json"
            argv = ["gen", "--horizon", "3", "--branching", "3", "--seed", str(seed)]
            assert run(argv + extra + ["-o", str(path)], io.StringIO()) == 0
            texts.append(path.read_text())
            for command in ("solve-zs",) if extra else ("solve-sim", "solve-seq"):
                out = io.StringIO()
                assert run([command, str(path)], out) == 0
                texts.append(out.getvalue())
    return texts


def test_bytes_do_not_follow_the_interpreters_sum(tmp_path, monkeypatch):
    plain = _outputs(tmp_path, "plain")
    # The package loads its modules on first use: load every one, so that
    # none is loaded after the patch and escapes it.
    for info in pkgutil.iter_modules(stopgames.__path__):
        if info.name != "__main__":
            importlib.import_module(f"stopgames.{info.name}")
    for name, module in list(sys.modules.items()):
        if name == "stopgames" or name.startswith("stopgames."):
            monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
    patched = _outputs(tmp_path, "patched")
    assert len(patched) == len(plain) == 25
    for before, after in zip(plain, patched):
        assert after == before
