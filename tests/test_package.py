"""The package's public surface."""

from __future__ import annotations

import importlib
import inspect
import io
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import stopgames
from stopgames import gamefile
from stopgames.cli import run

from conftest import RewardRows


PUBLIC_NAMES = [
    "AdjustmentFamily",
    "EnumerationCapError",
    "EnumerationResult",
    "EquilibriumReport",
    "EventTree",
    "GameDocument",
    "GameSpecError",
    "HittingResult",
    "Node",
    "PayoffField",
    "RandomizedDynkinEquilibrium",
    "RandomizedStoppingTime",
    "ReactionValue",
    "SeqEquilibrium",
    "SeqProcessBundle",
    "SimEquilibrium",
    "SimProcessBundle",
    "SnellResult",
    "SolverDefectError",
    "StoppingTime",
    "Strategy",
    "ZeroSumSaddle",
    "best_response",
    "build_tree",
    "check_equilibrium",
    "constant_stopping_time",
    "count_stopping_times",
    "count_strategies",
    "dynkin_hitting_saddle",
    "dynkin_value",
    "enumerate_oracle",
    "enumerate_stopping_times",
    "enumerate_strategies",
    "generate_random_game",
    "hitting_time",
    "payoff_mixed_sim",
    "payoff_pure",
    "randomized_dynkin_equilibrium",
    "reaction_value",
    "seq_equilibrium",
    "seq_processes",
    "sim_equilibrium",
    "sim_processes",
    "snell",
    "stage_nash_2x2",
    "zero_sum_saddle",
]


def test_public_surface_is_pinned():
    # Adding or removing a public name is a deliberate change to this list.
    assert sorted(stopgames.__all__) == PUBLIC_NAMES


def test_all_names_resolve():
    missing = [name for name in stopgames.__all__ if not hasattr(stopgames, name)]
    assert missing == []
    assert len(set(stopgames.__all__)) == len(stopgames.__all__)


def test_child_sums_live_only_in_the_tree_module():
    # Every backward induction takes E_t from EventTree.expect_next, whose
    # summation order fixes the report bytes; no other module reads the
    # edge probabilities to sum children by hand.
    package = Path(stopgames.__file__).parent
    readers = sorted(
        path.name
        for path in package.glob("*.py")
        if "child_probs" in path.read_text(encoding="utf-8")
    )
    assert readers == ["tree.py"]


def test_one_module_runs_the_batched_sweep():
    # Reaction and lone-stopper tables, and the one-problem primitives, all
    # run one backward sweep in strategies.py; no other module batches
    # stopping problems through the tree's gather.
    package = Path(stopgames.__file__).parent
    callers = sorted(
        path.name
        for path in package.glob("*.py")
        if "expect_batch(" in path.read_text(encoding="utf-8")
    )
    assert callers == ["strategies.py", "tree.py"]


def test_processes_are_node_indexed_tuples():
    doc = gamefile.generate_random_game(3, 2, seed=5)
    tree, field = doc.tree, doc.payoff_field()
    zs_field = gamefile.generate_random_game(3, 2, seed=5, zero_sum=True).zero_sum_field()
    sim = stopgames.sim_equilibrium(field)
    seq = stopgames.seq_equilibrium(field)
    zs = stopgames.zero_sum_saddle(zs_field)
    reaction = stopgames.reaction_value(field, 1, "first", "strict", "max")
    processes = {
        "reaction.process": reaction.process,
        "dynkin_value": stopgames.dynkin_value(zs_field.tree, zs.f, zs.g),
        "sim.reduced.w1": sim.reduced.w1,
        "sim.reduced.w2": sim.reduced.w2,
        "seq.w1": seq.w1,
        "seq.w2": seq.w2,
        "zs.f": zs.f,
        "zs.g": zs.g,
        "zs.v": zs.v,
    }
    for bundle, names in (
        (sim.bundle, ("x1", "x2", "y1", "y2", "z1", "z2")),
        (seq.bundle, ("f1", "g1", "f2", "g2", "h1", "h2", "v1", "v2", "g1_uncapped")),
    ):
        for name in names:
            processes[name] = getattr(bundle, name)
    shapes = {name: (type(x), len(x)) for name, x in processes.items()}
    assert shapes == {name: (tuple, tree.n_nodes) for name in processes}
    for t in range(tree.horizon + 1):
        rows = RewardRows(tree, lambda u, i: field.value(1, u, t, i))
        res = stopgames.snell(tree, rows, t, "strict", "max", field.tol)
        assert type(res.value) is tuple and len(res.value) == len(tree.levels[t])


def test_every_traced_boundary_exists():
    # The benchmark's tracer wraps these functions by name; a renamed or
    # deleted one would otherwise first show up as an absent boundary in the
    # tracer's self-check.
    # Compiled from its source, so nothing is written under bench/.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    tracer = types.ModuleType("_bench_tracer")
    sys.modules[tracer.__name__] = tracer  # dataclasses resolve the module by name
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    finally:
        del sys.modules[tracer.__name__]
    missing = []
    for boundary in tracer.BOUNDARIES:
        target = importlib.import_module(boundary.module)
        for part in boundary.attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{boundary.module}.{boundary.attr}")
    assert tracer.BOUNDARIES
    assert missing == []


def test_no_function_takes_both_a_tree_and_a_field():
    # A payoff field carries its tree as ``field.tree``; a separate tree
    # argument could disagree with it.  Every function and method defined
    # in the package's modules is checked (not ``__main__``, which runs the
    # CLI on import).
    checked, both = set(), []
    for info in pkgutil.iter_modules(stopgames.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"stopgames.{info.name}")
        members = list(vars(module).items())
        for name, obj in list(members):
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members += [(f"{name}.{key}", value) for key, value in vars(obj).items()]
        for name, obj in members:
            fn = getattr(obj, "__func__", obj)  # a classmethod's function
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            checked.add(f"{info.name}.{name}")
            if {"tree", "field"} <= inspect.signature(fn).parameters.keys():
                both.append(f"{info.name}.{name}")
    assert {"snell.reaction_value", "verify.check_equilibrium", "cli._cmd_verify"} <= checked
    assert {"strategies.PayoffField.zero_sum", "strategies.PayoffField.__init__"} <= checked
    assert both == []


#: Every record type: a ``typing.NamedTuple``.
RECORDS = [
    "dynkin.ZeroSumSaddle",
    "gamefile.GameDocument",
    "sequential.SeqDiagnostics",
    "sequential.SeqEquilibrium",
    "sequential.SeqProcessBundle",
    "simultaneous.RandomizedDynkinEquilibrium",
    "simultaneous.SimEquilibrium",
    "simultaneous.SimProcessBundle",
    "simultaneous.StageRecord",
    "simultaneous.StageSolution",
    "snell.ReactionValue",
    "snell.SnellResult",
    "strategies.AdjustmentFamily",
    "strategies.RandomizedStoppingTime",
    "strategies.Strategy",
    "tree.HittingResult",
    "tree.Node",
    "tree.StoppingTime",
    "verify.EnumerationResult",
    "verify.EquilibriumReport",
]


@pytest.mark.parametrize("path", RECORDS)
def test_records_are_immutable_and_equal_by_fields(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"stopgames.{module}"), name)
    assert issubclass(cls, tuple) and cls._fields
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    twin = cls._make(range(len(cls._fields)))
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert cls._make(range(1, len(cls._fields) + 1)) != record


def _fresh(code: str, *args: str) -> list[str]:
    """The output lines of `code` run in a fresh interpreter that reads no
    ``PYTHON*`` variable (``-E``) and imports the package from this source
    tree, given as ``sys.argv[1]``, followed by `args`."""
    src_dir = str(Path(stopgames.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-E", "-c", code, src_dir, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_CENSUS = """
import io, sys
sys.path.insert(0, sys.argv[1])
from stopgames.cli import run
code = run(sys.argv[2:], io.StringIO())
loaded = sorted(name[10:] for name in sys.modules if name.startswith("stopgames."))
print(code)
print(" ".join(loaded))
print("dataclasses" in sys.modules)
"""

#: The package modules that each command leaves loaded in a fresh process.
COMMAND_MODULES = {
    "help": "cli errors",
    "gen": "cli errors gamefile strategies tree",
    "solve-sim": "cli errors gamefile simultaneous snell strategies tree verify",
    "solve-seq": "cli dynkin errors gamefile sequential snell strategies tree verify",
    "solve-zs": "cli dynkin errors gamefile snell strategies tree verify",
    "verify": "cli errors gamefile snell strategies tree verify",
    "enumerate": "cli errors gamefile snell strategies tree verify",
}


@pytest.fixture(scope="module")
def small_game(tmp_path_factory):
    """A horizon-1 game file, its solved sim profile and a zero-sum game file."""
    base = tmp_path_factory.mktemp("census")
    game, profile, zs = str(base / "g.json"), str(base / "p.json"), str(base / "zs.json")
    gen = ["gen", "--horizon", "1", "--branching", "2", "--seed", "1"]
    assert run([*gen, "-o", game], io.StringIO()) == 0
    assert run([*gen, "--zero-sum", "-o", zs], io.StringIO()) == 0
    assert run(["solve-sim", game, "--profile-out", profile], io.StringIO()) == 0
    return game, profile, zs


@pytest.mark.parametrize("command", list(COMMAND_MODULES))
def test_a_fresh_command_loads_only_its_modules(command, small_game, tmp_path):
    game, profile, zs = small_game
    argv = {
        "help": ["--help"],
        "gen": ["gen", "--horizon", "1", "--branching", "2", "--seed", "1", "-o",
                str(tmp_path / "out.json")],
        "verify": ["verify", game, "--profile", profile, "--mode", "sim"],
        "solve-zs": ["solve-zs", zs],
        "enumerate": ["enumerate", game, "--mode", "sim"],
    }.get(command, [command, game])
    code, loaded, dataclasses_loaded = _fresh(_CENSUS, *argv)
    assert (code, loaded) == ("0", COMMAND_MODULES[command])
    # Every record is a named tuple, so no command needs dataclasses.
    assert dataclasses_loaded == "False"


_SURFACE = """
import sys
sys.path.insert(0, sys.argv[1])
import stopgames
print(sorted(name for name in sys.modules if name.startswith("stopgames.")))
if sys.argv[2] == "import":
    import stopgames.snell
else:
    import io
    from stopgames.cli import run
    run(["solve-sim", sys.argv[2]], io.StringIO())
print(stopgames.snell is sys.modules["stopgames.snell"].snell)
print([name for name in stopgames.__all__ if not hasattr(stopgames, name)])
print(stopgames.snell is sys.modules["stopgames.snell"].snell)
print("__all__" in dir(stopgames) and set(stopgames.__all__) <= set(dir(stopgames)))
try:
    stopgames.no_such_name
except AttributeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("first", ["import", "solve-sim"])
def test_the_package_resolves_its_names_on_first_use(first, small_game):
    # The submodule ``snell`` shares its name with a public function; once
    # it loads, the package still binds the function.
    arg = "import" if first == "import" else small_game[0]
    assert _fresh(_SURFACE, arg) == [
        "[]",
        "True",
        "[]",
        "True",
        "True",
        "module 'stopgames' has no attribute 'no_such_name'",
    ]
