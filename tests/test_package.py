"""The package's public surface."""

from __future__ import annotations

from pathlib import Path

import stopgames
from stopgames import gamefile

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


def test_processes_are_node_indexed_tuples():
    doc = gamefile.generate_random_game(3, 2, seed=5)
    tree, field = doc.tree, doc.payoff_field()
    zs_field = gamefile.generate_random_game(3, 2, seed=5, zero_sum=True).zero_sum_field()
    sim = stopgames.sim_equilibrium(tree, field)
    seq = stopgames.seq_equilibrium(tree, field)
    zs = stopgames.zero_sum_saddle(tree, zs_field)
    reaction = stopgames.reaction_value(tree, field, 1, "first", "strict", "max")
    processes = {
        "reaction.process": reaction.process,
        "dynkin_value": stopgames.dynkin_value(tree, zs.f, zs.g),
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
