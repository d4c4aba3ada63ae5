"""Cross-distribution fuzz: certified solves and exhaustive Nash membership.

Tie-heavy and mixed-scale payoff distributions stress the tolerance and
tie-breaking logic much harder than uniform draws; tiny trees additionally
allow confirming the sequential output against the fully enumerated Nash
set, a code path independent of the best-response oracle.
"""

from __future__ import annotations

import random

import stopgames as sg
from stopgames import gamefile

from conftest import canonical_signature, field_from_function

SHAPES = [(1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (2, 2)]


def _field_variant(tree, k: int):
    rng = random.Random(k)
    variant = k % 3
    if variant == 0:
        return field_from_function(
            tree, lambda i, s, t, n: rng.uniform(-1, 1)
        )
    if variant == 1:
        return field_from_function(
            tree, lambda i, s, t, n: float(rng.randint(-1, 1))
        )
    return field_from_function(
        tree, lambda i, s, t, n: rng.choice([0.0, 0.25, 1.0, -3.0])
    )


def test_solvers_certified_across_distributions():
    for k in range(600):
        h, b = SHAPES[k % len(SHAPES)]
        tree = gamefile.generate_random_game(h, b, seed=90_000 + k).tree
        field = _field_variant(tree, k)

        seq = sg.seq_equilibrium(field)
        assert seq.diagnostics.clean, (k, seq.diagnostics.defects)
        rep = sg.check_equilibrium(field, "seq", (seq.rho_star, seq.tau_star))
        assert rep.passed, (k, rep.gaps)

        sim = sg.sim_equilibrium(field)
        rep = sg.check_equilibrium(field, "sim", (sim.rho, sim.tau))
        assert rep.passed, (k, rep.gaps)


def test_sequential_output_in_enumerated_nash_set():
    confirmed = 0
    for k in range(300):
        h, b = SHAPES[k % len(SHAPES)]
        tree = gamefile.generate_random_game(h, b, seed=95_000 + k).tree
        field = _field_variant(tree, k)
        if sg.count_strategies(tree, "a") * sg.count_strategies(tree, "b") > 250:
            continue
        seq = sg.seq_equilibrium(field)
        enum = sg.enumerate_oracle(field, "seq")
        signatures = {
            (
                canonical_signature(tree, enum.strategies1[i]),
                canonical_signature(tree, enum.strategies2[j]),
            )
            for i, j in enum.equilibria
        }
        ours = (
            canonical_signature(tree, seq.rho_star),
            canonical_signature(tree, seq.tau_star),
        )
        assert ours in signatures, k
        confirmed += 1
    assert confirmed >= 150
