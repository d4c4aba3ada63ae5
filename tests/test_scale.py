"""Payoff scale: solving a game does not depend on the unit its payoffs are
written in.

Every payoff tolerance is a fraction of ``PayoffField.unit``, a power of
two, so multiplying all payoffs by 2**k scales every value by exactly 2**k
and leaves every decision, profile and verdict as it was.
"""

from __future__ import annotations

import io
from math import ldexp

import pytest

import stopgames as sg
from stopgames import gamefile
from stopgames.cli import run

from conftest import canonical_signature

EXPONENTS = (-40, -20, 20, 40)


def _scaled(field: sg.PayoffField, k: int) -> sg.PayoffField:
    scaled = [[ldexp(x, k) for x in row] for row in field._data]
    return sg.PayoffField(field.tree, scaled)


def _solve(tree, field, mode):
    """(values, the profile's canonical signatures, gaps, passed)."""
    if mode == "sim":
        sol = sg.sim_equilibrium(tree, field)
        profile, report = (sol.rho, sol.tau), sol.report
    elif mode == "seq":
        sol = sg.seq_equilibrium(tree, field)
        profile = (sol.rho_star, sol.tau_star)
        report = sg.check_equilibrium(tree, field, "seq", profile)
    else:
        sigma = sg.constant_stopping_time(tree, 0)
        saddle = sg.zero_sum_saddle(tree, field, sigma)
        profile = (saddle.rho_star, saddle.tau_star)
        report = sg.check_equilibrium(tree, field, "zs", profile, not_before=sigma)
    signatures = tuple(canonical_signature(tree, s) for s in profile)
    return report.values, signatures, report.gaps, report.passed


@pytest.mark.parametrize("mode", ["sim", "seq", "zs"])
def test_power_of_two_rescale_is_exact(mode):
    for seed in range(40):
        doc = gamefile.generate_random_game(
            1 + seed % 3, 1 + seed % 2, seed=500 + seed, zero_sum=mode == "zs"
        )
        tree = doc.tree
        field = doc.zero_sum_field() if mode == "zs" else doc.payoff_field()
        values, signatures, gaps, passed = _solve(tree, field, mode)
        for k in EXPONENTS:
            scaled = _scaled(field, k)
            assert scaled.unit == ldexp(field.unit, k)
            got = _solve(tree, scaled, mode)
            assert got[0] == tuple(ldexp(v, k) for v in values)
            assert got[1] == signatures
            assert got[2] == tuple(ldexp(g, k) for g in gaps)
            assert got[3] == passed


@pytest.mark.parametrize("payoff_range", ["-1e9,1e9", "-1e-9,1e-9"])
def test_large_and_small_payoffs_certify(tmp_path, payoff_range):
    # A subset of the scale corpus: gen seeds 9000-9149 with
    # h = 1 + s % 4 and b = 1 + (s // 4) % 3, every fifth seed.
    failures = []
    for seed in range(9000, 9150, 5):
        shape = ["--horizon", str(1 + seed % 4), "--branching", str(1 + (seed // 4) % 3)]
        games = {}
        for kind, extra in (("general", []), ("zero-sum", ["--zero-sum"])):
            path = str(tmp_path / f"{kind}-{seed}.json")
            argv = ["gen", *shape, "--seed", str(seed), f"--range={payoff_range}"]
            assert run([*argv, *extra, "-o", path], io.StringIO()) == 0
            games[kind] = path
        for command, kind in (
            ("solve-sim", "general"),
            ("solve-seq", "general"),
            ("solve-zs", "zero-sum"),
        ):
            out = io.StringIO()
            code = run([command, games[kind]], out)
            # --eps is in payoff units; the report prints it as given.
            if code != 0 or "certified: PASS (eps=1e-09)" not in out.getvalue():
                failures.append((seed, command, code))
    assert failures == []
