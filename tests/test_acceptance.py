"""Acceptance suite: one test per criterion, printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import time

import pytest

import stopgames as sg
from stopgames import gamefile
from stopgames.cli import run

from conftest import (
    brute_force_dynkin,
    conditional_expectation,
    diagonal,
    stopped_submartingale_ok,
)


def _line(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _game_shapes(n: int):
    return [(i % 5, 1 + i % 3, i) for i in range(n)]


@pytest.fixture(scope="module")
def random_games():
    return [
        gamefile.generate_random_game(h, b, seed=seed)
        for h, b, seed in _game_shapes(1000)
    ]


@pytest.fixture(scope="module")
def seq_solutions(random_games):
    start = time.perf_counter()
    out = []
    for doc in random_games:
        field = doc.payoff_field()
        sol = sg.seq_equilibrium(field)
        report = sg.check_equilibrium(
            field, "seq", (sol.rho_star, sol.tau_star)
        )
        out.append((doc, sol, report))
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def sim_solutions(random_games):
    start = time.perf_counter()
    out = []
    for doc in random_games:
        field = doc.payoff_field()
        sol = sg.sim_equilibrium(field)
        report = sg.check_equilibrium(field, "sim", (sol.rho, sol.tau))
        out.append((doc, sol, report))
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def zs_solutions():
    out = []
    for i in range(500):
        doc = gamefile.generate_random_game(
            i % 5, 1 + i % 3, seed=20_000 + i, zero_sum=True
        )
        field = doc.zero_sum_field()
        saddle = sg.zero_sum_saddle(field)
        report = sg.check_equilibrium(
            field, "zs", (saddle.rho_star, saddle.tau_star)
        )
        out.append((doc, field, saddle, report))
    return out


def test_criterion_1_one_period_counterexample(tmp_path):
    path = tmp_path / "matching.json"
    gamefile.save(gamefile.load_bundled("matching_times"), str(path))
    start = time.perf_counter()

    buf = io.StringIO()
    enum_code = run(["enumerate", str(path), "--mode", "sim"], buf)
    enum_text = buf.getvalue()

    buf = io.StringIO()
    solve_code = run(["solve-sim", str(path)], buf)
    solve_text = buf.getvalue()
    elapsed = time.perf_counter() - start

    def grab(text, key):
        for line in text.splitlines():
            if line.startswith(key + ":"):
                return line.split(":", 1)[1].strip()
        return None

    doc = gamefile.load_bundled("matching_times")
    sol = sg.sim_equilibrium(doc.payoff_field())
    ok = (
        enum_code == 0
        and "profiles: 4 (player 1: 2, player 2: 2)" in enum_text
        and "pure equilibria: 0" in enum_text
        and solve_code == 0
        and grab(solve_text, "value[1]") == "0.5"
        and grab(solve_text, "value[2]") == "-0.5"
        and abs(sol.rho.initial.probs[0] - 0.5) <= 1e-12
        and abs(sol.tau.initial.probs[0] - 0.5) <= 1e-12
        and abs(sol.values[0] - 0.5) <= 1e-12
        and abs(sol.values[1] + 0.5) <= 1e-12
        and elapsed < 1.0
    )
    assert _line(1, "one-period counterexample", ok)


def test_criterion_2_sequential_equilibria(seq_solutions):
    solutions, elapsed = seq_solutions
    gaps_ok = all(max(report.gaps) <= 1e-9 for _, _, report in solutions)
    clamps_ok = all(sol.diagnostics.clean for _, sol, _ in solutions)
    ok = gaps_ok and clamps_ok and len(solutions) == 1000 and elapsed < 60.0
    print(f"  [1000 games solved+certified in {elapsed:.2f}s]")
    assert _line(2, "sequential pure equilibria on 1000 games", ok)


def test_criterion_3_simultaneous_equilibria(sim_solutions):
    solutions, elapsed = sim_solutions
    gaps_ok = all(max(report.gaps) <= 1e-9 for _, _, report in solutions)
    consistent = all(
        abs(sol.values[0] - sol.reduced.w1[0]) <= 1e-9
        and abs(sol.values[1] - sol.reduced.w2[0]) <= 1e-9
        for _, sol, _ in solutions
    )
    ok = gaps_ok and consistent and len(solutions) == 1000 and elapsed < 60.0
    print(f"  [1000 games solved+certified in {elapsed:.2f}s]")
    assert _line(3, "simultaneous mixed equilibria on 1000 games", ok)


def test_criterion_4_zero_sum_saddles(zs_solutions):
    certified = all(report.passed for _, _, _, report in zs_solutions)
    enumerated = 0
    saddle_ok = True
    for doc, field, saddle, _ in zs_solutions:
        tree = doc.tree
        profiles = sg.count_strategies(tree, "a") * sg.count_strategies(tree, "b")
        if profiles > 400:
            continue
        enumerated += 1
        value = sg.payoff_pure(field, "seq", saddle.rho_star, saddle.tau_star)[0]
        for rho in sg.enumerate_strategies(tree, "a"):
            if sg.payoff_pure(field, "seq", rho, saddle.tau_star)[0] > value + 1e-12:
                saddle_ok = False
        for tau in sg.enumerate_strategies(tree, "b"):
            if sg.payoff_pure(field, "seq", saddle.rho_star, tau)[0] < value - 1e-12:
                saddle_ok = False
    ok = certified and saddle_ok and len(zs_solutions) == 500 and enumerated > 0
    print(f"  [{enumerated} instances small enough for exhaustive saddle checks]")
    assert _line(4, "zero-sum saddle points on 500 games", ok)


def test_criterion_5_dynkin_oracle_equivalence():
    shapes = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (1, 2), (1, 3), (2, 2), (2, 3)]
    rng = random.Random(123)
    ok = True
    for k in range(200):
        h, b = shapes[k % len(shapes)]
        tree = gamefile.generate_random_game(h, b, seed=30_000 + k).tree
        assert sg.count_stopping_times(tree) <= 20
        f = [rng.uniform(-1, 1) for _ in range(tree.n_nodes)]
        g = [f[i] + rng.uniform(0, 1) for i in range(tree.n_nodes)]
        v = sg.dynkin_value(tree, f, g)
        maximin, minimax = brute_force_dynkin(tree, f, g)
        if abs(v[0] - maximin) > 1e-12 or abs(v[0] - minimax) > 1e-12:
            ok = False
        for i in range(tree.n_nodes):
            if not (f[i] - 1e-12 <= v[i] <= g[i] + 1e-12):
                ok = False
        for leaf in tree.leaves:
            if v[leaf] != f[leaf]:
                ok = False
    assert _line(5, "median recursion equals exhaustive optimum on 200 games", ok)


def test_criterion_6_structural_certificates(seq_solutions, zs_solutions):
    solutions, _ = seq_solutions
    ok = True
    for doc, sol, _ in solutions:
        tree = doc.tree
        bundle = sol.bundle
        for i in range(tree.n_nodes):
            if bundle.f1[i] > bundle.h1[i] + 1e-12:
                ok = False
            if min(bundle.h2[i], bundle.f2[i]) < bundle.g2[i] - 1e-12:
                ok = False
        if not stopped_submartingale_ok(tree, bundle.v1, sol.p1_settle):
            ok = False
        if not stopped_submartingale_ok(tree, bundle.v2, sol.p2_settle):
            ok = False
        if not sol.diagnostics.settle1_before_floor_hit:
            ok = False
        # Tower property on this instance's own payoff data.
        x = diagonal(tree, doc.payoff_field(), 1)
        T = tree.horizon
        for t in range(T + 1):
            mid = conditional_expectation(tree, x, T, t)
            for s in range(t + 1):
                nested = conditional_expectation(tree, mid, t, s)
                direct = conditional_expectation(tree, x, T, s)
                for idx in tree.levels[s]:
                    if abs(nested[idx] - direct[idx]) > 1e-12:
                        ok = False
    for doc, _, saddle, _ in zs_solutions:
        if not stopped_submartingale_ok(doc.tree, saddle.v, saddle.rho_hit):
            ok = False
    assert _line(6, "structural certificates on every solved instance", ok)


def test_criterion_7_determinism(tmp_path):
    game = tmp_path / "game.json"
    zs_game = tmp_path / "zs.json"
    gamefile.save(gamefile.load_bundled("matching_times"), str(game))
    gamefile.save(
        gamefile.generate_random_game(2, 2, seed=42, zero_sum=True), str(zs_game)
    )
    ok = True
    commands = [
        ["solve-sim", str(game)],
        ["solve-seq", str(game)],
        ["solve-zs", str(zs_game)],
        ["enumerate", str(game), "--mode", "seq"],
    ]
    # The children run from "/", so they get the package's absolute source
    # directory on their import path.
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(sg.__file__)))
    python_path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    # Subprocess runs under different hash seeds: byte-identical reports.
    for argv in commands:
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=python_path)
            proc = subprocess.run(
                [sys.executable, "-m", "stopgames", *argv],
                capture_output=True,
                env=env,
                cwd="/",
            )
            if proc.returncode != 0:
                ok = False
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            ok = False
    # Generation is reproducible from the seed.
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = run(
            ["gen", "--horizon", "3", "--branching", "3", "--seed", "9", "-o", str(target)],
            io.StringIO(),
        )
        if code != 0:
            ok = False
    if a.read_bytes() != b.read_bytes():
        ok = False
    assert _line(7, "byte-identical reports and reproducible generation", ok)
