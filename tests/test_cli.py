"""CLI subcommands: reports, exit codes, determinism, error handling."""

from __future__ import annotations

import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

import stopgames as sg
from stopgames import gamefile
from stopgames.cli import _print_strategy, _stop_set, build_parser, fmt, run

from conftest import canonical_stopping_time, leaf_paths


def _run(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


@pytest.fixture()
def matching_file(tmp_path):
    doc = gamefile.load_bundled("matching_times")
    path = tmp_path / "matching.json"
    gamefile.save(doc, str(path))
    return str(path)


@pytest.fixture()
def zs_file(tmp_path):
    doc = gamefile.generate_random_game(2, 2, seed=17, zero_sum=True, name="zs-demo")
    path = tmp_path / "zs.json"
    gamefile.save(doc, str(path))
    return str(path)


#: Marks a profile key to delete in the malformed-profile probes.
_DELETE = "<delete>"


def _report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"missing report line {key!r}:\n{text}")


def _negate_first_nodes_only(payoffs):
    """Write section 2 as the negation of the first node of each block of
    section 1, and of no other node."""
    payoffs["2"] = {
        st: {nid: -val for nid, val in list(block.items())[:1]}
        for st, block in payoffs["1"].items()
    }


class TestSolveCommands:
    def test_solve_sim_matching(self, matching_file):
        code, text = _run(["solve-sim", matching_file])
        assert code == 0
        assert _report_value(text, "value[1]") == "0.5"
        assert _report_value(text, "value[2]") == "-0.5"
        assert _report_value(text, "gap[1]") == "0"
        assert _report_value(text, "gap[2]") == "0"
        assert "certified: PASS" in text
        assert "0:0 t=0 p=0.5" in text

    def test_solve_seq_matching(self, matching_file):
        code, text = _run(["solve-seq", matching_file])
        assert code == 0
        assert _report_value(text, "value[1]") == "0"
        assert _report_value(text, "value[2]") == "0"
        assert _report_value(text, "diagnostics") == "clean"

    def test_solve_zs(self, zs_file):
        code, text = _run(["solve-zs", zs_file])
        assert code == 0
        assert "saddle value:" in text
        v1 = float(_report_value(text, "value[1]"))
        sv = float(_report_value(text, "saddle value"))
        assert abs(v1 - sv) <= 1e-9

    def test_solve_zs_with_sigma(self, zs_file):
        code, text = _run(["solve-zs", zs_file, "--sigma", "1"])
        assert code == 0
        assert _report_value(text, "sigma") == "1"

    def test_solve_zs_rejects_bad_sigma(self, zs_file):
        code, _ = _run(["solve-zs", zs_file, "--sigma", "9"])
        assert code == 1

    def test_missing_file(self):
        code, _ = _run(["solve-sim", "/nonexistent/game.json"])
        assert code == 1

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _ = _run(["solve-sim", str(path)])
        assert code == 1

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("payoffs", "1", "0,0", "0:0"), "x"),
            (("payoffs", "1", "0,0", "0:0"), None),
            (("payoffs", "2", "1,1", "1:0"), True),
            (("payoffs", "2", "0,1", "1:0"), "0.5"),
            (("horizon",), "abc"),
            (("seed",), "abc"),
            (("nodes", 1, "id"), _DELETE),
            (("nodes", 1, "prob"), _DELETE),
            (("nodes", 1), 7),
            (("nodes",), {"0:0": {"id": "0:0", "time": 0}}),
            (("nodes", 1, "time"), 1.7),
            (("nodes", 1, "time"), 1.0),
            (("horizon",), 1.0),
        ],
        ids=repr,
    )
    def test_malformed_game_value_is_one_line_error(
        self, matching_file, tmp_path, capsys, keys, value
    ):
        # Replace the value at `keys` of a valid game file, or delete its key.
        with open(matching_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        target = obj
        for key in keys[:-1]:
            target = target[key]
        if value == _DELETE:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        code, text = _run(["solve-sim", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: p["1"]["1,1"].update({"zz": 5.0}),
                "payoff for unknown or off-level node zz at (s,t)=(1, 1)",
            ),
            (
                _negate_first_nodes_only,
                "payoff section 2 is not the negation of section 1 at (s,t)=(0, 1), node 1:1",
            ),
        ],
        ids=["unknown-node", "partial-section-2"],
    )
    def test_zero_sum_blocks_hold_exactly_their_level(self, tmp_path, capsys, edit, message):
        path = tmp_path / "zs.json"
        gen = ["gen", "--horizon", "2", "--branching", "2", "--seed", "3", "--zero-sum"]
        assert _run(gen + ["-o", str(path)])[0] == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj["payoffs"])
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        code, text = _run(["solve-zs", str(path)])
        assert (code, text, capsys.readouterr().err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command, message",
        [
            (
                "solve-zs",
                "payoff section 2 is not the negation of section 1 at (s,t)=(0, 1), node 1:1",
            ),
            ("solve-sim", "payoff missing for node 1:1 at (s,t)=(0, 1)"),
        ],
    )
    def test_a_short_section_2_is_named_by_each_solver(self, tmp_path, capsys, command, message):
        # Section 2 is the negation of section 1 but for one node it lacks:
        # a zero-sum read names the broken negation, a general read the node.
        path = tmp_path / "zs.json"
        gen = ["gen", "--horizon", "2", "--branching", "2", "--seed", "3", "--zero-sum"]
        assert _run(gen + ["-o", str(path)])[0] == 0
        obj = json.loads(path.read_text(encoding="utf-8"))
        payoffs = obj["payoffs"]
        payoffs["2"] = {
            st: {nid: -val for nid, val in block.items()} for st, block in payoffs["1"].items()
        }
        del payoffs["2"]["0,1"]["1:1"]
        path.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        code, text = _run([command, str(path)])
        assert (code, text, capsys.readouterr().err) == (1, "", f"error: {message}\n")

    def test_input_validation_error(self, tmp_path):
        doc = {
            "format": "stopping-game-v1",
            "horizon": 1,
            "nodes": [
                {"id": "root", "time": 0},
                {"id": "n1", "time": 1, "parent": "root", "prob": 0.6},
                {"id": "n2", "time": 1, "parent": "root", "prob": 0.6},
            ],
            "payoffs": {"1": {}, "2": {}},
        }
        path = tmp_path / "badprob.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _ = _run(["solve-sim", str(path)])
        assert code == 1


class TestVerifyCommand:
    def test_verify_solved_profile(self, matching_file, tmp_path):
        profile = tmp_path / "profile.json"
        code, _ = _run(["solve-sim", matching_file, "--profile-out", str(profile)])
        assert code == 0
        code, text = _run(
            ["verify", matching_file, "--profile", str(profile), "--mode", "sim"]
        )
        assert code == 0
        assert "certified: PASS" in text

    def test_sigma_outside_zs_is_refused_before_the_game_is_read(
        self, matching_file, tmp_path, capsys
    ):
        profile = tmp_path / "profile.json"
        assert _run(["solve-sim", matching_file, "--profile-out", str(profile)])[0] == 0
        missing = str(tmp_path / "missing.json")
        for game in (matching_file, missing):
            capsys.readouterr()
            argv = ["verify", game, "--profile", str(profile), "--mode", "sim", "--sigma", "1"]
            assert _run(argv) == (1, "")
            assert capsys.readouterr().err == "error: --sigma applies only to --mode zs\n"

    def test_verify_rejects_bad_profile(self, matching_file, tmp_path):
        profile = tmp_path / "bad.json"
        doc = gamefile.load_bundled("matching_times")
        tree = doc.tree
        # Both players stop surely at the root: player 2 should deviate.
        obj = {
            "mode": "sim",
            "player1": {
                "stop_prob": {"0:0": 1.0, "1:0": 1.0},
                "adjust": {
                    "0": {"0:0": False, "1:0": True},
                    "1": {"0:0": False, "1:0": True},
                },
            },
            "player2": {
                "stop_prob": {"0:0": 1.0, "1:0": 1.0},
                "adjust": {
                    "0": {"0:0": False, "1:0": True},
                    "1": {"0:0": False, "1:0": True},
                },
            },
        }
        profile.write_text(json.dumps(obj), encoding="utf-8")
        code, text = _run(
            ["verify", matching_file, "--profile", str(profile), "--mode", "sim"]
        )
        assert code == 2
        assert "certified: FAIL" in text
        assert _report_value(text, "gap[2]") == "1"

    @pytest.mark.parametrize(
        "mode, keys, value",
        [
            ("sim", (), [1, 2]),
            ("sim", ("player1",), [1, 2]),
            ("seq", ("player2",), "x"),
            ("sim", ("player1", "stop_prob"), _DELETE),
            ("seq", ("player1", "stops"), _DELETE),
            ("seq", ("player2", "adjust"), _DELETE),
            ("sim", ("player2", "stop_prob", "0:0"), "x"),
            ("sim", ("player1", "stop_prob", "1:0"), None),
            ("sim", ("player1", "stop_prob"), [0.5, 1.0]),
            ("seq", ("player1", "stops"), 7),
            ("sim", ("player1", "adjust"), [1, 2]),
            ("seq", ("player2", "adjust", "0"), True),
            ("seq", ("player1", "stops", "0:0"), "false"),
            ("seq", ("player2", "adjust", "1", "1:0"), "false"),
            ("sim", ("player1", "stop_prob", "0:0"), True),
            ("sim", ("player2", "stop_prob", "1:0"), "1.0"),
            ("sim", ("player1", "stop_prob", "0:0"), _DELETE),
            ("seq", ("player2", "adjust", "1", "0:0"), _DELETE),
        ],
        ids=repr,
    )
    def test_verify_malformed_profile_is_one_line_error(
        self, matching_file, tmp_path, capsys, mode, keys, value
    ):
        # Replace the value at `keys` of a solved profile, or delete its key.
        profile = tmp_path / "profile.json"
        code, _ = _run([f"solve-{mode}", matching_file, "--profile-out", str(profile)])
        assert code == 0
        obj = json.loads(profile.read_text(encoding="utf-8"))
        if not keys:
            obj = value
        else:
            target = obj
            for key in keys[:-1]:
                target = target[key]
            if value == _DELETE:
                del target[keys[-1]]
            else:
                target[keys[-1]] = value
        profile.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        code, text = _run(
            ["verify", matching_file, "--profile", str(profile), "--mode", mode]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_verify_duplicate_profile_key_names_the_profile(
        self, matching_file, tmp_path, capsys
    ):
        profile = tmp_path / "profile.json"
        code, _ = _run(["solve-seq", matching_file, "--profile-out", str(profile)])
        assert code == 0
        text = profile.read_text(encoding="utf-8")
        profile.write_text(text.replace('"mode": "seq"', '"mode": "seq", "mode": "seq"'))
        capsys.readouterr()
        code, _ = _run(["verify", matching_file, "--profile", str(profile), "--mode", "seq"])
        assert code == 1
        assert capsys.readouterr().err == "error: duplicate key 'mode' in profile\n"

    def test_verify_seq_profile(self, matching_file, tmp_path):
        profile = tmp_path / "seq.json"
        code, _ = _run(["solve-seq", matching_file, "--profile-out", str(profile)])
        assert code == 0
        code, text = _run(
            ["verify", matching_file, "--profile", str(profile), "--mode", "seq"]
        )
        assert code == 0

    def test_verify_zs_profile(self, zs_file, tmp_path):
        profile = tmp_path / "zs_profile.json"
        code, _ = _run(["solve-zs", zs_file, "--profile-out", str(profile)])
        assert code == 0
        code, text = _run(
            ["verify", zs_file, "--profile", str(profile), "--mode", "zs"]
        )
        assert code == 0


    def test_verify_rejects_an_adjustment_key_past_the_horizon(self, tmp_path, capsys):
        game = tmp_path / "h0.json"
        gamefile.save(gamefile.generate_random_game(0, 1, seed=1), str(game))
        profile = tmp_path / "profile.json"
        code, _ = _run(["solve-seq", str(game), "--profile-out", str(profile)])
        assert code == 0
        obj = json.loads(profile.read_text(encoding="utf-8"))
        obj["player1"]["adjust"]["7"] = {"x": 1}
        profile.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        code, text = _run(["verify", str(game), "--profile", str(profile), "--mode", "seq"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: profile adjustment key '7' outside 0..0\n"


class TestNotUtf8:
    """A file that is not UTF-8 text is an input error, not a traceback."""

    @pytest.mark.parametrize(
        "damage",
        [lambda text: b"\xff" + text, lambda text: text.replace(b'"matching', b'"caf\xe9')],
        ids=["leading 0xff", "latin-1 name"],
    )
    def test_game_file(self, matching_file, capsys, damage):
        with open(matching_file, "rb") as fh:
            text = fh.read()
        with open(matching_file, "wb") as fh:
            fh.write(damage(text))
        capsys.readouterr()
        code, text = _run(["solve-sim", matching_file])
        assert (code, text) == (1, "")
        err = capsys.readouterr().err
        assert err == f"error: game file {matching_file} is not UTF-8 text\n"

    def test_profile_file(self, matching_file, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        code, _ = _run(["solve-sim", matching_file, "--profile-out", str(profile)])
        assert code == 0
        profile.write_bytes(b"\xff" + profile.read_bytes())
        capsys.readouterr()
        code, text = _run(["verify", matching_file, "--profile", str(profile), "--mode", "sim"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == f"error: profile {profile} is not UTF-8 text\n"


class TestEpsOption:
    @pytest.mark.parametrize("eps", ["nan", "-1", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["solve-sim", "solve-seq", "solve-zs", "verify"])
    def test_bad_eps_is_an_input_error(self, zs_file, tmp_path, capsys, command, eps):
        # Exit 2 means a failed certificate; a bad tolerance is bad input.
        argv = [command, zs_file, f"--eps={eps}"]
        if command == "verify":
            profile = tmp_path / "zs.json"
            assert _run(["solve-zs", zs_file, "--profile-out", str(profile)])[0] == 0
            argv += ["--profile", str(profile), "--mode", "zs"]
        capsys.readouterr()
        code, text = _run(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("error: --eps ") and err.count("\n") == 1

    @pytest.mark.parametrize("eps", ["0", "-0.0", "1e-12"])
    def test_zero_or_positive_eps_is_accepted(self, zs_file, capsys, eps):
        # Whether the certificate passes at eps = 0 depends on rounding; the
        # tolerance itself must be taken as input, not rejected.
        code, text = _run(["solve-zs", zs_file, f"--eps={eps}"])
        assert code in (0, 2)
        assert capsys.readouterr().err == ""
        assert f"(eps={float(eps):g})" in text


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve-sim", "{game}", "--eps", "abc"],
            ["solve-zs", "{game}", "--sigma", "1.5"],
            ["enumerate", "{game}", "--mode", "sim", "--cap", "1e3"],
            ["gen", "--horizon", "x", "--branching", "1", "--seed", "1", "-o", "{out}"],
            ["verify", "{game}", "--profile", "{out}"],
            ["solve-sim", "{game}", "--bogus"],
            ["solve-sim"],
            ["bogus"],
            [],
        ],
        ids=repr,
    )
    def test_usage_error_is_one_line(self, matching_file, tmp_path, capsys, argv):
        argv = [a.format(game=matching_file, out=tmp_path / "x.json") for a in argv]
        capsys.readouterr()
        code, text = _run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert text == "" and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: stopgames")

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
    def test_help_goes_to_the_callers_stream(self, capsys, argv):
        code, text = _run(argv)
        assert code == 0
        assert text.startswith("usage: stopgames")
        assert capsys.readouterr() == ("", "")


class TestSharedParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_sigma_returns_to_its_default(self, zs_file):
        assert _report_value(_run(["solve-zs", zs_file, "--sigma", "1"])[1], "sigma") == "1"
        assert _report_value(_run(["solve-zs", zs_file])[1], "sigma") == "0"

    def test_eps_returns_to_its_default(self, zs_file, tmp_path):
        profile = tmp_path / "zs_profile.json"
        assert _run(["solve-zs", zs_file, "--profile-out", str(profile)])[0] == 0
        argv = ["verify", zs_file, "--profile", str(profile), "--mode", "zs"]
        assert "certified: PASS (eps=0.001)" in _run(argv + ["--eps", "1e-3"])[1]
        assert "certified: PASS (eps=1e-09)" in _run(argv)[1]

    @pytest.mark.parametrize(
        "bad", [["--sigma", "x"], ["--eps", "1", "--sigma"], ["--bogus", "1"]], ids=repr
    )
    def test_failed_parse_leaves_the_parser_usable(self, zs_file, capsys, bad):
        assert _run(["solve-zs", zs_file, "--eps", "0.5"] + bad)[0] == 1
        code, text = _run(["solve-zs", zs_file])
        assert code == 0
        assert _report_value(text, "sigma") == "0"
        assert "(eps=1e-09)" in text


class TestStopSets:
    def test_each_paths_first_stop(self):
        # Random rules, with marks below earlier stops, against the set read
        # off the canonical form: the first mark on each leaf's path.
        for seed in range(30):
            tree = gamefile.generate_random_game(1 + seed % 4, 1 + seed % 3, seed=seed).tree
            rng = random.Random(seed)
            for _ in range(5):
                marks = [rng.random() < 0.3 for _ in range(tree.n_nodes)]
                for leaf in tree.leaves:
                    marks[leaf] = True
                st = sg.StoppingTime(tuple(marks))
                canonical = canonical_stopping_time(tree, st).marks
                first = {
                    next(idx for idx in path if canonical[idx]) for path in leaf_paths(tree)
                }
                ids = [n.id for n in tree.nodes if n.index in first]
                assert _stop_set(tree, st) == "{" + ", ".join(ids) + "}"


def _reference_strategy_table(tree, label, strategy) -> str:
    """A strategy's report table, printed one line per node."""
    out = io.StringIO()
    if strategy.mixed:
        print(f"{label} initial stop probabilities:", file=out)
        for node in tree.nodes:
            p = strategy.initial.probs[node.index]
            print(f"  {node.id} t={node.time} p={fmt(p)}", file=out)
    else:
        print(f"{label} initial:", file=out)
        marks = strategy.initial.marks
        for node in tree.nodes:
            above, parent = False, node.parent
            while parent is not None:
                above = above or marks[parent]
                parent = tree.nodes[parent].parent
            decision = "stop" if marks[node.index] and not above else "continue"
            print(f"  {node.id} t={node.time} {decision}", file=out)
    print(f"{label} adjustments:", file=out)
    for t, rule in enumerate(strategy.adjust.rules):
        print(f"  after stop at t={t}: stop at {_stop_set(tree, rule)}", file=out)
    return out.getvalue()


class _CountingOut(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestStrategyTable:
    @pytest.mark.parametrize("mode", ["sim", "seq", "zs"])
    def test_one_write_per_strategy(self, mode):
        doc = gamefile.generate_random_game(3, 2, seed=21, zero_sum=mode == "zs")
        if mode == "sim":
            sol = sg.sim_equilibrium(doc.payoff_field())
            profile = (sol.rho, sol.tau)
        elif mode == "seq":
            sol = sg.seq_equilibrium(doc.payoff_field())
            profile = (sol.rho_star, sol.tau_star)
        else:
            saddle = sg.zero_sum_saddle(doc.zero_sum_field())
            profile = (saddle.rho_star, saddle.tau_star)
        for label, strategy in zip(("player 1", "player 2"), profile):
            out = _CountingOut()
            _print_strategy(out, doc.tree, label, strategy)
            assert out.writes == 1
            assert out.getvalue() == _reference_strategy_table(doc.tree, label, strategy)


class TestEnumerateCommand:
    def test_matching_sim_table(self, matching_file):
        code, text = _run(["enumerate", matching_file, "--mode", "sim"])
        assert code == 0
        assert "profiles: 4 (player 1: 2, player 2: 2)" in text
        assert "pure equilibria: 0" in text

    def test_matching_seq_table(self, matching_file):
        code, text = _run(["enumerate", matching_file, "--mode", "seq"])
        assert code == 0
        assert "profiles: 8" in text
        assert "pure equilibria: 0" not in text

    def test_cap_exceeded(self, matching_file):
        code, _ = _run(["enumerate", matching_file, "--mode", "seq", "--cap", "7"])
        assert code == 1


class TestGenCommand:
    def test_gen_writes_valid_file(self, tmp_path):
        out = tmp_path / "gen.json"
        code, text = _run(
            ["gen", "--horizon", "2", "--branching", "2", "--seed", "3", "-o", str(out)]
        )
        assert code == 0
        assert "wrote" in text
        doc = gamefile.load(str(out))
        assert doc.horizon == 2
        assert doc.tree.n_nodes == 7

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["gen", "--horizon", "3", "--branching", "2", "--seed", "7"]
        assert _run(args + ["-o", str(a)])[0] == 0
        assert _run(args + ["-o", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_zero_sum(self, tmp_path):
        out = tmp_path / "zs.json"
        code, _ = _run(
            [
                "gen", "--horizon", "1", "--branching", "2", "--seed", "5",
                "--zero-sum", "-o", str(out),
            ]
        )
        assert code == 0
        doc = gamefile.load(str(out))
        assert set(doc.rows) == {1}

    def test_gen_bad_range(self, tmp_path):
        code, _ = _run(
            [
                "gen", "--horizon", "1", "--branching", "1", "--seed", "1",
                "--range", "nope", "-o", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "range_args, bounds",
        [
            (["--range", "-1,1"], (-1.0, 1.0)),
            (["--range", "-1e9,1e9"], (-1e9, 1e9)),
            (["--range=-1,1"], (-1.0, 1.0)),
            (["--range", "-0.5,-0.25"], (-0.5, -0.25)),
            (["--ran", "-1,1"], (-1.0, 1.0)),
            (["--r", "-1e9,1e9"], (-1e9, 1e9)),
        ],
        ids=repr,
    )
    def test_gen_negative_range(self, tmp_path, capsys, range_args, bounds):
        out = tmp_path / "x.json"
        argv = ["gen", "--horizon", "2", "--branching", "2", "--seed", "1"]
        code, text = _run(argv + range_args + ["-o", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        assert text.startswith(f"wrote {out} ")
        values = [
            v for rows in gamefile.load(str(out)).rows.values() for row in rows for v in row
        ]
        lo, hi = bounds
        assert all(lo <= v <= hi for v in values)
        assert max(values) - min(values) > (hi - lo) / 4
        seeded = tmp_path / "seeded.json"
        argv += [f"--range={lo!r},{hi!r}", "-o", str(seeded)]
        assert _run(argv)[0] == 0
        assert seeded.read_bytes() == out.read_bytes()

    def test_gen_range_as_last_token(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["gen", "--horizon", "1", "--branching", "1", "--seed", "1", "-o", str(out)]
        code, text = _run(argv + ["--range"])
        err = capsys.readouterr().err
        assert code == 1 and text == ""
        assert err == "error: argument --range: expected one argument\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "payoff_range", ["0,inf", "-inf,0", "-1e308,1e308", "-inf,inf"]
    )
    def test_gen_rejects_infinite_range(self, tmp_path, capsys, payoff_range):
        # A non-finite bound or width would write payoffs no reader accepts.
        out = tmp_path / "x.json"
        code, text = _run(
            [
                "gen", "--horizon", "1", "--branching", "2", "--seed", "1",
                f"--range={payoff_range}", "-o", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert text == ""
        assert err.startswith("error: payoff range ") and err.count("\n") == 1
        assert not out.exists()


def _refused_in_one_gib(argv) -> str:
    """The one ``error:`` line of a CLI run in a child process limited to
    1 GiB of address space, which must exit 1 within seconds."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(sg.__file__)))
    python_path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "stopgames", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=python_path),
        preexec_fn=limit,
        timeout=120,
    )
    assert time.monotonic() - start < 10
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


class TestRefusedBeforeAllocating:
    """Inputs that would need gigabytes are refused before anything of
    their size is built."""

    def test_a_game_file_too_short_for_its_payoffs(self, tmp_path):
        # A 20,001-node chain with empty sections: about 1.2 MB of text
        # for (T + 1)**2 = 4 * 10**8 pairs (s, t).
        nodes = [{"id": "0", "time": 0}]
        nodes += [
            {"id": str(t), "time": t, "parent": str(t - 1), "prob": 1.0} for t in range(1, 20001)
        ]
        path = tmp_path / "chain.json"
        path.write_text(
            json.dumps({"horizon": 20000, "nodes": nodes, "payoffs": {"1": {}, "2": {}}})
        )
        error = _refused_in_one_gib(["solve-sim", str(path)])
        assert error.endswith("cannot hold 400040001 payoff entries per section")

    @pytest.mark.parametrize("horizon", ["40", "1000000000"])
    def test_gen_over_its_budget(self, tmp_path, horizon):
        out = tmp_path / "x.json"
        argv = ["gen", "--horizon", horizon, "--branching", "2", "--seed", "1", "-o", str(out)]
        error = _refused_in_one_gib(argv)
        assert error.endswith("needs more than 16777216 payoff entries per player")
        assert not out.exists()


class TestDeterminism:
    def test_reports_byte_identical(self, matching_file, zs_file, tmp_path):
        commands = [
            ["solve-sim", matching_file],
            ["solve-seq", matching_file],
            ["solve-zs", zs_file],
            ["enumerate", matching_file, "--mode", "sim"],
        ]
        for argv in commands:
            _, first = _run(argv)
            _, second = _run(argv)
            assert first == second
