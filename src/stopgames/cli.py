"""Command-line interface: solve, verify, enumerate, and generate games.

Every solve subcommand certifies its own output through the best-response
oracle before exiting 0.  Reports are deterministic: values are printed with
12 significant digits and strategy tables are sorted by (time, id).

Exit codes: 0 on success, 1 on input errors, 2 on certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from itertools import compress
from operator import eq
from typing import IO

from . import gamefile
from .dynkin import zero_sum_saddle
from .errors import EnumerationCapError, GameSpecError, SolverDefectError
from .sequential import seq_equilibrium
from .simultaneous import sim_equilibrium
from .strategies import Strategy
from .tree import EventTree, StoppingTime, constant_stopping_time
from .verify import DEFAULT_EPS, EquilibriumReport, check_equilibrium, enumerate_oracle


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _stop_set(tree: EventTree, st: StoppingTime) -> str:
    first = tree.first_stops(st.marks)
    stops = compress(tree.nodes, map(eq, first, range(tree.n_nodes)))
    return "{" + ", ".join(node.id for node in stops) + "}"


def _print_strategy(out: IO[str], tree: EventTree, label: str, strategy: Strategy) -> None:
    """Write a strategy's table: its initial rule node by node, then its
    adjustment rules, in one write."""
    if strategy.mixed:
        lines = [f"{label} initial stop probabilities:"]
        lines += [
            f"  {node.id} t={node.time} p={fmt(p)}"
            for node, p in zip(tree.nodes, strategy.initial.probs)
        ]
    else:
        lines = [f"{label} initial:"]
        first = tree.first_stops(strategy.initial.marks)
        lines += [
            f"  {node.id} t={node.time} {'stop' if stop == node.index else 'continue'}"
            for node, stop in zip(tree.nodes, first)
        ]
    lines.append(f"{label} adjustments:")
    lines += [
        f"  after stop at t={t}: stop at {_stop_set(tree, rule)}"
        for t, rule in enumerate(strategy.adjust.rules)
    ]
    lines.append("")
    out.write("\n".join(lines))


def _print_header(out: IO[str], doc: gamefile.GameDocument, mode: str) -> None:
    print(f"game: {doc.name or '-'}", file=out)
    print(f"mode: {mode}", file=out)
    print(f"horizon: {doc.horizon}", file=out)
    print(f"nodes: {doc.tree.n_nodes}", file=out)


def _print_certification(out: IO[str], report: EquilibriumReport) -> None:
    print(f"value[1]: {fmt(report.values[0])}", file=out)
    print(f"value[2]: {fmt(report.values[1])}", file=out)
    print(f"best-response[1]: {fmt(report.br_values[0])}", file=out)
    print(f"best-response[2]: {fmt(report.br_values[1])}", file=out)
    print(f"gap[1]: {fmt(report.gaps[0])}", file=out)
    print(f"gap[2]: {fmt(report.gaps[1])}", file=out)
    status = "PASS" if report.passed else "FAIL"
    print(f"certified: {status} (eps={report.eps:g})", file=out)


def _write_profile(tree: EventTree, mode: str, profile, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gamefile.profile_to_json(tree, mode, profile))


def _cmd_solve_sim(args, out: IO[str]) -> int:
    doc = gamefile.load(args.file)
    field = doc.payoff_field()
    solution = sim_equilibrium(field)
    profile = (solution.rho, solution.tau)
    report = check_equilibrium(field, "sim", profile, eps=args.eps)
    _print_header(out, doc, "sim")
    _print_certification(out, report)
    _print_strategy(out, doc.tree, "player 1", solution.rho)
    _print_strategy(out, doc.tree, "player 2", solution.tau)
    _write_profile(doc.tree, "sim", profile, args.profile_out)
    return 0 if report.passed else 2


def _cmd_solve_seq(args, out: IO[str]) -> int:
    doc = gamefile.load(args.file)
    field = doc.payoff_field()
    solution = seq_equilibrium(field)
    profile = (solution.rho_star, solution.tau_star)
    report = check_equilibrium(field, "seq", profile, eps=args.eps)
    _print_header(out, doc, "seq")
    _print_certification(out, report)
    defects = solution.diagnostics.defects
    print(f"diagnostics: {'clean' if not defects else '; '.join(defects)}", file=out)
    _print_strategy(out, doc.tree, "player 1", solution.rho_star)
    _print_strategy(out, doc.tree, "player 2", solution.tau_star)
    _write_profile(doc.tree, "seq", profile, args.profile_out)
    return 0 if report.passed and not defects else 2


def _cmd_solve_zs(args, out: IO[str]) -> int:
    doc = gamefile.load(args.file)
    field = doc.zero_sum_field()
    sigma = _sigma(doc.tree, args.sigma)
    saddle = zero_sum_saddle(field, sigma)
    profile = (saddle.rho_star, saddle.tau_star)
    report = check_equilibrium(field, "zs", profile, eps=args.eps, not_before=sigma)
    _print_header(out, doc, "zs")
    print(f"sigma: {args.sigma}", file=out)
    print(f"saddle value: {fmt(saddle.value)}", file=out)
    _print_certification(out, report)
    _print_strategy(out, doc.tree, "player 1", saddle.rho_star)
    _print_strategy(out, doc.tree, "player 2", saddle.tau_star)
    _write_profile(doc.tree, "zs", profile, args.profile_out)
    return 0 if report.passed else 2


def _sigma(tree: EventTree, t: int) -> StoppingTime:
    if not 0 <= t <= tree.horizon:
        raise GameSpecError(f"sigma {t} outside 0..{tree.horizon}")
    return constant_stopping_time(tree, t)


def _cmd_verify(args, out: IO[str]) -> int:
    doc = gamefile.load(args.file)
    if args.mode == "zs":
        field = doc.zero_sum_field()
    else:
        field = doc.payoff_field()
    text = gamefile.read_text(args.profile, "profile")
    profile = gamefile.profile_from_json(doc.tree, text, args.mode)
    not_before = _sigma(doc.tree, args.sigma) if args.mode == "zs" else None
    report = check_equilibrium(field, args.mode, profile, eps=args.eps, not_before=not_before)
    _print_header(out, doc, args.mode)
    _print_certification(out, report)
    return 0 if report.passed else 2


def _cmd_enumerate(args, out: IO[str]) -> int:
    doc = gamefile.load(args.file)
    field = doc.payoff_field()
    result = enumerate_oracle(field, args.mode, cap=args.cap)
    _print_header(out, doc, args.mode)
    n1 = len(result.strategies1)
    n2 = len(result.strategies2)
    print(f"profiles: {n1 * n2} (player 1: {n1}, player 2: {n2})", file=out)
    for label, strategies in (("player 1", result.strategies1), ("player 2", result.strategies2)):
        print(f"{label} strategies:", file=out)
        for k, strategy in enumerate(strategies):
            adj = " | ".join(
                f"after t={t} {_stop_set(doc.tree, rule)}"
                for t, rule in enumerate(strategy.adjust.rules)
            )
            print(
                f"  {k}: initial {_stop_set(doc.tree, strategy.initial)} | {adj}",
                file=out,
            )
    print("profile table (i j value[1] value[2] nash):", file=out)
    eq_set = set(result.equilibria)
    for i in range(n1):
        for j in range(n2):
            u1, u2 = result.payoffs[i][j]
            star = "*" if (i, j) in eq_set else "."
            print(f"  {i} {j} {fmt(u1)} {fmt(u2)} {star}", file=out)
    print(f"pure equilibria: {len(result.equilibria)}", file=out)
    return 0


def _cmd_gen(args, out: IO[str]) -> int:
    try:
        lo_str, hi_str = args.range.split(",")
        payoff_range = (float(lo_str), float(hi_str))
    except ValueError as exc:
        raise GameSpecError(f"malformed --range {args.range!r}, expected lo,hi") from exc
    doc = gamefile.generate_random_game(
        horizon=args.horizon,
        branching=args.branching,
        seed=args.seed,
        payoff_range=payoff_range,
        zero_sum=args.zero_sum,
        name=f"random-h{args.horizon}-b{args.branching}-s{args.seed}",
    )
    gamefile.save(doc, args.output)
    print(f"wrote {args.output} ({doc.tree.n_nodes} nodes, horizon {doc.horizon})", file=out)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as a GameSpecError, so
    it prints as one ``error:`` line and exits 1 like any other bad input."""

    def error(self, message: str):
        raise GameSpecError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on the first call and shared by every
    later one in the process; parsing never changes it."""
    parser = _Parser(
        prog="stopgames",
        description="Solve and verify two-player stopping games on event trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solve(name: str, helptext: str):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("file", help="game file (JSON)")
        p.add_argument(
            "--eps", type=float, default=DEFAULT_EPS, help="certification tolerance"
        )
        p.add_argument("--profile-out", help="write the solved profile to this file")
        return p

    add_solve("solve-sim", "mixed equilibrium, simultaneous moves").set_defaults(
        func=_cmd_solve_sim
    )
    add_solve("solve-seq", "pure equilibrium, player 1 moves first").set_defaults(
        func=_cmd_solve_seq
    )
    zs = add_solve("solve-zs", "zero-sum saddle point")
    zs.add_argument("--sigma", type=int, default=0, help="earliest allowed stop time")
    zs.set_defaults(func=_cmd_solve_zs)

    ver = sub.add_parser("verify", help="re-check a serialized profile")
    ver.add_argument("file", help="game file (JSON)")
    ver.add_argument("--profile", required=True, help="profile file (JSON)")
    ver.add_argument("--mode", required=True, choices=("sim", "seq", "zs"))
    ver.add_argument("--eps", type=float, default=DEFAULT_EPS)
    ver.add_argument("--sigma", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    enum = sub.add_parser("enumerate", help="exhaustive profile table")
    enum.add_argument("file", help="game file (JSON)")
    enum.add_argument("--mode", required=True, choices=("sim", "seq"))
    enum.add_argument("--cap", type=int, default=1_000_000)
    enum.set_defaults(func=_cmd_enumerate)

    gen = sub.add_parser("gen", help="generate a random game file")
    gen.add_argument("--horizon", type=int, required=True)
    gen.add_argument("--branching", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--range", default="-1,1", help="payoff range lo,hi")
    gen.add_argument("--zero-sum", action="store_true", help="single payoff section")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def _attached_range(argv: list[str]) -> list[str]:
    """`argv` with ``gen``'s ``--range LO,HI`` written ``--range=LO,HI``.

    A range with a negative low end, such as ``-1,1``, starts with "-", and
    argparse would read it as an option instead of the value.  The option
    may be abbreviated (``--ran``); argparse still resolves the joined
    token.  A token without a comma is left for argparse to judge.
    """
    if not argv or argv[0] != "gen":
        return argv
    attached = [argv[0]]
    for token in argv[1:]:
        option = attached[-1]
        if "," in token and len(option) > 2 and "--range".startswith(option):
            attached[-1] = f"{option}={token}"
        else:
            attached.append(token)
    return attached


def run(argv: list[str], out: IO[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code.

    Reports, and ``--help``, go to `out` (default: standard output).
    """
    out = out if out is not None else sys.stdout
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(_attached_range(argv))
        eps = getattr(args, "eps", 0.0)
        if not 0.0 <= eps < math.inf:
            raise GameSpecError(f"--eps must be finite and non-negative, got {eps:g}")
        return args.func(args, out)
    except (GameSpecError, EnumerationCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverDefectError as exc:
        print(f"solver defect: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help; a usage error raises GameSpecError
        return exc.code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
