"""Command-cycle benchmark of the stopgames CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {deep,chain,sweep} --seed N \\
        --seconds S --trace {0,1}

The benchmark imports the package from ``src/`` and drives the real CLI
path in process, one ``stopgames.cli.run(argv, out)`` call per command, from
one thread in a closed loop.  It repeats passes of the command cycle (see
``workloads.py``) until ``--seconds`` have elapsed, checks every output and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over passes, plus the
import time of ``stopgames.cli`` in fresh interpreters and the process's
peak RSS.  ``--trace 1`` alternates two untraced and two traced passes and
reports per-layer self times and counts from the boundary tracer; its spans
are written to ``bench/_out/`` when the run ends.

A command fails if it exits non-zero, if a solve or verify report lacks
``certified: PASS``, or if the sha256 of its report and output file differs
from the first pass, or at the default seed from ``digests.json``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import KINDS, SOLVE_KINDS, VERIFY_KINDS, Command, cycle, games  # noqa: E402

DEFAULT_SEED = 1
SETUP_CHILDREN = 11
DIGESTS = BENCH_DIR / "digests.json"
TRACED_PASSES = 2
PROBE_INTERVAL = 0.02
PASS_MARK = "certified: PASS"

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import speed\n"
    "with speed.SpeedProbe(0.005) as probe:\n"
    "    start = time.perf_counter()\n"
    "    import stopgames.cli\n"
    "    end = time.perf_counter()\n"
    "print(end - start, probe.scaled(start, end))\n"
)


def import_cli():
    """Import ``stopgames.cli`` from this checkout's ``src/``, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import stopgames.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import stopgames from {SRC}: {exc}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"stopgames was imported from {cli.__file__}, not from {SRC}")
    return cli


# -- one pass ---------------------------------------------------------------


@dataclass
class Pass:
    #: Wall time of each command, and the same scaled to the reference
    #: speed (see ``speed.py``).
    durations: list[float]
    scaled: list[float]
    failed: list[bool]
    digests: list[str]
    report_bytes: int

    @property
    def seconds(self) -> float:
        """Wall time of the pass's commands."""
        return sum(self.durations)


def run_pass(commands: list[Command], call, first_index: int = 0) -> Pass:
    """Run every command once through ``call(index, argv, out)``.

    Outputs are checked after the pass, which is why every game of a
    workload writes files of its own.
    """
    intervals = []
    codes = []
    reports = []
    clock = time.perf_counter
    with speed.SpeedProbe(PROBE_INTERVAL) as probe:
        for i, command in enumerate(commands):
            out = io.StringIO()
            t0 = clock()
            try:
                code = call(first_index + i, list(command.argv), out)
            except Exception:  # a crash fails this command, not the run
                traceback.print_exc()
                code = None
            intervals.append((t0, clock()))
            codes.append(code)
            reports.append(out.getvalue())
    durations = [t1 - t0 for t0, t1 in intervals]
    scaled = [probe.scaled(t0, t1) for t0, t1 in intervals]

    failed = []
    digests = []
    for command, code, report in zip(commands, codes, reports):
        digest = hashlib.sha256(report.encode("utf-8"))
        if command.output is not None:
            digest.update(Path(command.output).read_bytes())
        digests.append(digest.hexdigest())
        certifies = command.kind in SOLVE_KINDS + VERIFY_KINDS
        failed.append(code != 0 or (certifies and PASS_MARK not in report))
    report_bytes = sum(len(r.encode("utf-8")) for r in reports)
    return Pass(durations, scaled, failed, digests, report_bytes)


def kind_digests(commands: list[Command], digests: list[str]) -> dict[str, str]:
    """One sha256 per command kind over the digests of all its commands."""
    out = {}
    for kind in KINDS:
        h = hashlib.sha256()
        for command, digest in zip(commands, digests):
            if command.kind == kind:
                h.update(digest.encode("ascii"))
        out[kind] = h.hexdigest()
    return out


def check_outputs(workload: str, seed: int, commands, passes: list[Pass]) -> dict:
    """Mark digest mismatches as failures; returns the digest record.

    Every pass must reproduce the first pass byte for byte.  At the default
    seed the first pass must also match the recorded digests; a kind that
    does not counts all its commands as failed.
    """
    reference = passes[0].digests
    for p in passes:
        for i, digest in enumerate(p.digests):
            if digest != reference[i]:
                p.failed[i] = True
    kinds = kind_digests(commands, reference)
    record = {
        "workload": hashlib.sha256("".join(kinds.values()).encode("ascii")).hexdigest(),
        "kinds": kinds,
    }
    if seed != DEFAULT_SEED:
        record["recorded"] = "not recorded for this seed"
        return record
    recorded = json.loads(DIGESTS.read_text("utf-8")).get(workload, {})
    wrong = [kind for kind in KINDS if recorded.get(kind) != kinds[kind]]
    record["recorded"] = "mismatch: " + ", ".join(wrong) if wrong else "match"
    for p in passes:
        for i, command in enumerate(commands):
            if command.kind in wrong:
                p.failed[i] = True
    return record


# -- end-to-end run -----------------------------------------------------------


def setup_seconds() -> list[tuple[float, float]]:
    """Import time of ``stopgames.cli``, raw and scaled, in fresh interpreters.

    One unmeasured child first writes the bytecode cache, as any installed
    copy of the package would have it.
    """
    times = []
    for i in range(SETUP_CHILDREN + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-c", IMPORT_TIMER, str(SRC), str(BENCH_DIR)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            raw, scaled = done.stdout.split()
            times.append((float(raw), float(scaled)))
    return times


def pass_metrics(commands: list[Command], durations: list[float]) -> dict[str, float]:
    """Timing metrics of one pass from its per-command seconds."""
    by_kind = Counter()
    for command, seconds in zip(commands, durations):
        by_kind[command.kind] += seconds
    read_entries = sum(c.entries_read for c in commands)
    read_seconds = sum(by_kind[k] for k in SOLVE_KINDS + VERIFY_KINDS)
    return {
        "gen_s": by_kind["gen"] + by_kind["gen-zs"],
        "solve_sim_s": by_kind["solve-sim"],
        "solve_seq_s": by_kind["solve-seq"],
        "solve_zs_s": by_kind["solve-zs"],
        "verify_s": sum(by_kind[k] for k in VERIFY_KINDS),
        "pass_s": sum(durations),
        "entries_per_s": read_entries / read_seconds,
    }


UNITS = {
    "gen_s": "s",
    "solve_sim_s": "s",
    "solve_seq_s": "s",
    "solve_zs_s": "s",
    "verify_s": "s",
    "pass_s": "s",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}


def medians(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def timed_run(cli, commands: list[Command], seconds: float):
    """End-to-end metrics at the reference speed, and the same as measured."""
    setup = setup_seconds()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(commands, lambda i, argv, out: cli.run(argv, out)))
    metrics = medians([pass_metrics(commands, p.scaled) for p in passes])
    measured = medians([pass_metrics(commands, p.durations) for p in passes])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setup)
    measured["setup_s"] = statistics.median(raw for raw, _ in setup)
    samples = {name: len(passes) for name in measured}
    samples.update(peak_rss_mb=1, setup_s=len(setup))
    return passes, metrics, measured, samples


# -- traced run ----------------------------------------------------------------


@dataclass
class TraceResult:
    #: Untraced and traced passes, run alternately starting untraced.
    untraced: list[Pass]
    traced: list[Pass]
    tracer: tracing.Tracer
    #: Per traced pass, per command: calls per span name.
    counts: list[list[Counter]]
    #: Per traced pass: the per-layer metrics.
    layers: list[dict[str, float]]


def traced_run(cli, commands: list[Command]) -> TraceResult:
    """Alternate untraced and traced passes, ``TRACED_PASSES`` of each.

    The tracer is installed only for the traced passes.  The first pass
    also pays one-time costs (such as creating the output files), so the
    tracing overhead is taken against the later untraced passes only.
    """
    untraced = []
    traced = []
    tracer = tracing.Tracer()
    for k in range(TRACED_PASSES):
        untraced.append(run_pass(commands, lambda i, argv, out: cli.run(argv, out)))
        tracer.install()
        try:
            traced.append(run_pass(
                commands,
                lambda i, argv, out: tracer.run_command(i, cli.run, argv, out),
                first_index=k * len(commands),
            ))
        finally:
            tracer.uninstall()
    baseline = statistics.median(sum(p.scaled) for p in untraced[1:])
    counts, layers = layer_metrics(commands, tracer, traced, baseline)
    return TraceResult(untraced, traced, tracer, counts, layers)


#: The solver span of each solve mode, for ``verify.cert_over_solve``.
SOLVERS = {
    "sim": "simultaneous.sim_equilibrium",
    "seq": "sequential.seq_equilibrium",
    "zs": "dynkin.zero_sum_saddle",
}
CERTIFY = "verify.check_equilibrium"


def layer_metrics(commands, tracer, traced: list[Pass], baseline: float):
    """Per traced pass: span counts per command, and the per-layer metrics.

    Command index ``k * len(commands) + i`` is command i of traced pass k.
    """
    own = tracing.self_times(tracer.spans)
    n = len(commands)
    counts = [[Counter() for _ in commands] for _ in traced]
    self_s = [Counter() for _ in traced]
    inclusive = [[Counter() for _ in commands] for _ in traced]
    # Certification the solver itself runs (solve-sim certifies inside
    # sim_equilibrium), to be taken out of that solver's time.
    nested_cert = [[0.0] * n for _ in traced]
    spans = tracer.spans
    for sid, (name, start, end, parent, command) in enumerate(spans):
        k, i = divmod(command, n)
        counts[k][i][name] += 1
        self_s[k][name] += own[sid]
        inclusive[k][i][name] += end - start
        if name == CERTIFY and parent >= 0 and spans[parent][0] in SOLVERS.values():
            nested_cert[k][i] += end - start

    layers = []
    for k, p in enumerate(traced):
        layer = {f"{name}_s": self_s[k][name] for name in tracing.SPAN_NAMES}
        layer["cli.self_s"] = layer.pop(f"{tracing.ROOT}_s")
        for name in tracing.COUNTED_SPANS:
            layer[f"{name}.calls"] = sum(c[name] for c in counts[k])
        pass_commands = range(k * n, (k + 1) * n)
        layer[tracing.GAME_BYTES] = sum(tracer.game_bytes[c] for c in pass_commands)
        layer[tracing.PROFILE_BYTES] = sum(tracer.profile_bytes[c] for c in pass_commands)
        calls = layer["snell.reaction_value.calls"]
        distinct = sum(len(tracer.reaction_keys.get(c, ())) for c in pass_commands)
        layer[tracing.DISTINCT] = distinct / calls if calls else 0.0
        rules = Counter()
        for c in pass_commands:
            rules.update(tracer.stage_rules.get(c, {}))
        for rule in tracing.STAGE_RULES:
            layer[f"{tracing.STAGES}.{rule}"] = rules[rule]
        for mode, solver in SOLVERS.items():
            cert = solve = 0.0
            for i, command in enumerate(commands):
                if command.kind == f"solve-{mode}":
                    cert += inclusive[k][i][CERTIFY]
                    solve += inclusive[k][i][solver] - nested_cert[k][i]
            layer[f"verify.cert_over_solve.{mode}"] = cert / solve if solve else 0.0
        layer["cli.report_bytes"] = p.report_bytes
        layer["trace.overhead_frac"] = sum(p.scaled) / baseline - 1.0
        layer["trace.accounted_frac"] = sum(self_s[k].values()) / p.seconds
        layers.append(layer)
    return counts, layers


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac") or ".cert_over_solve." in name:
        return "ratio"
    return "count"


def write_spans(path: Path, commands: list[Command], spans) -> None:
    """One JSON line per span, after a header line listing the commands."""
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"commands": [c.argv for c in commands]}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- main ----------------------------------------------------------------------


def descriptors(workload_games, commands: list[Command], seed: int) -> dict:
    game_files = [c.output for c in commands if c.kind.startswith("gen")]
    profiles = [c.output for c in commands if c.kind in SOLVE_KINDS]
    return {
        "seed": seed,
        "games": len(workload_games),
        "nodes": sum(g.nodes for g in workload_games),
        "horizon": max(g.horizon for g in workload_games),
        "payoff_entries_per_player": sum(g.entries_per_player for g in workload_games),
        "game_bytes": sum(os.path.getsize(o) for o in game_files),
        "profile_bytes": sum(os.path.getsize(o) for o in profiles),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("deep", "chain", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    detail: dict
    trace: TraceResult | None = None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload in a fresh work directory under ``bench/_work``."""
    cli = import_cli()
    workload_games = games(workload, seed)
    commands = [c for g in workload_games for c in cycle(g)]

    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    home = os.getcwd()
    os.chdir(work)
    try:
        if trace:
            result = traced_run(cli, commands)
            passes = result.untraced + result.traced
        else:
            passes, metrics, measured, samples = timed_run(cli, commands, seconds)
        digests = check_outputs(workload, seed, commands, passes)
        info = descriptors(workload_games, commands, seed)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.failed) for p in passes)
    failed = sum(sum(p.failed) for p in passes)
    correct = failed == 0
    detail = {
        "workload": workload,
        "trace": int(trace),
        "descriptors": info,
        "digests": digests,
        "failed_frac": failed / attempted,
        "pass_seconds": [p.seconds for p in passes],
        "pass_scaled": [sum(p.scaled) for p in passes],
    }
    if not trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
        samples["ok_frac"] = attempted
        detail["samples"] = samples
        detail["measured"] = measured
        return Outcome(correct, attempted, failed, metrics, UNITS, detail)

    names = list(result.layers[0])
    metrics = {n: statistics.median(layer[n] for layer in result.layers) for n in names}
    for name in names:
        if any(name.startswith(a) for a in result.tracer.absent):
            metrics[name] = 0.0
    same_counts = all(c == result.counts[0] for c in result.counts)
    detail["samples"] = len(result.traced)
    detail["counts_repeat"] = same_counts
    detail["absent"] = sorted(result.tracer.absent)
    spans_file = BENCH_DIR / "_out" / f"trace-{workload}-seed{seed}.jsonl.gz"
    write_spans(spans_file, commands, result.tracer.spans)
    detail["spans_file"] = str(spans_file.relative_to(ROOT))
    units = {n: layer_unit(n) for n in names}
    return Outcome(
        correct and same_counts, attempted, failed, metrics, units, detail, result
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in outcome.metrics.items():
        print(f"{args.workload} {name} {value:.6g} {outcome.units[name]}")
    print(json.dumps(outcome.detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            n: {"value": v, "unit": outcome.units[n]} for n, v in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
