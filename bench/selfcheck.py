"""Self-check of the benchmark's tracer and metric names.

Run from the root of a checkout (about two minutes):

    python3 bench/selfcheck.py [deep|chain|sweep ...]

For each workload, at the default seed, one traced run must:

- give identical per-command span counts on both traced passes;
- count exactly the calls the package makes today: ``reaction_value`` 4, 6
  and 4 times per solve-sim, solve-seq and solve-zs and 2 times per verify,
  ``payoff_mixed_sim`` 2 times per solve-sim, and a distinct share of 0.5
  among solve-sim's ``reaction_value`` calls;
- find every boundary, and account with its self times for the traced
  pass time;
- print exactly the per-layer metrics that ``BENCHMARK.json`` names.

A later change that removes calls on purpose (a shared memo, say) updates
``EXPECTED`` here; the benchmark's own runs check only that counts repeat.
"""

from __future__ import annotations

import json
import sys

import run

EXPECTED = {
    "snell.reaction_value": {
        "solve-sim": 4, "solve-seq": 6, "solve-zs": 4,
        "verify-sim": 2, "verify-seq": 2, "verify-zs": 2,
        "gen": 0, "gen-zs": 0,
    },
    "strategies.payoff_mixed_sim": {"solve-sim": 2},
}
EXPECTED_DISTINCT = {"solve-sim": 0.5}
ACCOUNTED = (0.97, 1.0)


def check(workload: str) -> list[str]:
    problems = []
    outcome = run.measure(workload, run.DEFAULT_SEED, 0, trace=True)
    result = outcome.trace
    commands = [c for g in run.games(workload, run.DEFAULT_SEED) for c in run.cycle(g)]
    if not outcome.correct:
        problems.append(f"run not correct: {outcome.failed} failed, detail {outcome.detail}")
    if result.tracer.absent:
        problems.append(f"absent boundaries: {sorted(result.tracer.absent)}")
    for span, per_kind in EXPECTED.items():
        for i, command in enumerate(commands):
            want = per_kind.get(command.kind)
            got = result.counts[0][i][span]
            if want is not None and got != want:
                problems.append(f"{command.kind} #{i}: {span} called {got} times, expected {want}")
    for kind, want in EXPECTED_DISTINCT.items():
        calls = distinct = 0
        for i, command in enumerate(commands):
            if command.kind == kind:
                calls += result.counts[0][i]["snell.reaction_value"]
                distinct += len(result.tracer.reaction_keys.get(i, ()))
        if distinct != want * calls:
            problems.append(f"{kind}: distinct share {distinct}/{calls}, expected {want}")
    lo, hi = ACCOUNTED
    accounted = outcome.metrics["trace.accounted_frac"]
    if not lo <= accounted <= hi:
        problems.append(f"self times account for {accounted:.4f} of the traced pass")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    for key, printed in (("per_layer", outcome.units), ("end_to_end", run.UNITS)):
        named = {m["name"]: m["unit"] for m in declared[key]}
        if named != printed:
            problems.append(
                f"{key} names or units differ from BENCHMARK.json: "
                f"{sorted(set(named.items()) ^ set(printed.items()))}"
            )
    return problems


def main(argv: list[str]) -> int:
    failed = False
    for workload in argv or ["deep", "chain", "sweep"]:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
