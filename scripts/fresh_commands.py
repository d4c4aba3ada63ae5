"""Wall time of fresh CLI processes, A/B between two source trees.

Usage, from anywhere:

    python3 scripts/fresh_commands.py PARENT_SRC CHANGE_SRC [--children N]

Each ``*_SRC`` is a ``src/`` directory holding the ``stopgames`` package.
The script writes a horizon-1 game and its ``solve-sim`` profile to a
temporary directory, then times ``python -E`` children, one command each,
of ``gen``, ``solve-sim`` and ``verify --mode sim`` on that game.  Every
child imports the package afresh, as a user's shell command does.  One
unmeasured child per command and side first writes the bytecode cache.
Then N rounds (default 21) run each command once per side, alternating
which side goes first.

It prints, per command, the median wall time of each side and the ratio
change / parent, and as its last line one JSON object with the same
figures.  It exits 1 if the two sides differ in any child's stdout or exit
code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The child: the source tree is put first on the import path, then the
#: CLI runs with the remaining arguments.
CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "from stopgames.cli import main\n"
    "main()\n"
)


def child(src: str, argv: list[str]) -> tuple[float, int, str]:
    """Wall seconds, exit code and stdout of one fresh CLI process."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-E", "-c", CHILD, src, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return time.perf_counter() - start, done.returncode, done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--children", type=int, default=21, help="timed children per side")
    args = parser.parse_args()
    sides = {"parent": str(Path(args.parent_src).resolve()), "change": str(Path(args.change_src).resolve())}

    with tempfile.TemporaryDirectory() as tmp:
        game, profile, out = (str(Path(tmp, name)) for name in ("g.json", "p.json", "out.json"))
        gen = ["gen", "--horizon", "1", "--branching", "2", "--seed", "1"]
        for argv in ([*gen, "-o", game], ["solve-sim", game, "--profile-out", profile]):
            _, code, _ = child(sides["parent"], argv)
            if code:
                print(f"setup command failed: {argv}", file=sys.stderr)
                return 1
        commands = {
            "gen": [*gen, "-o", out],
            "solve-sim": ["solve-sim", game],
            "verify": ["verify", game, "--profile", profile, "--mode", "sim"],
        }
        seconds = {name: {side: [] for side in sides} for name in commands}
        outputs = {name: {side: set() for side in sides} for name in commands}
        for round_ in range(-1, args.children):
            order = list(sides) if round_ % 2 else list(reversed(sides))
            for name, argv in commands.items():
                for side in order:
                    wall, code, stdout = child(sides[side], argv)
                    outputs[name][side].add((code, stdout))
                    if round_ >= 0:
                        seconds[name][side].append(wall)

    report = {"children_per_side": args.children, "python": sys.version.split()[0]}
    same = True
    for name in commands:
        parent_ms, change_ms = (1000 * statistics.median(seconds[name][s]) for s in sides)
        matches = outputs[name]["parent"] == outputs[name]["change"]
        same = same and matches and len(outputs[name]["parent"]) == 1
        report[name] = {
            "parent_median_ms": round(parent_ms, 2),
            "change_median_ms": round(change_ms, 2),
            "change_over_parent": round(change_ms / parent_ms, 4),
            "change_faster_rounds": sum(
                c < p for p, c in zip(seconds[name]["parent"], seconds[name]["change"])
            ),
            "same_stdout_and_exit": matches,
        }
        print(
            f"{name:10s} parent {parent_ms:7.2f} ms  change {change_ms:7.2f} ms  "
            f"ratio {change_ms / parent_ms:.3f}  outputs {'match' if matches else 'DIFFER'}"
        )
    print(json.dumps(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
