"""Interpreter speed probe, used to scale timings to a reference speed.

The benchmark shares its cores with other work, and the speed of one core
swings by 30% or more within a second.  While commands run, a timer signal
interrupts the program every ``interval`` seconds to time a short fixed
loop (the probe).  A command's time is then reported at the reference
speed, at which one probe takes ``REFERENCE_SECONDS``:

    scaled = (wall - probe time inside) * REFERENCE_SECONDS / mean probe

where the mean is over the probes within ``WINDOW`` seconds of the command.
The probe does the kind of work the solvers do (list and dict reads, float
arithmetic), so both slow down together when the core is contended.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_SECONDS = 0.00024
WINDOW = 0.25
_ITERATIONS = 2_000


def probe_seconds() -> float:
    """Wall time of one run of the fixed probe loop."""
    start = time.perf_counter()
    values = [0.5] * 64
    table: dict[int, float] = {}
    total = 0.0
    for i in range(_ITERATIONS):
        k = i & 63
        total += values[k] * 0.999 + table.get(k, 0.0)
        table[k] = total * 1e-9
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that probes the interpreter's speed on a timer.

    Each probe is stored as ``(start, seconds)``.  One probe also runs on
    entry and on exit, so even a short stretch has samples around it.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None
        self._busy = False

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.seconds.append(probe_seconds())
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def scaled(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.seconds[lo:hi])
        near = self.seconds[
            bisect.bisect_left(self.starts, start - WINDOW):
            bisect.bisect_left(self.starts, end + WINDOW)
        ]
        if not near:
            raise RuntimeError("no speed probe near the timed stretch")
        return (end - start - inside) * REFERENCE_SECONDS * len(near) / sum(near)
