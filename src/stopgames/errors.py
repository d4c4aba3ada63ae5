"""Exception types shared across the package."""

from __future__ import annotations

import math


class GameSpecError(ValueError):
    """Invalid input: malformed tree, payoff field, strategy, or game file."""


class SolverDefectError(RuntimeError):
    """An internal consistency certificate failed; solver output is not trustworthy."""


class EnumerationCapError(RuntimeError):
    """The requested exhaustive enumeration exceeds the configured profile cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        # Counts on deep trees can exceed the interpreter's int-to-str digit limit.
        shown = str(count) if count < 10**100 else f"about 10^{int(math.log10(count))}"
        super().__init__(f"enumeration needs {shown} profiles, cap is {cap}")
