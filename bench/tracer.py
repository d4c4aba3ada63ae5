"""Boundary tracer: spans around the calls into each stopgames layer.

The tracer wraps module-level functions (and two ``GameDocument`` methods)
from outside the package.  A function is replaced in its defining module
and under every name another stopgames module bound with
``from .x import f``, so calls made through any of those bindings are
recorded.  ``PayoffField.value`` is deliberately not wrapped: it runs once
per payoff read inside every inner loop and a span there would swamp the
work being measured.

Spans are ``(name, start, end, parent, command)`` tuples kept in memory; the
benchmark writes them out when the run ends.  A boundary that no longer
exists in the package is reported as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

ROOT = "cli.run"


@dataclass(frozen=True)
class Boundary:
    span: str
    module: str
    attr: str
    count_calls: bool = False


#: Every wrapped boundary.  Two methods share the ``gamefile.payoff_field``
#: span: they are the two ways a command builds its payoff field.
BOUNDARIES = (
    Boundary("cli.build_parser", "stopgames.cli", "build_parser"),
    Boundary("gamefile.parse", "stopgames.gamefile", "parse"),
    Boundary("gamefile.payoff_field", "stopgames.gamefile", "GameDocument.payoff_field"),
    Boundary("gamefile.payoff_field", "stopgames.gamefile", "GameDocument.zero_sum_field"),
    Boundary("gamefile.emit", "stopgames.gamefile", "emit"),
    Boundary("gamefile.generate", "stopgames.gamefile", "generate_random_game"),
    Boundary("gamefile.profile_emit", "stopgames.gamefile", "profile_to_json"),
    Boundary("gamefile.profile_parse", "stopgames.gamefile", "profile_from_json"),
    Boundary("tree.build_tree", "stopgames.tree", "build_tree"),
    Boundary("tree.hitting_time", "stopgames.tree", "hitting_time", count_calls=True),
    Boundary("snell.snell", "stopgames.snell", "snell", count_calls=True),
    Boundary("snell.reaction_value", "stopgames.snell", "reaction_value", count_calls=True),
    Boundary(
        "strategies.expected_at_stop", "stopgames.strategies", "expected_at_stop",
        count_calls=True,
    ),
    Boundary(
        "strategies.payoff_mixed_sim", "stopgames.strategies", "payoff_mixed_sim",
        count_calls=True,
    ),
    Boundary("strategies.payoff_pure", "stopgames.strategies", "payoff_pure"),
    Boundary("dynkin.dynkin_value", "stopgames.dynkin", "dynkin_value"),
    Boundary("dynkin.zero_sum_saddle", "stopgames.dynkin", "zero_sum_saddle"),
    Boundary("simultaneous.sim_processes", "stopgames.simultaneous", "sim_processes"),
    Boundary(
        "simultaneous.stage_induction", "stopgames.simultaneous",
        "randomized_dynkin_equilibrium",
    ),
    Boundary("simultaneous.sim_equilibrium", "stopgames.simultaneous", "sim_equilibrium"),
    Boundary("sequential.seq_processes", "stopgames.sequential", "seq_processes"),
    Boundary("sequential.seq_equilibrium", "stopgames.sequential", "seq_equilibrium"),
    Boundary("verify.best_response", "stopgames.verify", "best_response"),
    Boundary("verify.check_equilibrium", "stopgames.verify", "check_equilibrium"),
)

SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [b.span for b in BOUNDARIES]))
COUNTED_SPANS = tuple(dict.fromkeys(b.span for b in BOUNDARIES if b.count_calls))
STAGE_RULES = ("pure", "mixed", "degenerate")

#: Hook-derived measures; each is absent when its hook cannot read the call.
DISTINCT = "snell.reaction_value.distinct_frac"
GAME_BYTES = "gamefile.game_bytes"
PROFILE_BYTES = "gamefile.profile_bytes"
STAGES = "simultaneous.stages"


@dataclass
class Tracer:
    """Installs wrappers, records spans and per-command observations."""

    spans: list = field(default_factory=list)
    absent: set = field(default_factory=set)
    command: int = -1
    #: Per command: the distinct argument keys of its reaction_value calls.
    reaction_keys: dict = field(default_factory=dict)
    game_bytes: Counter = field(default_factory=Counter)
    profile_bytes: Counter = field(default_factory=Counter)
    stage_rules: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [-1])
    _restore: list = field(default_factory=list)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "reaction_value": (DISTINCT, self._on_reaction_value),
            "parse": (GAME_BYTES, self._on_parse),
            "profile_to_json": (PROFILE_BYTES, self._on_profile_emit),
            "randomized_dynkin_equilibrium": (STAGES, self._on_stages),
        }
        installed = set()
        for boundary in BOUNDARIES:
            module = sys.modules.get(boundary.module)
            owner_name, _, attr = boundary.attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = None if owner is None else vars(owner).get(attr)
            hook = hooks.get(attr)
            if not callable(original):
                if hook is not None:
                    self.absent.add(hook[0])
                continue
            installed.add(boundary.span)
            wrapper = self._wrap(boundary.span, original, hook)
            if owner_name:
                self._rebind(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "stopgames" and not name.startswith("stopgames."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        self.absent.update(set(SPAN_NAMES) - installed - {ROOT})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        if hook is not None:
            metric, on_call = hook
            signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.command)
            if hook is not None:
                try:
                    on_call(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    tracer.absent.add(metric)
            return result

        return wrapper

    # -- the traced command ------------------------------------------------

    def run_command(self, command: int, fn, *args):
        """Call ``fn(*args)`` as command ``command`` under the root span."""
        self.command = command
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (ROOT, start, end, -1, command)

    # -- hooks -------------------------------------------------------------

    def _on_reaction_value(self, arguments, result) -> None:
        key = (
            id(arguments["field"]),
            arguments["player"],
            arguments["side"],
            arguments["window"],
            arguments["direction"],
        )
        self.reaction_keys.setdefault(self.command, set()).add(key)

    def _on_parse(self, arguments, result) -> None:
        self.game_bytes[self.command] += len(arguments["text"].encode("utf-8"))

    def _on_profile_emit(self, arguments, result) -> None:
        self.profile_bytes[self.command] += len(result.encode("utf-8"))

    def _on_stages(self, arguments, result) -> None:
        rules = self.stage_rules.setdefault(self.command, Counter())
        for stage in result.stages:
            rules[stage.solution.rule.split(":")[0]] += 1


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous, so children of one span never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
