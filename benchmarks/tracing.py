"""Spans around the calls into prefarg's modules, recorded from outside.

The tracer replaces each traced function under the name its caller looks it
up by (a module global, a `DECIDERS` entry or a `Framework` method), so
prefarg itself is not edited. Every call records a span: name, start, end,
parent span and instance id. Spans stay in flat arrays in memory and are
written out once, at the end of the traced pass.

`Framework.attackers` and `Framework.targets` are deliberately not traced:
one slow reduction-3 instance makes millions of such calls, and the wrapper
cost would swamp the layers being measured.
"""

import time
from array import array
from functools import wraps

# (module, attribute, span name). The attribute is looked up in that module
# at call time, so patching it there catches exactly that caller's calls.
MODULE_TARGETS = (
    ("prefarg.cli", "main", "cli.main"),
    ("prefarg.cli", "parse_apx", "io_formats.parse_apx"),
    ("prefarg.cli", "parse_labelling", "io_formats.parse_labelling"),
    ("prefarg.cli", "emit_result", "io_formats.emit_result"),
    ("prefarg.cli", "verify_witness", "solvers.verify"),
    ("prefarg.cli", "brute_force_ex", "oracle.brute_force_ex"),
    ("prefarg.solvers", "completeness_violation", "semantics.completeness"),
    ("prefarg.semantics", "completeness_violation", "semantics.completeness"),
    ("prefarg.solvers", "pref_fn_to_order", "preferences.pref_fn_to_order"),
    ("prefarg.solvers", "reduce", "reductions.reduce"),
    ("prefarg.solvers", "validate_order", "preferences.validate_order"),
    ("prefarg.oracle", "reduce", "reductions.reduce"),
    ("prefarg.reductions", "validate_order", "preferences.validate_order"),
    ("prefarg.preferences", "consistency_certificate", "preferences.consistency"),
)
FRAMEWORK_TARGETS = (
    ("__init__", "framework.init"),
    ("restrict", "framework.restrict"),
    ("connected_components", "framework.components"),
    ("has_cycle", "framework.has_cycle"),
)


class Tracer:
    """In-memory span recorder that patches and later restores prefarg."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.instance_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return `fn` recording one span per call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        span_name, parent, instance_of = self.span_name, self.parent, self.instance_of
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            instance_of.append(self.instance)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, key, name: str) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original))
        self._patches.append((owner, key, original))

    def install(self) -> None:
        """Patch every traced call site of the imported prefarg package."""
        import importlib

        for module_name, attr, name in MODULE_TARGETS:
            self._patch(importlib.import_module(module_name), attr, name)
        solvers = importlib.import_module("prefarg.solvers")
        for reduction in sorted(solvers.DECIDERS):
            self._patch(solvers.DECIDERS, reduction, f"solvers.ex{reduction}")
        framework = importlib.import_module("prefarg.framework").Framework
        for attr, name in FRAMEWORK_TARGETS:
            self._patch(framework, attr, name)

    def restore(self) -> None:
        """Put every patched function back, newest patch first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds.

        Spans nest strictly (one thread), so a span's self time is its
        duration minus the durations of its direct children.
        """
        count = len(self.start)
        children = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = table[self.names[self.span_name[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children[i]
        return table

    def count_children(self, parent_name: str, child_name: str) -> int:
        """Spans named `child_name` whose direct parent is named `parent_name`."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        return sum(
            1
            for i in range(len(self.start))
            if self.span_name[i] == cid
            and self.parent[i] >= 0
            and self.span_name[self.parent[i]] == pid
        )

    def write(self, path) -> None:
        """Every span as one tab-separated line, times relative to the first."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tinstance\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.parent[i]}\t"
                    f"{self.instance_of[i]}\t{self.start[i] - origin:.9f}\t"
                    f"{self.end[i] - origin:.9f}\n"
                )
