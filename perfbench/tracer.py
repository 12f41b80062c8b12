"""Self time and exact counts of distillery's layer functions, taken from outside.

``Tracer`` is a context manager. On entry it rebinds each traced function in
every loaded ``distillery`` module that holds it by name (the package imports
them with ``from .x import f``, so patching one module is not enough), and
wraps ``DensityOperator.__post_init__``, where construction runs the
physicality check. On exit it restores the originals. No source file changes.

A span's self time is its duration minus the time of the traced spans it
called, so the self times of all spans plus the time outside every span add
up to the wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# distillery functions rebound wherever they are bound by name, as "module.function"
FUNCTIONS = (
    "circuit.execute_exact",
    "circuit.postselect",
    "channels.apply_kraus_matrix",
    "channels.apply_global_depolarizing_matrix",
    "densop.embed_on_qubits",
    "densop.partial_trace_matrix",
    "protocols.general_distill",
)
DENSITY_OPERATOR = "densop.DensityOperator"
SPANS = FUNCTIONS + (DENSITY_OPERATOR,)
# spans whose call counts are reported: the ones kernel work is expected to move
COUNTED = (
    "channels.apply_kraus_matrix",
    "channels.apply_global_depolarizing_matrix",
    "densop.embed_on_qubits",
    DENSITY_OPERATOR,
)


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.branches = 0  # branches returned by execute_exact
        self.postselect_attempted = 0  # branches offered to postselect
        self.postselect_accepted = 0  # of those, branches its rule kept
        self._children: list[float] = []  # per open span, time spent in traced callees
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.self_s[name] += duration - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += duration

        return traced

    def _count_execute(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.branches += len(result.branches)
            return result

        return counted

    def _count_postselect(self, fn):
        @functools.wraps(fn)
        def counted(result, rule, *args, **kwargs):
            self.postselect_attempted += len(result.branches)
            self.postselect_accepted += sum(1 for b in result.branches if rule(b.outcomes))
            return fn(result, rule, *args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        replacements = {}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"distillery.{module}"), attr)
            wrapped = self._span(name, original)
            if name == "circuit.execute_exact":
                wrapped = self._count_execute(wrapped)
            elif name == "circuit.postselect":
                wrapped = self._count_postselect(wrapped)
            replacements[id(original)] = (original, wrapped)
        for name, module in list(sys.modules.items()):
            if name != "distillery" and not name.startswith("distillery."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
        cls = importlib.import_module("distillery.densop").DensityOperator
        self._restore.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._span(DENSITY_OPERATOR, cls.__post_init__)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def accepted_branch_frac(self) -> float:
        """Accepted over offered branches; 0 when nothing was post-selected."""
        if not self.postselect_attempted:
            return 0.0
        return self.postselect_accepted / self.postselect_attempted
