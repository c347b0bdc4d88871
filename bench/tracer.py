"""Per-layer spans recorded from outside the package.

The tracer replaces each public layer function by a timing wrapper at every
module attribute that binds it (``cablecal.cli.run_trace`` as well as
``cablecal.identify.run_trace``), so calls between layers are caught without
touching the package.  Spans stay in memory; the harness aggregates them
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from itertools import permutations

# Layer module -> public functions timed as spans.
LAYERS = {
    "cli": ("main", "build_parser"),
    "config": ("load_config", "dump_design"),
    "designer": ("build_design",),
    "model": ("validate_design",),
    "events": ("enumerate_events", "rectify", "delta_stats", "stroke_profile"),
    "optimize": ("search", "score"),
    "identify": ("run_trace", "start", "observe"),
    "simulate": ("simulate", "format_trace_csv", "parse_trace_csv"),
}
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


def _note_search(arguments, result):
    recipe = arguments["recipe"]
    space = len(set(permutations(recipe.d_pool))) * len(set(permutations(recipe.z_pool)))
    return min(arguments["budget"], space)  # evaluations the search performs


# Span notes: facts about a call that derived metrics need, taken from its
# bound arguments and result.
NOTES = {
    "events.stroke_profile": lambda arguments, result: arguments["table"].count,
    "designer.build_design": lambda arguments, result: (
        (arguments["recipe"].d_pool, arguments["recipe"].z_pool),
        result.report.hard_pass,
    ),
    "optimize.search": _note_search,
    "identify.run_trace": lambda arguments, result: (
        result.status,
        result.detections_used,
        result.stroke,
    ),
}


class Span:
    __slots__ = ("name", "parent", "request", "t0", "t1", "note")

    def __init__(self, name: str, parent: int, request: int):
        self.name = name
        self.parent = parent
        self.request = request
        self.t0 = self.t1 = 0.0
        self.note = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records a span per call of every layer function while installed.

    ``request`` is set by the caller before each unit of work; spans carry
    it so that work can be attributed to the set-up or a timed command.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.note = note(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        self.missing = []
        for name in FUNCTIONS:
            module, fn = name.split(".")
            target = getattr(sys.modules.get(f"cablecal.{module}"), fn, None)
            if target is None:
                self.missing.append(name)
            else:
                originals[id(target)] = (name, target)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "cablecal" or module_name.startswith("cablecal.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))  # originals stay alive, so ids are unique
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []


def layer_totals(spans: list[Span], group) -> dict[tuple[str, object], list[float]]:
    """calls, total seconds and self seconds per function and request group.

    Spans are summed per ``(name, group(span.request))``, so callers can
    divide each group by its own unit of work.  Self time is the span's
    duration minus the durations of its direct children; calls here are
    synchronous and single-threaded, so children never overlap.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    totals: dict[tuple[str, object], list[float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault((span.name, group(span.request)), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - child[index]
    return totals


def ancestor(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    index = spans[index].parent
    while index >= 0 and spans[index].name != name:
        index = spans[index].parent
    return index
