"""Span tracing of graphlmr's public functions, from outside the program.

``Tracer.install`` replaces every public function of the traced modules
with a recording wrapper, at each place the function is bound in a
``graphlmr`` module namespace, so calls made from inside the package (for
example ``run_experiment`` calling ``ilmr``) are seen too.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

LAYERS = (
    "generators", "graph", "spectral", "localsets", "sampling", "noise",
    "reconstruction", "experiments", "cli",
)

# Config parsing and output writing live in other modules but serve the
# command line, so their self time is booked to the ``cli`` layer.
CLI_IO = frozenset({
    "experiments.load_config", "experiments.parse_config",
    "experiments.write_report_csv", "experiments.format_report_csv",
    "experiments.write_report_meta", "localsets.write_partition",
    "localsets.format_partition",
})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    attrs: dict = field(default_factory=dict)


def public_functions(package: str = "graphlmr") -> dict[int, tuple[str, Callable]]:
    """``id(function) -> ("<layer>.<name>", function)`` for every traced layer.

    Public means listed in the module's ``__all__`` (or, without one, not
    starting with ``_``) and defined in that module.
    """
    found: dict[int, tuple[str, Callable]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        names = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")
        ]
        for n in names:
            obj = getattr(mod, n, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[id(obj)] = (f"{layer}.{n}", obj)
    return found


class Tracer:
    """Records one span per call of each wrapped function.

    ``hooks`` maps a span name to ``f(args, kwargs, result) -> dict``; the
    returned attributes are stored on the span after its end time is taken.
    """

    def __init__(self, hooks: dict[str, Callable] | None = None):
        self.spans: list[Span] = []
        self.hooks = hooks or {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end = time.perf_counter()
                stack.pop()
            if hook is not None:
                spans[idx].attrs = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "graphlmr") -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = public_functions(package)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == package
                                            or key.startswith(package + "."))]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "attrs": s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before being
    subtracted, so overlapping children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_start, cur_end = 0.0, None, None
        for a, b in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def layer_of(name: str) -> str:
    return "cli" if name in CLI_IO else name.split(".", 1)[0]


def summarize(spans: list[Span]) -> dict:
    """Calls and self time per span name and per layer."""
    own = self_times(spans)
    by_name: dict[str, dict[str, float]] = {}
    by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        entry = by_name.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += t
        by_layer[layer_of(s.name)] = by_layer.get(layer_of(s.name), 0.0) + t
    return {"by_name": by_name, "by_layer": by_layer}
