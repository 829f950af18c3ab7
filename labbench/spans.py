"""In-memory spans around calls into the package's layers.

A `Tracer` wraps functions of the package from outside: `install` rebinds
each named function in every package module that refers to it, so calls
made through `from .x import f`, through `x.f` and from inside module `x`
all pass through the wrapper. `uninstall` restores the original bindings.
Spans are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list = []

    @contextlib.contextmanager
    def region(self, name: str):
        """Record one span around the body of the `with` statement."""
        span = Span(name, self.clock(), parent=self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._open.pop()
            span.end = self.clock()

    def wrap(self, name: str, fn, count=None):
        """`fn` with a span around each call. `count(arguments, result)`
        returns the span's counters, where `arguments` maps parameter names,
        defaults included, to the values of the call."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.region(name) as span:
                result = fn(*args, **kwargs)
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return traced

    def install(self, modules: dict, layers: dict) -> None:
        """Wrap each `"module.function"` key of `layers` (value: its count
        hook or None) wherever a module in `modules` binds that function."""
        for qualname, count in layers.items():
            module_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(modules[module_name], fn_name)
            traced = self.wrap(qualname, original, count)
            for module in modules.values():
                if getattr(module, fn_name, None) is original:
                    self._patches.append((module, fn_name, original))
                    setattr(module, fn_name, traced)

    def uninstall(self) -> None:
        while self._patches:
            module, fn_name, original = self._patches.pop()
            setattr(module, fn_name, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(asdict(span)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as f:
        return [Span(**json.loads(line)) for line in f]


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: calls, total seconds, self seconds (total minus the
    time covered by direct child spans) and summed counters."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals: dict = {}
    for span, inner in zip(spans, child_s):
        t = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += span.end - span.start
        t["self_s"] += span.end - span.start - inner
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals
