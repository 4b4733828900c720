"""In-memory span recorder and the wrappers that feed it.

A span is a name, a start, an end, the index of the span that was open when
it began (its parent) and a dict of work counts. Wrappers are installed on
the module-global names that library callers resolve, so a call made inside
the library is recorded exactly like a call made by the benchmark itself.
``instrument`` puts the originals back on exit, also after an error.

Spans close in LIFO order on one thread, so the children of a span never
overlap and its self time (duration minus the part its children cover) is
its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``clock`` is injectable so tests can fix time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def within(self, index: int, name: str) -> bool:
        """Whether span ``index`` or one of its ancestors is called ``name``."""
        while index is not None:
            if self.spans[index].name == name:
                return True
            index = self.spans[index].parent
        return False


def traced(tracer: Tracer, name: str, fn, counter=None):
    """Wrap ``fn`` so each call records a span; ``counter(args, kwargs, result)``
    returns the work counts to attach to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            tracer.spans[index].counts.update(counter(args, kwargs, result))
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Install wrappers for ``targets``, a list of (module, attribute, make)
    where ``make(tracer, original)`` returns the wrapper; restore on exit."""
    saved = []
    try:
        for module, attr, make in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, busy_s, self_s and the summed work counts."""
    totals: dict[str, dict] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        t = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += span.duration
        t["self_s"] += self_s
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def breakdown(tracer: Tracer, root: str) -> dict:
    """Split the time of every ``root`` span into the self times of its subtree.

    Returns the roots' summed duration, the summed self times that account
    for it, and each span name's and module's share of that duration.
    """
    span_s = sum(s.duration for s in tracer.spans if s.name == root)
    layers: dict[str, float] = {}
    for i, self_s in enumerate(tracer.self_times()):
        if tracer.within(i, root):
            name = tracer.spans[i].name
            layers[name] = layers.get(name, 0.0) + self_s
    modules: dict[str, float] = {}
    for name, seconds in layers.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + seconds

    def shares(seconds: dict) -> dict:
        return {k: v / span_s for k, v in sorted(seconds.items())} if span_s else {}

    return {"span_s": span_s, "accounted_s": sum(layers.values()),
            "layer_shares": shares(layers), "module_shares": shares(modules)}
