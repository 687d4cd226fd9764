"""Span recording around module-level functions, from outside the package.

A :class:`Tracer` replaces a function with a timing wrapper *where it is
looked up by its caller*: ``holosearch.search.delta_update`` rather than
``holosearch.field.delta_update``, because ``search`` imported the name into
its own namespace and calls it from there. Every wrapped call records one span
``(name, start_ns, end_ns, parent)``; ``parent`` is the index of the innermost
wrapped call that was open when this one started, or -1. Spans stay in memory
as plain tuples (cheaper to build in the hot loop) until the benchmark reads
them.

A hook whose target no longer exists is recorded in :attr:`Tracer.absent`
instead of raising, so a renamed or folded function shows up as a missing
metric rather than a crashed benchmark.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int


class Tracer:
    """Hooks declared once, active inside each ``with`` block; spans accumulate."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.absent: list[str] = []
        self._hooks: list[tuple[object, str, str, Callable | None]] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def hook(self, module, attr: str, name: str, observe: Callable | None = None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``observe(args, result)``, if given, sees each call's positional
        arguments and return value, for counts that need them.
        """
        self._hooks.append((module, attr, name, observe))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of its own, e.g. a root span for a driver."""
        return self._traced(fn, name, None)(*args, **kwargs)

    def _traced(self, fn: Callable, name: str, observe: Callable | None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, open_[-1] if open_ else -1)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def records(self) -> list[Span]:
        return [Span(*s) for s in self.spans]

    def __enter__(self) -> "Tracer":
        for module, attr, name, observe in self._hooks:
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing = f"{module.__name__}.{attr}"
                if missing not in self.absent:
                    self.absent.append(missing)
                continue
            setattr(module, attr, self._traced(fn, name, observe))
            self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        """Put every wrapped name back as it was, newest first."""
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


class SpanStats(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int
    durations_ns: list[int]


def summarise(spans: list[Span]) -> dict[str, SpanStats]:
    """Per-name call count, total time and self time (span minus its children)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    durations: dict[str, list[int]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for i, s in enumerate(spans):
        d = s.end_ns - s.start_ns
        durations[s.name].append(d)
        self_ns[s.name] += d - child_ns[i]
    return {
        name: SpanStats(len(ds), sum(ds), self_ns[name], ds)
        for name, ds in durations.items()
    }
