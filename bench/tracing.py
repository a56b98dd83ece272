"""In-memory spans around wrapped functions, and their self-time arithmetic.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index of
the enclosing span in the same list, or -1 for a root; ``attrs`` is ``None``
or a dict of counts taken from the call's arguments and result (or
``{"raised": <exception class name>}`` when the call raised).  Spans stay in
memory and are written once, when the traced process ends.

This module knows nothing about the package it traces; ``layers.py`` says
which functions to wrap and what the spans mean.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Iterable


class Tracer:
    """Records one span per call of every function it wraps.

    The process is single-threaded, so a plain stack gives each span its
    parent.  ``counts`` holds call counts of functions wrapped with
    ``count`` (cheap boundaries called too often for a span each).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable,
             attrs: Callable[[tuple, dict, Any], dict] | None = None
             ) -> Callable:
        """Return ``fn`` inside a span named ``name``.

        Arguments, the return value and any exception pass through
        untouched.  ``attrs(args, kwargs, result)`` runs after the span has
        ended, so its cost lands in the parent's self time, not this span's.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                span[1] = clock()
                result = fn(*args, **kwargs)
                span[2] = clock()
            except BaseException as exc:
                span[2] = clock()
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` with a call counter and no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def rebind(modules: Iterable, original: Callable, replacement: Callable) -> int:
    """Replace every module-level binding of ``original`` by ``replacement``.

    Patching only the defining module misses callers that bound the name
    with ``from module import name`` (possibly under another name).
    Returns the number of bindings replaced.
    """
    replaced = 0
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                replaced += 1
    return replaced


def duration(span: list) -> float:
    return span[2] - span[1]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (the traced process runs one call at
    a time), so the part of a span's interval its children cover is the sum
    of their durations.
    """
    out = [duration(s) for s in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= duration(span)
    return out


def merge(traces: list[tuple[list[list], dict]]) -> tuple[list[list], dict]:
    """Concatenate the spans and add the counts of several processes."""
    spans: list[list] = []
    counts: dict[str, int] = {}
    for part, part_counts in traces:
        offset = len(spans)
        spans.extend([s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
                      s[4]] for s in part)
        for key, value in part_counts.items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts
