"""In-memory spans around the program's public entry points.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call — name, start, end, parent span and run id —
and passes arguments, results and exceptions through untouched.  Spans
stay in memory; :meth:`Tracer.dump` writes them when the run ends.

:func:`self_times` is the trace arithmetic: a span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    """One call of one wrapped entry point."""

    __slots__ = ("name", "start", "end", "parent", "tag", "extra")

    def __init__(self, name, parent, tag=None):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tag = tag
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int, run_id: str) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": run_id,
            "tag": self.tag,
            "extra": self.extra,
        }


class Tracer:
    """Collects spans for one run; each thread keeps its own parent stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: int) -> None:
        """Make span ``parent`` (opened on another thread) the parent of
        this thread's outermost spans."""
        self._local.stack = [parent]

    @contextmanager
    def span(self, name: str, tag=None):
        """A ``with`` block recorded as one span (for the benchmark's own
        calls, such as the root of a run or a client request)."""
        span = self._open(name, tag)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str, tag) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else -1, tag)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = _clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack().pop()

    def wrap(self, function, name: str, tag=None, after=None):
        """A pass-through wrapper recording one span per call.

        ``tag(args, kwargs)`` labels the span; ``after(span, args,
        result, error)`` may attach counts to ``span.extra`` once the
        span has closed, so its own cost is not timed.
        """
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(function, name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self._open(name, tag(args, kwargs) if tag else None)
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                self._close(span)
                if after is not None:
                    after(span, args, None, error)
                raise
            self._close(span)
            if after is not None:
                after(span, args, result, None)
            return result

        return wrapper

    def _wrap_generator(self, function, name: str):
        """Generators run in pieces: one span per resumption, so the
        consumer's work between items is not charged to the producer."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            inner = function(*args, **kwargs)
            while True:
                span = self._open(name, None)
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(span)
                    return
                except BaseException:
                    self._close(span)
                    raise
                self._close(span)
                yield item

        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.to_dict(index, self.run_id)) + "\n")


def _covered(intervals: list) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (another thread) cannot push self time below 0.
    """
    children: dict = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        clipped = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        ]
        clipped = [(s, e) for s, e in clipped if e > s]
        result.append(max(0.0, span.duration - _covered(clipped)))
    return result


def ancestors(spans: list, index: int):
    """The indices of a span's ancestors, nearest first."""
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def rebind(original, replacement) -> None:
    """Point every module-level name bound to ``original`` in the
    ``repro`` packages at ``replacement``.

    Callers that look a function up by name at call time — including
    ``from x import f`` inside a function body — then reach the wrapper.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
