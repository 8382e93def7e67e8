"""Span recorder for the traced benchmark run.

Spans are opened and closed by wrappers that the recorder installs
around the public functions of each starquant module, at every place
the function is bound: the defining module and each module that
imported it by name.  Methods are wrapped on their class.  Arithmetic
dunders get call counters only, since a span per Fraction operation
would swamp what it measures.  ``uninstall`` restores every original
binding, so untraced work in the same process runs the plain code.

Spans stay in memory (name, start, end, parent, run id) and are
written out once, by ``dump``, as JSON lines after an environment
header.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Recorder:
    """In-memory spans and counters for one or more traced units."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = ""
        self._local = threading.local()
        self._undo: list = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    stack[-1].sid if stack else None, self.run)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        """Is the innermost open span of this thread called name?"""
        stack = self._stack()
        return bool(stack) and stack[-1].name == name

    def spanned(self, fn, name: str, after=None):
        """fn wrapped in a span; after(args, result) updates counters."""
        rec = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module, attr: str, make) -> None:
        """Replace module.attr and every by-name import of it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != module.__name__.split(".")[0]:
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def wrap_method(self, cls, attr: str, make) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------
    def dump(self, path, env: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"env": env}, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end,
                                     s.parent, s.run]) + "\n")


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out

