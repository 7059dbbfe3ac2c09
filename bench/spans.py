"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark itself, either around its own calls
(``Tracer.span``) or by temporarily rebinding a public function under the
name its calling module uses (``Tracer.wrap_span``).  Per-pair hot calls
(``iou``, the Kalman primitives) would cost more to record one span each
than they cost to run, so ``Tracer.wrap_hot`` only adds a call count and
summed time to the innermost open span.  Every span keeps the time its
children covered, so a layer's self time is duration minus that coverage.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "child_s",
                 "hot", "counts")

    def __init__(self, sid, name, parent, run):
        self.id = sid
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.hot = {}     # hot layer -> [calls, seconds]
        self.counts = {}  # counter name -> value

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def to_json(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "run": self.run, "start": self.start - t0,
                "end": self.end - t0, "self_s": self.self_s,
                "hot": self.hot, "counts": self.counts}


class Tracer:
    """Records spans, tagged with the current iteration (``run``)."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.run = 0
        self._next = 0
        self._stack: list[Span] = []
        self._restore = []

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        s = Span(self._next, name, stack[-1].id if stack else None, self.run)
        self._next += 1
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += s.duration
            self.spans.append(s)

    def hot(self, layer: str, seconds: float) -> Span | None:
        top = self._stack[-1] if self._stack else None
        if top is not None:
            entry = top.hot.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            top.child_s += seconds
        return top

    def _rebind(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:  # name not present in this version: its metrics read 0
            return
        setattr(owner, attr, make(orig))
        self._restore.append((owner, attr, orig))

    def wrap_span(self, owner, attr: str, name: str, after=None):
        """Rebind ``owner.attr`` so each call runs inside span ``name``.

        ``after(span, args, result)`` may add counts to the span.
        """
        def make(orig):
            def traced(*args, **kwargs):
                with self.span(name) as s:
                    result = orig(*args, **kwargs)
                    if after is not None:
                        after(s, args, result)
                    return result
            return traced
        self._rebind(owner, attr, make)

    def wrap_hot(self, owner, attr: str, layer: str, after=None):
        """Rebind ``owner.attr`` to add count and time to the enclosing span.

        ``after(span, args, result)`` may add counts to the enclosing span.
        """
        perf = time.perf_counter

        def make(orig):
            def timed(*args, **kwargs):
                t = perf()
                result = orig(*args, **kwargs)
                top = self.hot(layer, perf() - t)
                if after is not None and top is not None:
                    after(top, args, result)
                return result
            return timed
        self._rebind(owner, attr, make)

    def unwrap(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(s.to_json(self.t0)) + "\n")


class NullTracer:
    """Stands in for a Tracer in the untraced phase."""

    @contextmanager
    def span(self, name: str):
        yield None
