"""Outside-in span tracer.

The benchmark times the program's layers without touching ``src/``:
:mod:`perfbench.layers` replaces public functions and methods of the
``repro`` package with wrappers from :meth:`Tracer.wrap`, and every
call then records a span — name, start, end, parent span and the id of
the sample or job it served. Spans stay in memory and are written out
once, at exit (:meth:`Tracer.write`).

A span's *self time* is its duration minus the time its child spans
cover. Children run on the same thread as their parent and never
overlap each other, so the covered time is the sum of the children's
durations. Self and total times are summed per span name as the spans
close; per-name counters (pairs scored, cache hits) ride along in
:attr:`Tracer.counts`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: Spans kept for the trace file; later spans still count towards the
#: per-name totals, only their individual records are dropped.
KEEP_SPANS = 200_000


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_id")

    def __init__(self, name, start, span_id, parent_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.parent_id = parent_id


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.enabled = True
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.marks: defaultdict[str, list] = defaultdict(list)

    # -- thread state --------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def tag(self) -> str | None:
        """The sample or job id spans on this thread are recorded for."""
        return getattr(self._local, "tag", None)

    @tag.setter
    def tag(self, value: str | None) -> None:
        self._local.tag = value

    def inside(self, prefix: str) -> bool:
        """Whether an open span on this thread starts with ``prefix``."""
        return any(frame.name.startswith(prefix) for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def mark(self, key: str, value) -> None:
        """Append a timestamp or value to ``key``'s list of marks."""
        with self._lock:
            self.marks[key].append(value)

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        frame = _Frame(name, time.perf_counter(), next(self._ids), parent)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        outermost = all(other.name != frame.name for other in stack)
        with self._lock:
            self.self_time[frame.name] += duration - frame.child
            if outermost:
                self.total_time[frame.name] += duration
                self.calls[frame.name] += 1
            if len(self.spans) < KEEP_SPANS:
                self.spans.append(
                    (frame.span_id, frame.parent_id, frame.name,
                     frame.start, end, self.tag)
                )
            else:
                self.dropped += 1

    def wrap(self, fn, name, *, name_of=None, on_exit=None, iterator=False):
        """Wrap ``fn`` so each call records a span.

        ``name_of(args)`` picks the span name per call instead of the
        fixed ``name``. A call made while a span of the same name is
        open on this thread runs unwrapped: recursion and ``super()``
        chains then fold into one span. ``on_exit(result, args,
        kwargs)`` runs after a call that returned. With ``iterator``,
        the call returns an iterator and each ``next()`` on it is a
        span of its own; ``on_exit`` then sees every item.
        """

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name_of(args) if name_of is not None else name
            stack = self._stack()
            if stack and stack[-1].name == span_name:
                return fn(*args, **kwargs)
            if iterator:
                return self._iterate(span_name, fn(*args, **kwargs), on_exit,
                                     args, kwargs)
            frame = self._enter(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_exit is not None:
                on_exit(result, args, kwargs)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _iterate(self, name, iterable, on_item, args, kwargs):
        iterator = iter(iterable)
        try:
            while True:
                frame = self._enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                if on_item is not None:
                    on_item(item, args, kwargs)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- output --------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name self/total seconds, call counts and counters."""
        with self._lock:
            return {
                "self_s": dict(self.self_time),
                "total_s": dict(self.total_time),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "spans": len(self.spans) + self.dropped,
                "dropped": self.dropped,
            }

    def write(self, path, meta: dict | None = None) -> None:
        """Write every kept span plus the summary as one JSON file."""
        with self._lock:
            spans = [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                 "end": s[4], "sample": s[5]}
                for s in self.spans
            ]
        payload = {"meta": meta or {}, "summary": self.summary(), "spans": spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
