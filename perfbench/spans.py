"""In-memory span recorder and the arithmetic over its span trees.

A span is one timed call at a layer boundary: its name (``layer.what``),
start and end on ``time.perf_counter``, the index of the span that
caused it, and the id of the op (sweep, epoch or request) it served.
Spans stay in memory while the benchmark runs and are written out once,
at exit (:meth:`SpanRecorder.write`).

Parents come from a stack held in a context variable, so nested calls
link themselves, per thread and per asyncio task (concurrent requests on
one event loop keep separate stacks).  Work handed to an executor thread
starts with an empty stack there; the caller links it by passing
*parent* and *req* explicitly.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    #: Index of the causing span in the recorder's list; -1 for a root.
    parent: int = -1
    #: Id of the op this span served (None outside any op).
    req: str | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects spans from any thread; thread-safe appends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stack: contextvars.ContextVar[tuple[int, ...]] = (
            contextvars.ContextVar("perfbench_spans", default=())
        )

    def current(self) -> int:
        """Index of the innermost open span in this context, or -1."""
        stack = self._stack.get()
        return stack[-1] if stack else -1

    def open(self, name: str, req: str | None = None, parent: int | None = None) -> int:
        stack = self._stack.get()
        if parent is None:
            parent = stack[-1] if stack else -1
        if req is None and parent >= 0:
            req = self.spans[parent].req
        span = Span(name=name, start=time.perf_counter(), parent=parent, req=req)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        self._stack.set(stack + (index,))
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.set(tuple(i for i in self._stack.get() if i != index))

    @contextmanager
    def span(self, name: str, req: str | None = None, parent: int | None = None):
        index = self.open(name, req, parent)
        try:
            yield index
        finally:
            self.close(index)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


# -- arithmetic over a span list ---------------------------------------------


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by the union of *intervals*."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            out[span.parent].append(index)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    direct children cover (children on other threads may overlap each
    other, so the covered part is a union, clipped to the parent)."""
    kids = children_of(spans)
    out = []
    for index, span in enumerate(spans):
        end = span.start + span.duration
        covered = union_length([
            (max(span.start, spans[k].start),
             min(end, spans[k].start + spans[k].duration))
            for k in kids.get(index, ())
            if spans[k].start < end and spans[k].start + spans[k].duration > span.start
        ])
        out.append(span.duration - covered)
    return out


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    """Layer (name prefix before the first dot) -> summed self time."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] += own
    return dict(out)


def outermost_seconds(spans: list[Span], name: str) -> tuple[float, int]:
    """(summed duration, count) of the spans called *name* that have no
    ancestor of the same name, so recursion is not counted twice."""
    total, count = 0.0, 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        nested = False
        while parent >= 0:
            if spans[parent].name == name:
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            total += span.duration
            count += 1
    return total, count


def coverage(spans: list[Span], op_name: str = "op") -> float:
    """Share of the ops' time that their descendant spans cover."""
    kids = children_of(spans)
    op_total = covered_total = 0.0
    for index, span in enumerate(spans):
        if span.name != op_name:
            continue
        end = span.start + span.duration
        intervals = []
        todo = list(kids.get(index, ()))
        while todo:
            k = todo.pop()
            child = spans[k]
            lo = max(span.start, child.start)
            hi = min(end, child.start + child.duration)
            if hi > lo:
                intervals.append((lo, hi))
            todo.extend(kids.get(k, ()))
        op_total += span.duration
        covered_total += union_length(intervals)
    return covered_total / op_total if op_total > 0 else 0.0
