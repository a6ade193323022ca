"""An in-memory span recorder and the self-time arithmetic over it.

A span is one timed call at a layer boundary: ``(id, parent, layer, op,
start, end, thread, items)``. The parent is the innermost span still
open *in the same thread* when the span began, so nesting is exact
without any context passed through the program. Spans stay in a list
until :meth:`SpanRecorder.dump` writes them out as JSON lines.

Self time is a span's duration minus the durations of its direct
children. One layer hops threads on its way down (the cluster fans
shard reads out to an executor), so a child can also be *adopted*
after the fact: :func:`adopt_by_containment` links a root span of one
layer to the innermost span of the same op in another layer whose
interval contains it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    layer: str
    op: str
    start: float
    end: float
    thread: int
    items: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, op: str, items: int = 0):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append(Span(
                span_id, parent, layer, op, start, end,
                threading.get_ident(), int(items),
            ))

    def add(self, name: str, value: float) -> None:
        """Accumulate a named count (cells read, cells written, ...)."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def clear(self) -> None:
        self.spans = []
        with self._lock:
            self.counts = {}

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


class NullRecorder:
    """The recorder of an untraced run: every call is a no-op."""

    _NULL = nullcontext()

    def span(self, layer: str, op: str, items: int = 0):
        return self._NULL

    def add(self, name: str, value: float) -> None:
        pass


def load(path: str) -> List[Span]:
    with open(path) as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def adopt_by_containment(
    spans: Iterable[Span], parent_layer: str, child_layer: str, op: str
) -> List[Span]:
    """Give each root ``child_layer`` span of ``op`` the innermost
    ``parent_layer`` span of the same op (from any thread) whose
    interval contains it."""
    spans = list(spans)
    parents = sorted(
        (s for s in spans if s.layer == parent_layer and s.op == op),
        key=lambda s: s.start,
    )
    starts = [p.start for p in parents]
    out = []
    for span in spans:
        if span.layer == child_layer and span.op == op and span.parent == 0:
            # scan back from the latest parent that started first: the
            # first one that also ends after the child is the innermost
            i = bisect.bisect_right(starts, span.start) - 1
            while i >= 0 and parents[i].end < span.end:
                i -= 1
            if i >= 0:
                span = span._replace(parent=parents[i].id)
        out.append(span)
    return out


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    child_seconds: Dict[int, float] = {}
    for span in spans:
        if span.parent:
            child_seconds[span.parent] = (
                child_seconds.get(span.parent, 0.0) + span.seconds
            )
    return {s.id: s.seconds - child_seconds.get(s.id, 0.0) for s in spans}
