"""The objects the benchmark hands across each layer boundary.

Nothing under ``src/`` knows it is being timed. Instead each boundary
receives a benchmark-owned object that forwards every call and records
a span around the calls that matter:

* :func:`timed_method` — a subclass of the RPS kernel passed as
  ``method_cls``; times ``range_sum_many`` / ``apply_batch_array`` and
  charges the paper's logical cell counters (``repro.core``);
* :class:`Timed` — a delegating proxy around a ``CubeService``
  (``repro.serve``) or a ``CubeCluster`` (``repro.cluster``), handed to
  the router or installed as a cluster node's ``service``;
* :class:`TracedRouter` — the ``QueryRouter`` handed to ``CubeServer``
  (``repro.routing``);
* :class:`BudgetSource` / :class:`RecordingTarget` — the source and
  target handed to ``IngestPipeline`` (``repro.ingest``).

With a :class:`~spans.NullRecorder` the wrappers that an untraced run
also needs (router, source, target) cost one extra call each.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.routing import QueryRouter

SERVICE_OPS = {"query_many": "read", "submit_batch": "submit", "flush": "flush"}
CLUSTER_OPS = {"range_sum_many": "read", "submit_batch": "submit", "flush": "flush"}


def timed_method(base, recorder):
    """``base`` (a ``RangeSumMethod``) with its batched kernels timed."""

    class TimedMethod(base):
        def range_sum_many(self, lows, highs):
            before = self.counter.cells_read
            with recorder.span("core", "read", len(lows)):
                values = super().range_sum_many(lows, highs)
            recorder.add("core.cells_read", self.counter.cells_read - before)
            recorder.add("core.boxes", len(lows))
            return values

        def apply_batch_array(self, indices, deltas, *args, **kwargs):
            before = self.counter.cells_written
            with recorder.span("core", "apply", len(indices)):
                applied = super().apply_batch_array(
                    indices, deltas, *args, **kwargs
                )
            recorder.add(
                "core.cells_written", self.counter.cells_written - before
            )
            recorder.add("core.cells_applied", len(indices))
            return applied

    TimedMethod.__name__ = f"Timed{base.__name__}"
    return TimedMethod


def _items(args) -> int:
    first = args[0] if args else None
    return len(first) if hasattr(first, "__len__") else 0


class Timed:
    """Forward every attribute of ``target``; time the methods in ``ops``
    (method name -> span op) as spans of ``layer``."""

    def __init__(self, target, recorder, layer: str, ops: Dict[str, str]):
        self._target = target
        self._recorder = recorder
        self._layer = layer
        self._ops = ops

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        op = self._ops.get(name)
        if op is None:
            return attr
        recorder, layer = self._recorder, self._layer

        def timed(*args, **kwargs):
            with recorder.span(layer, op, _items(args)):
                return attr(*args, **kwargs)

        return timed


class TracedRouter(QueryRouter):
    """The ``QueryRouter`` handed to ``CubeServer``, which wraps it in
    the server's own router adapter: each routed read is a span of
    ``repro.routing``.

    The wire carries one integer sequence per write, but a cluster acks
    ``{shard: seq}`` and the server's ``int()`` of that dict fails. The
    router keeps every ack in :attr:`acks` (the oracle checks them for
    lost or doubled groups) and returns the highest shard sequence.
    """

    def __init__(self, backend, recorder, **kwargs) -> None:
        super().__init__(backend, **kwargs)
        self._recorder = recorder
        self.acks: List = []

    def route_many(self, lows, highs, **kwargs):
        with self._recorder.span("routing", "read", len(lows)):
            return super().route_many(lows, highs, **kwargs)

    def submit_batch(self, updates, **kwargs):
        ack = super().submit_batch(updates, **kwargs)
        self.acks.append(ack)
        return max(ack.values()) if isinstance(ack, dict) else ack


class BudgetSource:
    """A chunk source that ends once the clock passes ``stop_at``."""

    def __init__(self, source, stop_at: float, recorder) -> None:
        self.source = source
        self.stop_at = stop_at
        self._recorder = recorder

    def chunks(self, start: int = 0):
        chunks = self.source.chunks(start)
        while time.perf_counter() < self.stop_at:
            with self._recorder.span("ingest", "source"):
                chunk = next(chunks, None)
            if chunk is None:
                return
            yield chunk


class RecordingTarget:
    """Forwards to an ingest target; keeps each acked group's sequence
    and size, the time its fenced submit took (the firehose's write
    latency) and when it was acked. The groups' cells are rebuilt from
    the raw rows after the clock stops, so nothing here grows the
    process it measures."""

    def __init__(self, target, recorder) -> None:
        self.target = target
        self._recorder = recorder
        self.groups: List[Tuple[int, int]] = []
        self.submit_seconds: List[float] = []
        self.acked_at: List[float] = []

    def __getattr__(self, name):
        return getattr(self.target, name)

    def submit_fenced(self, pairs, expect, *, timeout=None):
        start = time.perf_counter()
        with self._recorder.span("ingest", "target", len(pairs)):
            ack = self.target.submit_fenced(pairs, expect, timeout=timeout)
        acked = time.perf_counter()
        self.submit_seconds.append(acked - start)
        self.acked_at.append(acked)
        self.groups.append((int(ack["seq"]), len(pairs)))
        return ack
