"""The ``firehose`` workload: streaming ingestion into a durable service.

An in-process ``IngestPipeline`` reads a ``ColumnarSource`` of fact
rows (one poison row in every 1000), encodes, coalesces and submits
fenced groups into a durable 512 x 512 float64 ``CubeService``. A probe
thread reads 4 boxes from the service every 20 ms, open loop, and times
each read from when it was due, so a stall shows in the tail of every
read queued behind it.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from common import median, peak_rss_mb, tail_note, work_dir
import inputs
from oracle import StampOracle
from spans import NullRecorder, SpanRecorder
from timing import SERVICE_OPS, BudgetSource, RecordingTarget, Timed, timed_method

from repro.core.rps import RelativePrefixSumCube
from repro.cube.encoders import IntegerEncoder
from repro.cube.schema import CubeSchema, Dimension
from repro.errors import ReproError
from repro.ingest import (
    ColumnarSource,
    IngestPipeline,
    ServiceTarget,
    read_dead_letters,
)
from repro.serve import CubeService, DurabilityPolicy

SETUPS = 7
STREAM_ROWS = 2_000_000
CHUNK_ROWS = 4096
#: pinned: adaptive sizing would make group boundaries depend on timing
GROUP_ROWS = 8192
# a group then ends exactly every GROUP_ROWS rows (see rebuild_groups)
assert GROUP_ROWS % CHUNK_ROWS == 0
#: throughput is the median rate over windows of this many groups
WINDOW_GROUPS = 8
PROBE_PERIOD_S = 0.020
PROBE_PAGES = 512
SERVE_COUNTERS = (
    "groups_submitted", "updates_submitted", "batches_applied", "swaps",
    "wal_fsyncs", "wal_bytes", "checkpoints_written", "groups_applied",
)


class Inputs:
    def __init__(self, seed: int) -> None:
        self.base = inputs.base_cube(seed, np.float64)
        self.columns, self.poison = inputs.fact_stream(seed, STREAM_ROWS)
        lows, highs = inputs.unaligned_pages(seed, 8, PROBE_PAGES, 4)
        self.probe_lows, self.probe_highs = lows, highs


def _schema() -> CubeSchema:
    return CubeSchema(
        [
            Dimension("x", IntegerEncoder(0, inputs.SIZE - 1)),
            Dimension("y", IntegerEncoder(0, inputs.SIZE - 1)),
        ],
        "sales",
    )


class Stack:
    """One durable service with its pipeline, built from scratch."""

    def __init__(self, data: Inputs, trace: bool) -> None:
        self.directory = work_dir("firehose-stack")
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory)
        self.recorder = SpanRecorder() if trace else NullRecorder()
        method_cls = (
            timed_method(RelativePrefixSumCube, self.recorder)
            if trace else RelativePrefixSumCube
        )
        self.service = CubeService(
            method_cls, data.base, method_kwargs={"box_size": inputs.BOX_SIZE},
            durability=DurabilityPolicy(
                dir=os.path.join(self.directory, "svc"), fsync=True
            ),
        )
        self.served = (
            Timed(self.service, self.recorder, "serve", SERVICE_OPS)
            if trace else self.service
        )
        self.source = BudgetSource(
            ColumnarSource(data.columns, chunk_rows=CHUNK_ROWS),
            float("inf"), self.recorder,
        )
        self.target = RecordingTarget(ServiceTarget(self.served), self.recorder)
        self.deadletter_path = os.path.join(self.directory, "dead.log")
        self.pipeline = IngestPipeline(
            self.source, _schema(), self.target,
            checkpoint_path=os.path.join(self.directory, "ck.json"),
            deadletter_path=self.deadletter_path,
            group_rows=GROUP_ROWS, min_group_rows=GROUP_ROWS,
            max_group_rows=GROUP_ROWS,
        )
        # warm-up: one read through the freshly built snapshot
        self.served.query_many(data.probe_lows[0], data.probe_highs[0])
        self.marked = self.counters()
        if trace:
            self.recorder.clear()

    def counters(self) -> Dict[str, int]:
        stats = self.service.stats()
        return {name: stats[name] for name in SERVE_COUNTERS}

    def close(self) -> None:
        self.pipeline.close()
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


class Probe(threading.Thread):
    """Open-loop reader: one 4-box read every PROBE_PERIOD_S."""

    def __init__(self, served, data: Inputs, start_at: float) -> None:
        super().__init__(name="firehose-probe", daemon=True)
        self.served = served
        self.data = data
        self.start_at = start_at
        self.done = threading.Event()
        self.latency: List[float] = []
        self.late: List[float] = []
        self.reads: List = []
        self.errors = 0

    def run(self) -> None:
        k = 0
        while not self.done.is_set():
            due = self.start_at + k * PROBE_PERIOD_S
            wait = due - time.perf_counter()
            if wait > 0 and self.done.wait(wait):
                break
            page = k % PROBE_PAGES
            began = time.perf_counter()
            try:
                values, version = self.served.query_many(
                    self.data.probe_lows[page], self.data.probe_highs[page]
                )
            except ReproError:
                self.errors += 1
            else:
                self.latency.append(time.perf_counter() - due)
                self.late.append(began - due)
                self.reads.append((page, values, version))
            k += 1


def run_phase(data: Inputs, seconds: float, trace: bool, setups: int) -> Dict:
    setup_times = []
    for i in range(setups):
        start = time.perf_counter()
        stack = Stack(data, trace)
        setup_times.append(time.perf_counter() - start)
        if i < setups - 1:
            stack.close()
    try:
        start = time.perf_counter()
        stack.source.stop_at = start + seconds
        probe = Probe(stack.served, data, start)
        probe.start()
        try:
            with stack.recorder.span("ingest", "run"):
                report = stack.pipeline.run()
            wall = time.perf_counter() - start
        finally:
            probe.done.set()
            probe.join()
        rss = peak_rss_mb()
        final, _ = stack.service.snapshot_array()
        serve = {
            k: v - stack.marked[k] for k, v in stack.counters().items()
        }
        dead = [int(entry["offset"]) for entry in read_dead_letters(
            stack.deadletter_path
        )]
    finally:
        stack.close()
    return {
        "report": report, "wall": wall, "probe": probe, "final": final,
        "start": start, "acked_at": stack.target.acked_at,
        "groups": stack.target.groups,
        "submit_seconds": stack.target.submit_seconds, "dead": dead,
        "setup_times": setup_times, "serve": serve,
        "recorder": stack.recorder, "peak_rss_mb": rss,
    }


def rebuild_groups(data: Inputs, rows: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Each group's coalesced cells and deltas, rebuilt from the raw rows.

    With the group size pinned to a multiple of the chunk size, group
    ``g`` holds rows ``[g * GROUP_ROWS, (g + 1) * GROUP_ROWS)`` of the
    stream, the last one cut at ``rows``. Each cell's rows are summed in
    row order, as the pipeline's coalesce does.
    """
    groups = []
    for start in range(0, rows, GROUP_ROWS):
        stop = min(start + GROUP_ROWS, rows)
        x = data.columns["x"][start:stop]
        valid = x < inputs.SIZE
        coords = np.stack([x[valid], data.columns["y"][start:stop][valid]], 1)
        cells, inverse = np.unique(coords, axis=0, return_inverse=True)
        deltas = np.zeros(len(cells), dtype=np.float64)
        np.add.at(deltas, inverse.reshape(-1),
                  data.columns["sales"][start:stop][valid])
        groups.append((cells, deltas))
    return groups


def verify(data: Inputs, phase: Dict) -> Dict[str, int]:
    """Probe reads at their stamps, acked groups, the final cube and
    the dead-letter file, all against the raw rows."""
    rows = int(phase["report"]["rows_read"])
    failed = phase["probe"].errors
    # acked groups must be the consecutive sequence 1..n, one per
    # GROUP_ROWS rows, each with as many cells as its rows touch
    acked = phase["groups"]
    rebuilt = rebuild_groups(data, rows)
    failed += sum(1 for i, (seq, _) in enumerate(acked) if seq != i + 1)
    failed += abs(len(acked) - len(rebuilt))
    failed += sum(
        1 for (_, size), (cells, _) in zip(acked, rebuilt) if size != len(cells)
    )
    oracle = StampOracle(data.base)
    for cells, deltas in rebuilt[:len(acked)]:
        oracle.add_group(cells, deltas)
    wrong_reads = sum(
        1 for page, values, version in phase["probe"].reads
        if oracle.wrong_boxes(
            data.probe_lows[page], data.probe_highs[page], values, version
        )
    )
    failed += wrong_reads
    # the final cube, bit for bit, against the raw rows consumed
    x = data.columns["x"][:rows]
    y = data.columns["y"][:rows]
    sales = data.columns["sales"][:rows]
    valid = x < inputs.SIZE
    expected = data.base.copy()
    np.add.at(expected, (x[valid], y[valid]), sales[valid])
    bad_cells = int(np.count_nonzero(phase["final"] != expected))
    failed += bad_cells
    # every poison row dead-lettered exactly once, nothing else
    poison = [int(p) for p in data.poison if p < rows]
    dead = sorted(phase["dead"])
    if dead != poison:
        failed += len(set(dead) ^ set(poison)) + (len(dead) - len(set(dead)))
    failed += abs(int(phase["report"]["rows_quarantined"]) - len(poison))
    attempted = len(phase["probe"].reads) + phase["probe"].errors + rows
    return {
        "attempted": attempted, "failed": failed, "wrong_reads": wrong_reads,
        "bad_cells": bad_cells,
    }


def window_rates(phase: Dict) -> List[float]:
    """Rows per second over each window of WINDOW_GROUPS consecutive
    full groups, from the ack before the window (or the start of the
    clock) to the window's last ack. A window spans several of the
    service's batched applies, so its rate does not depend on where the
    applies fall."""
    full = int(phase["report"]["rows_read"]) // GROUP_ROWS
    acked = [phase["start"]] + phase["acked_at"][:full]
    return [
        WINDOW_GROUPS * GROUP_ROWS / (acked[g + WINDOW_GROUPS] - acked[g])
        for g in range(0, len(acked) - WINDOW_GROUPS, WINDOW_GROUPS)
    ]


def end_to_end(phase: Dict) -> Dict[str, float]:
    read_ms = [s * 1e3 for s in phase["probe"].latency]
    return {
        "read_p50_ms": median(read_ms),
        "throughput_per_s": median(window_rates(phase)),
        "write_p50_ms": median([s * 1e3 for s in phase["submit_seconds"]]),
        "peak_rss_mb": phase["peak_rss_mb"],
        "setup_s": median(phase["setup_times"]),
    }


def extras(phase: Dict) -> Dict[str, object]:
    probe = phase["probe"]
    report = phase["report"]
    return {
        "ingest_rows_per_s": report["rows_read"] / phase["wall"],
        "rows_read": report["rows_read"],
        "rows_quarantined": report["rows_quarantined"],
        "groups": report["groups_submitted"],
        "probe_reads": len(probe.latency),
        "read_p90_ms": tail_note([s * 1e3 for s in probe.latency], 90),
        "read_p95_ms": tail_note([s * 1e3 for s in probe.latency], 95),
        "read_p99_ms": tail_note([s * 1e3 for s in probe.latency], 99),
        "probe_start_late_ms_p50": median([s * 1e3 for s in probe.late]),
        "setup_s_each": [round(s, 4) for s in phase["setup_times"]],
    }
