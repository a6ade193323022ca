"""Load generator for the net workload (``adhoc``) and the layer ladder.

One process drives two connections in one deterministic stream of
cycles: a fixed number of closed-loop reads on the reader connection,
then one group submitted and flushed on the writer connection. The mix
of reads and writes does not depend on how fast the host runs. The
system under test lives in the child started by :class:`HostProcess`.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from common import BenchError, median, tail_note, work_dir
import inputs

from repro.errors import ReproError
from repro.net import CubeClient

HOST = "127.0.0.1"
FLUSH_TIMEOUT_S = 30.0
LADDER_PAGES = 50
LADDER_REPEATS = 2

# 64 fresh unaligned boxes per page, never repeated; one 64-cell group
# + flush after every 24 reads (about 3 per second). 24 is a multiple of
# the router's 1-in-4 tracker sampling, so every cycle holds the same
# number of sampled reads
BOXES = 64
WRITE_CELLS = 64
READS_PER_WRITE = 24
SETUPS = 3
ADHOC_POOL_PAGES = 16384
#: the router's hotness tracker samples 1 call in 4 and keeps 4096 exact
#: boxes; 320 pages of 64 fresh boxes fill it, so the timed phase sees
#: the router's steady state rather than its first seconds
ADHOC_WARMUP_PAGES = 320


class HostProcess:
    """The child process hosting the system under test."""

    def __init__(self) -> None:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "host.py")
        self.proc = subprocess.Popen(
            [sys.executable, script], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def call(self, cmd: str, **params) -> Dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **params}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"host exited during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(f"host {cmd!r}: {reply['error']}\n{reply['traceback']}")
        return reply

    def __enter__(self) -> "HostProcess":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """The generated inputs of the adhoc workload."""

    name = "adhoc"

    def __init__(self, seed: int) -> None:
        self.base = inputs.base_cube(seed, np.int64)
        self.cube_path = os.path.join(work_dir(), f"{self.name}-cube.npy")
        np.save(self.cube_path, self.base)
        self.lows, self.highs = inputs.unaligned_pages(
            seed, 5, ADHOC_POOL_PAGES, BOXES
        )
        self.sequence = np.arange(ADHOC_WARMUP_PAGES, ADHOC_POOL_PAGES)
        self.warmup = np.arange(ADHOC_WARMUP_PAGES)
        writes = len(self.sequence) // READS_PER_WRITE
        self.groups = inputs.write_groups(seed, writes, WRITE_CELLS)
        self.wire_groups = [
            [(tuple(cell), int(delta)) for cell, delta in zip(c.tolist(), d.tolist())]
            for c, d in self.groups
        ]


async def _connect(port: int):
    return (
        await CubeClient.connect(HOST, port),
        await CubeClient.connect(HOST, port),
    )


async def _setup(host: HostProcess, wl: Workload, trace: bool, keep: bool):
    """One timed set-up: open the stack, connect, warm the router tiers.
    Returns ``(seconds, open reply, clients, warm-up reads)``."""
    start = time.perf_counter()
    opened = host.call(
        "open", dir=work_dir(f"{wl.name}-stack"), cube=wl.cube_path,
        trace=trace,
    )
    reader, writer = await _connect(opened["port"])
    warm = []
    for key in wl.warmup:
        values, stamp = await reader.range_sum_many(wl.lows[key], wl.highs[key])
        warm.append((int(key), values, stamp, 0))
    host.call("mark")
    seconds = time.perf_counter() - start
    if not keep:
        await reader.close()
        await writer.close()
        host.call("close")
        return seconds, opened, None, warm
    return seconds, opened, (reader, writer), warm


async def _drive(wl: Workload, clients, seconds: float) -> Dict:
    """Cycles of READS_PER_WRITE reads then one write + flush, until
    the clock runs out at the end of a cycle."""
    reader, writer = clients
    reads: List = []
    read_lat: List[float] = []
    write_lat: List[float] = []
    cycles: List[float] = []
    seqs: List[int] = []
    errors = 0
    start = time.perf_counter()
    stop = start + seconds
    pages = iter(wl.sequence)
    try:
        for k, group in enumerate(wl.wire_groups):
            if time.perf_counter() >= stop:
                break
            began_cycle = time.perf_counter()
            for key in itertools.islice(pages, READS_PER_WRITE):
                began = time.perf_counter()
                values, stamp = await reader.range_sum_many(
                    wl.lows[key], wl.highs[key]
                )
                read_lat.append(time.perf_counter() - began)
                reads.append((int(key), values, stamp, k))
            began = time.perf_counter()
            seqs.append(await writer.submit_batch(group))
            await writer.flush(timeout=FLUSH_TIMEOUT_S)
            done = time.perf_counter()
            write_lat.append(done - began)
            cycles.append(done - began_cycle)
        else:
            raise BenchError(f"{wl.name}: page pool exhausted before the clock")
    except ReproError:
        errors += 1
    await reader.close()
    await writer.close()
    return {
        "reads": reads, "read_lat": read_lat, "write_lat": write_lat,
        "cycles": cycles, "seqs": seqs, "errors": errors,
    }


def run_phase(host: HostProcess, wl: Workload, seconds: float, trace: bool,
              setups: int) -> Dict:
    """``setups`` timed set-ups (all but the last torn down), then the
    timed phase on the last one; returns raw samples plus the host's
    report."""
    return asyncio.run(_phase(host, wl, seconds, trace, setups))


async def _phase(host, wl, seconds, trace, setups) -> Dict:
    setup_times = []
    for i in range(setups):
        took, opened, clients, warm = await _setup(
            host, wl, trace, keep=i == setups - 1
        )
        setup_times.append(took)
    phase = await _drive(wl, clients, seconds)
    spans_path = os.path.join(work_dir(), f"spans-{wl.name}-host.jsonl")
    phase["report"] = host.call("report", spans=spans_path)
    phase["spans_path"] = spans_path
    host.call("close")
    phase["setup_times"] = setup_times
    phase["opened"] = opened
    phase["warm"] = warm
    return phase


def verify(wl: Workload, phase: Dict) -> Dict[str, int]:
    """Check every read at its stamp and every write's ack; returns the
    op and failure counts."""
    from oracle import StampOracle

    opened = phase["opened"]
    oracle = StampOracle(wl.base, opened["bounds"], opened["epoch"])
    sent = len(phase["seqs"])
    for cells, deltas in wl.groups[:sent]:
        oracle.add_group(cells, deltas)
    failed = phase["errors"]
    acks = phase["report"]["acks"]
    for k in range(sent):
        expected = oracle.expected_ack(k + 1)
        got = acks[k] if k < len(acks) else {}
        ok = ({int(s): v for s, v in got.items()} == expected
              and phase["seqs"][k] == max(expected.values()))
        failed += 0 if ok else 1
    wrong_reads = 0
    for key, values, stamp, floor in phase["warm"] + phase["reads"]:
        if oracle.wrong_boxes(wl.lows[key], wl.highs[key], values, stamp,
                              oracle.floor(floor)):
            wrong_reads += 1
    failed += wrong_reads
    attempted = len(phase["warm"]) + len(phase["reads"]) + sent + phase["errors"]
    return {"attempted": attempted, "failed": failed, "wrong_reads": wrong_reads}


def end_to_end(phase: Dict) -> Dict[str, float]:
    read_ms = [s * 1e3 for s in phase["read_lat"]]
    write_ms = [s * 1e3 for s in phase["write_lat"]]
    boxes = READS_PER_WRITE * BOXES
    return {
        "read_p50_ms": median(read_ms),
        "throughput_per_s": median([boxes / s for s in phase["cycles"]]),
        "write_p50_ms": median(write_ms),
        "peak_rss_mb": phase["report"]["peak_rss_mb"],
        "setup_s": median(phase["setup_times"]),
    }


def extras(phase: Dict) -> Dict[str, object]:
    """Figures printed next to the metrics (not gated)."""
    write_ms = [s * 1e3 for s in phase["write_lat"]]
    read_ms = [s * 1e3 for s in phase["read_lat"]]
    return {
        "reads": len(read_ms),
        "read_p90_ms": tail_note(read_ms, 90),
        "read_p95_ms": tail_note(read_ms, 95),
        "read_p99_ms": tail_note(read_ms, 99),
        "writes": len(write_ms),
        "write_visible_p95_ms": tail_note(write_ms, 95),
        "setup_s_each": [round(s, 4) for s in phase["setup_times"]],
    }


# -- the layer ladder --------------------------------------------------------


def run_ladder(seed: int) -> Dict[str, float]:
    """Median call time of one page sequence at each public boundary,
    with no writes, at 4 and at 64 (the adhoc shape) boxes per call."""
    cube_path = os.path.join(work_dir(), "ladder-cube.npy")
    np.save(cube_path, inputs.base_cube(seed, np.int64))
    page_sets = {}
    for stream, boxes in ((6, 4), (7, 64)):
        lows, highs = inputs.unaligned_pages(seed, stream, LADDER_PAGES, boxes)
        page_sets[str(boxes)] = np.stack([lows, highs])
    pages_path = os.path.join(work_dir(), "ladder-pages.npz")
    np.savez(pages_path, **page_sets)
    with HostProcess() as host:
        reply = host.call(
            "ladder", dir=work_dir("ladder-stack"), cube=cube_path,
            pages=pages_path, repeats=LADDER_REPEATS,
        )
        rungs = dict(reply["rungs"])
        for name, port in (("net_service", reply["service_port"]),
                           ("net_cluster", reply["cluster_port"])):
            for boxes, page_set in page_sets.items():
                rungs[f"{name}_{boxes}"] = asyncio.run(
                    _ladder_client(port, page_set)
                )
        host.call("close")
    return {
        f"ladder.{name}_ms": median(times) * 1e3 for name, times in rungs.items()
    }


async def _ladder_client(port: int, page_set: np.ndarray) -> List[float]:
    client = await CubeClient.connect(HOST, port)
    pages = [(lo.tolist(), hi.tolist()) for lo, hi in zip(page_set[0], page_set[1])]
    times = []
    try:
        for _ in range(LADDER_REPEATS):
            for lows, highs in pages:
                start = time.perf_counter()
                await client.range_sum_many(lows, highs)
                times.append(time.perf_counter() - start)
    finally:
        await client.close()
    return times
