"""Shared helpers: locating the program, sample statistics, the host.

Every benchmark module imports this first. :func:`use_repo_src` puts the
checkout's ``src/`` on ``sys.path`` (the benchmark builds nothing, it
runs the package from source) and fails loudly when there is none.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from typing import Dict, Sequence

#: the benchmark refuses a percentile unless this many samples lie
#: beyond it — a p99 over 300 samples is three samples, not a tail
MIN_BEYOND = 10

WORK_DIR = ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def repo_root() -> str:
    return os.getcwd()


def use_repo_src() -> str:
    """Make ``import repro`` load the checkout's sources."""
    src = os.path.join(repo_root(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchError(
            f"no package sources under {src!r}: run from the repository root"
        )
    if src not in sys.path:
        sys.path.insert(0, src)
    return src


def work_dir(*parts: str) -> str:
    path = os.path.join(repo_root(), WORK_DIR, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise BenchError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless :data:`MIN_BEYOND`
    samples lie beyond it."""
    n = beyond(len(values), q)
    if n < MIN_BEYOND:
        raise BenchError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples leave {n}"
        )
    return percentile(values, q)


def tail_note(values: Sequence[float], q: float) -> str:
    """The ``q``-th percentile for the printed table, or why not."""
    n = beyond(len(values), q)
    try:
        return f"{tail(values, q):.4f} ({n} samples beyond)"
    except BenchError:
        return f"n/a ({n} samples beyond p{q:g})"


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and inter-quartile distance as a share of the
    median, computed the way ``statistics.quantiles(n=4)`` does."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else float("inf"),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_counters() -> Dict[str, float]:
    """Cumulative contention counters of this host: CPU steal and total
    jiffies, and the CPU / IO pressure stall totals (microseconds)."""
    out: Dict[str, float] = {}
    try:
        with open("/proc/stat") as handle:
            ticks = [int(v) for v in handle.readline().split()[1:]]
        out["steal"], out["jiffies"] = ticks[7], sum(ticks)
    except (OSError, IndexError, ValueError):
        pass
    for kind in ("cpu", "io"):
        try:
            with open(f"/proc/pressure/{kind}") as handle:
                some = handle.readline().split()
            out[f"{kind}_some_us"] = int(some[-1].split("=")[1])
        except (OSError, IndexError, ValueError):
            pass
    out["wall_s"] = time.time()
    return out


def contention(before: Dict[str, float], after: Dict[str, float]) -> str:
    """What else competed with the run: steal share of CPU time and the
    share of wall time some task stalled on CPU / IO."""
    parts = []
    if "steal" in before and "steal" in after:
        jiffies = after["jiffies"] - before["jiffies"]
        if jiffies:
            parts.append(
                f"cpu steal {(after['steal'] - before['steal']) / jiffies:.1%}"
            )
    wall_us = (after["wall_s"] - before["wall_s"]) * 1e6
    for kind in ("cpu", "io"):
        key = f"{kind}_some_us"
        if key in before and key in after and wall_us:
            parts.append(f"{kind} pressure {(after[key] - before[key]) / wall_us:.1%}")
    return ", ".join(parts) or "unknown"


def filesystem_of(path: str) -> str:
    """``"<fstype> (<mount point>)"`` of the filesystem holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        return "unknown"
    return f"{kind} ({best})"
