"""The process that hosts the system under test for the net workloads.

``run.py`` starts this script as a child (``python perfbench/host.py``)
so the load generator's Python never holds the server's interpreter
lock. The two talk over the child's stdin/stdout, one JSON object per
line and one reply per request:

``open``    build the adhoc stack (router over a 2-shard cluster) in a
            fresh directory and start a ``CubeServer`` on it; replies
            with the port
``mark``    start of the timed phase: snapshot counters, drop spans
``report``  counters since ``mark``, acks, peak RSS; spans to a file
``close``   stop the server, close router and backend
``ladder``  build the no-write layer ladder, time its in-process
            rungs and serve its net rungs; ``close`` ends it
``exit``    leave

Every stack is durable (WAL on, ``fsync=True``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import peak_rss_mb, use_repo_src  # noqa: E402

use_repo_src()

import numpy as np  # noqa: E402

from repro.cluster import CubeCluster  # noqa: E402
from repro.core.rps import RelativePrefixSumCube  # noqa: E402
from repro.net import CubeServer  # noqa: E402
from repro.routing import QueryRouter  # noqa: E402
from repro.serve import CubeService, DurabilityPolicy  # noqa: E402

from inputs import BOX_SIZE  # noqa: E402
from spans import NullRecorder, SpanRecorder  # noqa: E402
from timing import CLUSTER_OPS, SERVICE_OPS, Timed, TracedRouter, timed_method  # noqa: E402

SHARDS = 2
METHOD_KWARGS = {"box_size": BOX_SIZE}
SERVICE_COUNTERS = (
    "groups_submitted", "updates_submitted", "batches_applied", "swaps",
    "wal_fsyncs", "wal_bytes", "checkpoints_written", "groups_applied",
)


def open_service(method_cls, cube, directory):
    return CubeService(
        method_cls, cube, method_kwargs=METHOD_KWARGS,
        durability=DurabilityPolicy(dir=directory, fsync=True),
    )


def open_cluster(method_cls, cube, directory):
    return CubeCluster(
        method_cls, cube, data_dir=directory, num_shards=SHARDS,
        replication_factor=1, method_kwargs=METHOD_KWARGS, fsync=True,
    )


class Host:
    def __init__(self) -> None:
        self.stack = None
        self.ladder = None

    # -- workload stacks -----------------------------------------------------

    def open(self, directory, cube_path, trace):
        if self.stack is not None:
            raise RuntimeError("a stack is already open")
        recorder = SpanRecorder() if trace else NullRecorder()
        method_cls = (
            timed_method(RelativePrefixSumCube, recorder)
            if trace else RelativePrefixSumCube
        )
        cube = np.load(cube_path)
        shutil.rmtree(directory, ignore_errors=True)
        backend = open_cluster(method_cls, cube, directory)
        services = [node.service for node in backend.nodes()]
        if trace:
            for node in backend.nodes():
                node.service = Timed(node.service, recorder, "serve", SERVICE_OPS)
        routed = Timed(backend, recorder, "cluster", CLUSTER_OPS) if trace else backend
        bounds = [list(b) for b in backend.shardmap.bounds]
        router = TracedRouter(routed, recorder)
        server = CubeServer(router)
        _, port = server.start_background()
        self.stack = {
            "backend": backend, "services": services, "router": router,
            "server": server, "recorder": recorder,
            "directory": directory,
        }
        return {"port": port, "bounds": bounds, "epoch": backend.shardmap.epoch}

    def _counters(self):
        stack = self.stack
        serve = {name: 0 for name in SERVICE_COUNTERS}
        for service in stack["services"]:
            stats = service.stats()
            for name in SERVICE_COUNTERS:
                serve[name] += stats[name]
        router = stack["router"].metrics.snapshot()
        return {
            "serve": serve,
            "router": {
                k: v for k, v in router.items() if isinstance(v, (int, float))
            },
            "net": {
                k: v for k, v in stack["server"].metrics.snapshot().items()
                if isinstance(v, (int, float))
            },
        }

    def mark(self):
        self.stack["marked"] = self._counters()
        if isinstance(self.stack["recorder"], SpanRecorder):
            self.stack["recorder"].clear()
        self.stack["router"].acks.clear()
        return {}

    def report(self, spans_path):
        stack = self.stack
        now = self._counters()
        before = stack["marked"]
        deltas = {
            part: {k: now[part][k] - before[part].get(k, 0) for k in now[part]}
            for part in now
        }
        recorder = stack["recorder"]
        counts = {}
        if isinstance(recorder, SpanRecorder):
            recorder.dump(spans_path)
            counts = dict(recorder.counts)
        return {
            "deltas": deltas, "counts": counts, "acks": stack["router"].acks,
            "peak_rss_mb": peak_rss_mb(),
        }

    def close(self):
        if self.ladder is not None:
            return self._close_ladder()
        stack, self.stack = self.stack, None
        if stack is None:
            return {}
        stack["server"].stop_background()
        stack["router"].close()
        stack["backend"].close()
        shutil.rmtree(stack["directory"], ignore_errors=True)
        return {}

    # -- the layer ladder ----------------------------------------------------

    def ladder_open(self, directory, cube_path, pages_path, repeats):
        """Time one page sequence through each in-process boundary, then
        serve it for the net rungs. No writes: pure read cost per layer."""
        cube = np.load(cube_path)
        pages = np.load(pages_path)
        shutil.rmtree(directory, ignore_errors=True)
        kernel = RelativePrefixSumCube(cube, **METHOD_KWARGS)
        service = open_service(RelativePrefixSumCube, cube, os.path.join(directory, "svc"))
        cluster = open_cluster(RelativePrefixSumCube, cube, os.path.join(directory, "cl"))
        router = QueryRouter(service, enable_rollup=False)
        rungs = {}
        for key in pages.files:
            page_set = pages[key]  # (2, pages, boxes, 2)
            lows, highs = page_set[0], page_set[1]

            def timed(call):
                times = []
                for _ in range(repeats):
                    for lo, hi in zip(lows, highs):
                        start = time.perf_counter()
                        call(lo, hi)
                        times.append(time.perf_counter() - start)
                return times

            rungs[f"core_{key}"] = timed(kernel.range_sum_many)
            rungs[f"service_{key}"] = timed(service.query_many)
            # the first pass over fresh boxes misses; the same pages
            # again hit the whole-batch memo
            router.purge()
            rungs[f"router_miss_{key}"] = timed(router.route_many)[:len(lows)]
            rungs[f"router_hit_{key}"] = timed(router.route_many)
            rungs[f"cluster_{key}"] = timed(cluster.range_sum_many)
        servers = [CubeServer(service), CubeServer(cluster)]
        ports = [server.start_background()[1] for server in servers]
        self.ladder = {
            "servers": servers, "closers": [router, service, cluster],
            "directory": directory,
        }
        return {"rungs": rungs, "service_port": ports[0], "cluster_port": ports[1]}

    def _close_ladder(self):
        ladder, self.ladder = self.ladder, None
        for server in ladder["servers"]:
            server.stop_background()
        for closer in ladder["closers"]:
            closer.close()
        shutil.rmtree(ladder["directory"], ignore_errors=True)
        return {}


def main() -> int:
    host = Host()
    handlers = {
        "open": lambda c: host.open(c["dir"], c["cube"], c["trace"]),
        "mark": lambda c: host.mark(),
        "report": lambda c: host.report(c["spans"]),
        "close": lambda c: host.close(),
        "ladder": lambda c: host.ladder_open(c["dir"], c["cube"], c["pages"], c["repeats"]),
    }
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "exit":
            host.close()
            break
        try:
            reply = handlers[request["cmd"]](request)
        except Exception as error:  # noqa: BLE001 - reported to the parent
            reply = {"error": f"{type(error).__name__}: {error}",
                     "traceback": traceback.format_exc()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
