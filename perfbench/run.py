"""The repository's benchmark: one workload, every answer verified.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

``adhoc``      net -> router -> durable 2-shard CubeCluster. One
               closed-loop reader sends 64 fresh unaligned boxes per
               page; after every 24 reads a writer submits one 64-cell
               group and flushes.
``firehose``   IngestPipeline from a ColumnarSource into a durable
               float64 CubeService, with an open-loop 4-box probe read
               every 20 ms.

With ``--trace 0`` the run measures with tracing off and prints the
end-to-end metrics. With ``--trace 1`` it runs the workload twice —
untraced, then traced — and prints the per-layer metrics, the layer
ladder (``adhoc``, whose reads cross net, router and cluster) and the
tracing overhead. Either way every read is checked at
its stamp and every write against a numpy oracle after the clock
stops; a mismatch prints ``"correct": false`` and exits 1. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    BenchError, contention, filesystem_of, host_counters, use_repo_src, work_dir,
)

WORKLOADS = ("adhoc", "firehose")


def declared(path: str = "BENCHMARK.json"):
    if not os.path.isfile(path):
        raise BenchError(f"no {path} in {os.getcwd()!r}")
    with open(path) as handle:
        bench = json.load(handle)
    return bench["end_to_end"], bench["per_layer"]


def run_adhoc(seed: int, seconds: float, trace: bool, layer_names):
    import netload
    from layers import Spans, complete, net_routing_cluster, read_path, serve_core
    from spans import load

    wl = netload.Workload(seed)
    checks = []
    with netload.HostProcess() as host:
        phase = netload.run_phase(
            host, wl, seconds, trace=False,
            setups=1 if trace else netload.SETUPS,
        )
        checks.append(netload.verify(wl, phase))
        e2e = netload.end_to_end(phase)
        extra = netload.extras(phase)
        if trace:
            traced = netload.run_phase(host, wl, seconds, trace=True, setups=1)
            checks.append(netload.verify(wl, traced))
    extra["read_boxes_per_s"] = e2e["throughput_per_s"]
    extra["write_visible_p50_ms"] = e2e["write_p50_ms"]
    if not trace:
        return e2e, extra, checks
    report = traced["report"]
    deltas = report["deltas"]
    spans = Spans(load(traced["spans_path"]))
    read_ms = [s * 1e3 for s in traced["read_lat"]]
    metrics = serve_core(spans, report["counts"], deltas["serve"])
    metrics.update(net_routing_cluster(
        spans, read_ms, deltas["net"], deltas["router"],
        len(traced["reads"]) * netload.BOXES,
    ))
    metrics.update(read_path(spans, metrics, read_ms))
    metrics.update(netload.run_ladder(seed))
    overhead = netload.end_to_end(traced)["read_p50_ms"] / e2e["read_p50_ms"] - 1
    return complete(metrics, layer_names, overhead), extra, checks


def run_firehose(seed: int, seconds: float, trace: bool, layer_names):
    import firehose
    from layers import Spans, complete, ingest, serve_core

    data = firehose.Inputs(seed)
    phase = firehose.run_phase(
        data, seconds, trace=False, setups=1 if trace else firehose.SETUPS
    )
    checks = [firehose.verify(data, phase)]
    e2e = firehose.end_to_end(phase)
    extra = firehose.extras(phase)
    if not trace:
        return e2e, extra, checks
    traced = firehose.run_phase(data, seconds, trace=True, setups=1)
    checks.append(firehose.verify(data, traced))
    recorder = traced["recorder"]
    recorder.dump(os.path.join(work_dir(), "spans-firehose.jsonl"))
    spans = Spans(recorder.spans)
    metrics = serve_core(spans, recorder.counts, traced["serve"])
    metrics.update(ingest(spans, traced["report"]))
    overhead = (
        e2e["throughput_per_s"] / firehose.end_to_end(traced)["throughput_per_s"] - 1
    )
    return complete(metrics, layer_names, overhead), extra, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    host_before = host_counters()
    try:
        end_to_end, per_layer = declared()
        use_repo_src()
        layer_names = [m["name"] for m in per_layer]
        if args.workload == "firehose":
            values, extra, checks = run_firehose(
                args.seed, args.seconds, bool(args.trace), layer_names
            )
        else:
            values, extra, checks = run_adhoc(
                args.seed, args.seconds, bool(args.trace), layer_names
            )
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    table = per_layer if args.trace else end_to_end
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in table
    }
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"data directory filesystem: {filesystem_of(work_dir())}")
    print(f"host contention during the run: "
          f"{contention(host_before, host_counters())}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in extra.items():
        print(f"  ({name}) {value}")
    print(f"  failed_frac {failed / attempted:.6f} "
          f"({failed} of {attempted} ops failed)")
    for check in checks:
        print(f"  check: {check}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
