"""Per-layer metrics of a traced phase, from its spans and counters.

Self time is what a layer spends outside the layers below it: the span
at its boundary minus the spans of the calls it made downwards. Layers
a workload does not pass through report 0 (no work was done there).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from common import median
from spans import Span, adopt_by_containment, self_times


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """Spans of one phase with their self times, queried by layer/op."""

    def __init__(self, spans: Iterable[Span]) -> None:
        # shard reads hop to the cluster's executor: adopt them by time
        self.spans = adopt_by_containment(spans, "cluster", "serve", "read")
        self.self_s = self_times(self.spans)

    def of(self, layer: str, op: str) -> List[Span]:
        return [s for s in self.spans if s.layer == layer and s.op == op]

    def dur_ms(self, layer: str, op: str) -> List[float]:
        return [s.seconds * 1e3 for s in self.of(layer, op)]

    def self_ms(self, layer: str, op: str) -> List[float]:
        return [self.self_s[s.id] * 1e3 for s in self.of(layer, op)]

    def p50(self, values: List[float]) -> float:
        return median(values) if values else 0.0

    def total_s(self, layer: str, op: str) -> float:
        return sum(s.seconds for s in self.of(layer, op))

    def under(self, layer: str, op: str, root: Span) -> List[Span]:
        """Spans of ``layer``/``op`` that descend from a span like
        ``root`` (same layer and op)."""
        by_id = {s.id: s for s in self.spans}

        def descends(span: Span) -> bool:
            while span.parent:
                span = by_id.get(span.parent)
                if span is None:
                    return False
                if span.layer == root.layer and span.op == root.op:
                    return True
            return False

        return [s for s in self.of(layer, op) if descends(s)]


def serve_core(spans: Spans, counts: Dict, serve: Dict) -> Dict[str, float]:
    """``repro.serve`` and ``repro.core`` metrics; ``serve`` holds the
    summed counter deltas of every durable service in the phase."""
    groups = serve["groups_submitted"]
    cells = serve["updates_submitted"]
    applied = counts.get("core.cells_applied", 0)
    boxes = counts.get("core.boxes", 0)
    return {
        "serve.read_self_ms_p50": spans.p50(spans.self_ms("serve", "read")),
        "serve.submit_ms_p50": spans.p50(spans.dur_ms("serve", "submit")),
        "serve.flush_wait_ms_p50": spans.p50(spans.dur_ms("serve", "flush")),
        "serve.wal_fsyncs_per_group": _ratio(serve["wal_fsyncs"], groups),
        "serve.wal_bytes_per_cell": _ratio(serve["wal_bytes"], cells),
        "serve.groups_per_apply": _ratio(
            serve["groups_applied"], serve["batches_applied"]
        ),
        "serve.swaps": serve["swaps"],
        "serve.checkpoints_written": serve["checkpoints_written"],
        "core.read_ms_per_box": _ratio(spans.total_s("core", "read") * 1e3, boxes),
        "core.cells_read_per_box": _ratio(counts.get("core.cells_read", 0), boxes),
        "core.apply_ms_per_cell": _ratio(
            spans.total_s("core", "apply") * 1e3, applied
        ),
        "core.apply_cells_per_submitted_cell": _ratio(applied, cells),
        "core.cells_written_per_update": _ratio(
            counts.get("core.cells_written", 0), applied
        ),
    }


def net_routing_cluster(
    spans: Spans, client_read_ms: List[float], net: Dict, router: Dict,
    boxes_read: int,
) -> Dict[str, float]:
    """``repro.net``, ``repro.routing`` and ``repro.cluster`` metrics of
    a net workload (counter dicts are deltas over the timed phase)."""
    routed_ms = spans.dur_ms("routing", "read")
    served = (
        router["cache_hits"] + router["batch_hits"] + router["rollup_hits"]
        + router["backend_queries"]
    )
    cluster_reads = spans.of("cluster", "read")
    cluster_ids = {c.id for c in cluster_reads}
    shard_reads = [s for s in spans.of("serve", "read") if s.parent in cluster_ids]
    return {
        "net.self_ms_p50": median(client_read_ms) - spans.p50(routed_ms),
        "net.bytes_per_box": _ratio(net["bytes_in"] + net["bytes_out"], boxes_read),
        "net.refused": (
            net["overload_rejects"] + net["quota_rejects"]
            + net["auth_rejects"] + net["deadline_rejects"]
        ),
        "routing.self_ms_p50": spans.p50(spans.self_ms("routing", "read")),
        "routing.cache_hit_ratio": _ratio(
            router["cache_hits"] + router["batch_hits"], served
        ),
        "routing.rollup_hit_ratio": _ratio(router["rollup_hits"], served),
        "routing.rollup_builds": router["rollup_builds"],
        "routing.stale_rejects": (
            router["cache_stale_rejects"] + router["batch_stale_rejects"]
            + router["rollup_stale_rejects"]
        ),
        "cluster.read_self_ms_p50": spans.p50(spans.self_ms("cluster", "read")),
        "cluster.shard_calls_per_read": _ratio(len(shard_reads), len(cluster_reads)),
        "cluster.write_self_ms_p50": spans.p50(spans.self_ms("cluster", "submit")),
    }


def read_path(spans: Spans, layer_metrics: Dict[str, float],
              traced_read_ms: List[float]) -> Dict[str, float]:
    """Sum of the median self times along the reader's path (rollup
    builds excluded), next to the traced read p50 it should account
    for."""
    routed = spans.of("routing", "read")
    root = routed[0] if routed else None

    def p50_self(layer: str) -> float:
        if root is None:
            return 0.0
        return spans.p50([spans.self_s[s.id] * 1e3
                          for s in spans.under(layer, "read", root)])

    parts = [
        layer_metrics["net.self_ms_p50"],
        layer_metrics["routing.self_ms_p50"],
        p50_self("cluster"),
        p50_self("serve"),
        p50_self("core"),
    ]
    return {
        "path.read_self_sum_ms": sum(parts),
        "path.read_p50_ms": median(traced_read_ms),
    }


def ingest(spans: Spans, report: Dict) -> Dict[str, float]:
    """``repro.ingest`` metrics of the firehose (``report`` is the
    pipeline's own report)."""
    krows = report["rows_read"] / 1000.0
    run = spans.of("ingest", "run")
    targets = spans.dur_ms("ingest", "target")
    return {
        "ingest.source_ms_per_krow": _ratio(
            spans.total_s("ingest", "source") * 1e3, krows
        ),
        "ingest.self_ms_per_krow": _ratio(
            sum(spans.self_s[s.id] for s in run) * 1e3, krows
        ),
        "ingest.target_ms_per_group": _ratio(sum(targets), len(targets)),
        "ingest.rows_per_cell": _ratio(
            report["rows_applied"], report["cells_submitted"]
        ),
        "ingest.overload_retries": report["overload_backoffs"],
        "ingest.quarantined_rows": report["rows_quarantined"],
    }


def complete(metrics: Dict[str, float], names: Iterable[str],
             overhead: Optional[float]) -> Dict[str, float]:
    """Every declared per-layer metric, 0 for layers not passed through."""
    out = {name: 0.0 for name in names}
    out.update(metrics)
    out["trace.overhead_frac"] = overhead if overhead is not None else 0.0
    unknown = set(out) - set(names)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return out
