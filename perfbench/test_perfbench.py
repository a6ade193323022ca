"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import BenchError, beyond, tail, use_repo_src  # noqa: E402
from oracle import StampOracle  # noqa: E402
from spans import Span, SpanRecorder, adopt_by_containment, self_times  # noqa: E402

BASE = np.arange(16, dtype=np.int64).reshape(4, 4)
WHOLE = (np.array([[0, 0]]), np.array([[3, 3]]))


def _service_oracle():
    oracle = StampOracle(BASE)
    oracle.add_group(np.array([[0, 0]]), np.array([5]))
    oracle.add_group(np.array([[3, 3]]), np.array([-2]))
    return oracle


def _cluster_oracle():
    oracle = StampOracle(BASE, bounds=[(0, 2), (2, 4)], epoch=3)
    oracle.add_group(np.array([[0, 0], [3, 3]]), np.array([5, 7]))
    oracle.add_group(np.array([[3, 0]]), np.array([1]))
    return oracle


class TestOracle:
    def test_service_read_checked_at_its_version(self):
        oracle = _service_oracle()
        total = int(BASE.sum())
        assert oracle.wrong_boxes(*WHOLE, [total], 0) == 0
        assert oracle.wrong_boxes(*WHOLE, [total + 5], 1) == 0
        assert oracle.wrong_boxes(*WHOLE, [total + 3], 2) == 0

    @pytest.mark.parametrize("stamp", [0, 2, 3, -1, "1", 1.0, True, [1, 1]])
    def test_service_rejects_forged_stamp(self, stamp):
        # the value is right for version 1 only; any other stamp is forged
        oracle = _service_oracle()
        assert oracle.wrong_boxes(*WHOLE, [int(BASE.sum()) + 5], stamp) == 1

    def test_cluster_read_checked_per_shard(self):
        oracle = _cluster_oracle()
        total = int(BASE.sum())
        assert oracle.acks == [(1, 1), (1, 2)]
        assert oracle.wrong_boxes(*WHOLE, [total + 5], [3, 1, 0]) == 0
        assert oracle.wrong_boxes(*WHOLE, [total + 12], [3, 1, 1]) == 0
        assert oracle.wrong_boxes(*WHOLE, [total + 13], [3, 1, 2]) == 0

    @pytest.mark.parametrize("stamp", [
        [3, 1, 1],      # right epoch, versions that do not give this value
        [2, 1, 2],      # stale epoch
        [3, 1, 3],      # a version nobody wrote
        [3, 1],         # wrong arity
        3,              # a service stamp
    ])
    def test_cluster_rejects_forged_stamp(self, stamp):
        oracle = _cluster_oracle()
        assert oracle.wrong_boxes(*WHOLE, [int(BASE.sum()) + 13], stamp) == 1

    def test_read_below_flushed_floor_is_wrong(self):
        oracle = _service_oracle()
        value = [int(BASE.sum()) + 5]
        assert oracle.wrong_boxes(*WHOLE, value, 1, oracle.floor(1)) == 0
        assert oracle.wrong_boxes(*WHOLE, value, 1, oracle.floor(2)) == 1

    def test_per_box_stamps(self):
        oracle = _service_oracle()
        lows = np.array([[0, 0], [3, 3]])
        highs = np.array([[0, 0], [3, 3]])
        assert oracle.wrong_boxes(lows, highs, [5, 13], [1, 2]) == 0
        assert oracle.wrong_boxes(lows, highs, [5, 13], [1, 1]) == 1
        assert oracle.wrong_boxes(lows, highs, [5, 13], [1]) == 2

    def test_expected_acks_detect_lost_or_doubled_groups(self):
        oracle = _cluster_oracle()
        assert oracle.expected_ack(1) == {0: 1, 1: 1}
        assert oracle.expected_ack(2) == {1: 2}
        assert _service_oracle().expected_ack(2) == 2


class TestTailRule:
    def test_beyond_counts(self):
        assert beyond(1000, 99) == 10
        assert beyond(999, 99) == 9
        assert beyond(200, 95) == 10
        assert beyond(20, 50) == 10

    def test_tail_needs_ten_samples_beyond(self):
        values = list(range(1000))
        assert tail(values, 99) == pytest.approx(np.percentile(values, 99))
        with pytest.raises(BenchError):
            tail(values[:999], 99)
        with pytest.raises(BenchError):
            tail(list(range(19)), 50)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(1, 0, "a", "op", 0.0, 10.0, 1, 0),
            Span(2, 1, "b", "op", 1.0, 4.0, 1, 0),
            Span(3, 2, "c", "op", 2.0, 3.0, 1, 0),
            Span(4, 1, "b", "op", 5.0, 6.5, 1, 0),
        ]
        assert self_times(spans) == {1: 5.5, 2: 2.0, 3: 1.0, 4: 1.5}

    def test_recorder_nests_within_a_thread_only(self):
        recorder = SpanRecorder()
        seen = {}

        def other():
            with recorder.span("serve", "read"):
                pass

        with recorder.span("cluster", "read"):
            with recorder.span("core", "read"):
                pass
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
        for span in recorder.spans:
            seen[span.layer] = span
        assert seen["core"].parent == seen["cluster"].id
        assert seen["serve"].parent == 0
        adopted = {
            s.layer: s
            for s in adopt_by_containment(recorder.spans, "cluster", "serve", "read")
        }
        assert adopted["serve"].parent == seen["cluster"].id
        selfs = self_times(adopted.values())
        cluster = seen["cluster"]
        assert selfs[cluster.id] == pytest.approx(
            cluster.seconds - seen["core"].seconds - seen["serve"].seconds
        )

    def test_adoption_matches_op_and_containment(self):
        spans = [
            Span(1, 0, "cluster", "read", 0.0, 5.0, 1, 0),
            Span(2, 0, "cluster", "flush", 4.0, 9.0, 2, 0),
            Span(3, 0, "serve", "read", 4.5, 4.8, 3, 0),   # inside read 1
            Span(4, 0, "serve", "read", 6.0, 7.0, 3, 0),   # inside no read
        ]
        parents = {s.id: s.parent for s in adopt_by_containment(
            spans, "cluster", "serve", "read"
        )}
        assert parents[3] == 1
        assert parents[4] == 0


class TestFirehoseGroups:
    def test_rebuilt_groups_match_what_the_pipeline_submitted(self, tmp_path):
        # the firehose oracle rebuilds each acked group from the raw rows;
        # that holds only if the pipeline cuts and coalesces groups so
        use_repo_src()
        import firehose
        import inputs
        from repro.core.rps import RelativePrefixSumCube
        from repro.ingest import ColumnarSource, IngestPipeline, ServiceTarget
        from repro.serve import CubeService
        from spans import NullRecorder
        from timing import RecordingTarget

        columns, _ = inputs.fact_stream(3, 3 * firehose.GROUP_ROWS + 1000)
        submitted = []

        class Keeping(RecordingTarget):
            def submit_fenced(self, pairs, expect, *, timeout=None):
                submitted.append(list(pairs))
                return super().submit_fenced(pairs, expect, timeout=timeout)

        service = CubeService(
            RelativePrefixSumCube, inputs.base_cube(3, np.float64),
            method_kwargs={"box_size": inputs.BOX_SIZE},
        )
        target = Keeping(ServiceTarget(service), NullRecorder())
        pipeline = IngestPipeline(
            ColumnarSource(columns, chunk_rows=firehose.CHUNK_ROWS),
            firehose._schema(), target,
            checkpoint_path=str(tmp_path / "ck.json"),
            deadletter_path=str(tmp_path / "dead.log"),
            group_rows=firehose.GROUP_ROWS,
            min_group_rows=firehose.GROUP_ROWS,
            max_group_rows=firehose.GROUP_ROWS,
        )
        try:
            rows = int(pipeline.run()["rows_read"])
        finally:
            pipeline.close()
            service.close()
        rebuilt = firehose.rebuild_groups(SimpleNamespace(columns=columns), rows)
        assert len(rebuilt) == 4
        assert target.groups == [
            (i + 1, len(cells)) for i, (cells, _) in enumerate(rebuilt)
        ]
        for pairs, (cells, deltas) in zip(submitted, rebuilt):
            assert [cell for cell, _ in pairs] == [tuple(c) for c in cells.tolist()]
            assert np.array_equal([delta for _, delta in pairs], deltas)

    def test_window_rates_cover_full_groups_only(self):
        use_repo_src()
        import firehose

        g, w = firehose.GROUP_ROWS, firehose.WINDOW_GROUPS
        # 2w + 1 full groups acked one second apart, then a partial one:
        # two whole windows; the odd full group and the partial are left out
        phase = {
            "start": 10.0,
            "acked_at": [10.0 + i for i in range(1, 2 * w + 3)],
            "report": {"rows_read": (2 * w + 1) * g + 100},
        }
        assert firehose.window_rates(phase) == [g, g]
        phase["acked_at"][w - 2] += 0.5  # a slow group inside window one
        assert firehose.window_rates(phase) == [g, g]
        phase["acked_at"][w - 1:] = [t + 0.5 for t in phase["acked_at"][w - 1:]]
        assert firehose.window_rates(phase) == [w * g / (w + 0.5), g]


class TestBenchmarkFile:
    def test_declaration_is_within_the_declared_limits(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in bench["workloads"]]
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert name.match(metric["name"]), metric
            assert unit.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
            names.append(metric["name"])
        assert len(names) == len(set(names))
        assert 2 <= len(bench["workloads"]) <= 8
        assert all(len(w["why"]) <= 200 for w in bench["workloads"])
        assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s"
        assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
