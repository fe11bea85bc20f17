"""Self-tests of the benchmark: span arithmetic, patch hygiene, repeatability.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import logging
import os
import threading
from dataclasses import replace

import pytest

import layers
import pace
import workloads
from spans import Tracer, aggregate, self_times

from cyldet import cli, codec, evalbench, geometry, kitti, mono, pipeline, synthetic

MODULES = (cli, codec, evalbench, geometry, kitti, mono, pipeline, synthetic)


def span(sid, parent, name, start, end, frame="f0", thread=1):
    return (sid, parent, name, start, end, frame, thread)


# root a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].  A second
# thread's root e [2, 8] overlaps a in time but is not its child.
TREE = [
    span(1, 0, "b", 1.0, 4.0),
    span(3, 2, "d", 6.0, 7.0),
    span(2, 0, "c", 5.0, 9.0),
    span(0, None, "a", 0.0, 10.0),
    span(4, None, "e", 2.0, 8.0, thread=2),
]


def test_self_time_is_duration_minus_children():
    assert self_times(TREE) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 6.0}


def test_aggregate_sums_per_name():
    agg = aggregate(TREE + [span(5, 0, "b", 9.5, 9.75)])
    assert agg["b"] == (2, 3.25, 3.25)
    assert agg["a"] == (1, 10.0, 2.75)


def test_wrapper_nests_per_thread_and_counts_raises():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1,
                        observe=lambda args, result: {"seen": result})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        frame_of=lambda args: f"frame{args[0]}")
    worker = threading.Thread(target=outer, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert outer(1) == 4

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()

    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, name, _, _, frame, thread in tracer.spans:
        if name == "inner":
            assert by_id[parent][2] == "outer"
            assert by_id[parent][6] == thread
            assert frame == by_id[parent][5]
    assert tracer.counts == {"seen": 8, "boom.raised": 1}
    assert {s[5] for s in tracer.spans if s[2] == "outer"} == {"frame1", "frame5"}


def test_pace_scales_by_the_kernel_median_since_a_sample():
    clock = pace.Pace()
    ref = pace.REFERENCE_S
    clock.samples = [1.0, 2 * ref, 4 * ref, 3 * ref]
    assert clock.scale(1) == pytest.approx(1 / 3)
    assert clock.scale(2) == pytest.approx(2 / 7)
    result, took = clock.timed(lambda: "done")
    assert result == "done" and took > 0.0
    assert len(clock.samples) == 4 + 2 * pace.BRACKET


def _namespace_snapshot():
    return {m.__name__: dict(vars(m)) for m in MODULES}


def test_restore_puts_back_every_patched_attribute():
    before = _namespace_snapshot()
    tracer = Tracer()
    layers.install(tracer, 0.25)
    patched = [(m, k) for m in MODULES for k, v in vars(m).items()
               if before[m.__name__].get(k) is not v]
    assert (pipeline, "gather_cylinder") in patched
    assert (evalbench, "iou_3d") in patched
    assert (cli, "oracle_predictors") in patched
    assert len(patched) == len(tracer._patched)
    tracer.restore()
    after = _namespace_snapshot()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        for key, value in namespace.items():
            assert after[name][key] is value, f"{name}.{key} not restored"


def test_installed_counts_drops_by_type_only_while_installed():
    tracer = Tracer()
    logger = logging.getLogger("cyldet.pipeline")

    def drop():
        logger.warning("frame %s proposal obj%d.seed%d dropped: %s: %s",
                       "000001", 0, 3, "EmptyCloud", "empty")

    with layers.installed(tracer, 0.25):
        drop()
        logger.warning("frame %s object %d: %s", "000001", 1, "no pose")
    drop()
    assert tracer.counts == {"pipeline.proposal_drops.EmptyCloud": 1,
                             "log.other_warnings": 1}


TINY = replace(workloads.WORKLOADS["sparse"], frames=10, sweep_frames=2,
               trace_frames=5)


def test_two_traced_runs_agree_on_fingerprint_and_counts():
    runs = [workloads.trace_memory(TINY, 3) for _ in range(2)]
    for run in runs:
        assert run["checks"].ok, run["checks"].results
        assert 0.0 < run["metrics"]["trace.layer_share"][0] < 1.0
    assert runs[0]["fingerprint"] == runs[1]["fingerprint"]
    counts = [{k: v for k, (v, unit) in run["metrics"].items()
               if unit in ("count", "bytes")} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["pipeline.detect_frame.calls"] == TINY.trace_frames


def test_two_untraced_runs_agree(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_SAMPLES", 5)
    runs = [workloads.run_memory(TINY, 3, 0.0) for _ in range(2)]
    for run in runs:
        assert run["checks"].ok, run["checks"].results
        assert run["failed"] == 0
    assert runs[0]["fingerprint"] == runs[1]["fingerprint"]
    assert runs[0]["metrics"]["recall"] == runs[1]["metrics"]["recall"]


def test_benchmark_json_names_the_metrics_the_runs_report():
    root = os.path.dirname(workloads.BENCH_DIR)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    traced = workloads.trace_memory(TINY, 3)["metrics"]
    assert per_layer == {k: unit for k, (_, unit) in traced.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    untraced = workloads.run_memory(TINY, 3, 0.0)["metrics"]
    assert end_to_end == {k: unit for k, (_, unit) in untraced.items()
                          if k not in workloads.REPORT_ONLY}
