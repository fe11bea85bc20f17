"""Every checked-in BENCH_<n>.json holds, for each workload of
BENCHMARK.json, the parent and change records of perfbench/run.py --trace 0
runs, each with its seed, every end-to-end metric and correct: true."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_holds_both_sides_of_every_workload(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(record["workloads"]) == workloads
    for workload, pairs in record["workloads"].items():
        assert pairs
        for pair in pairs:
            for side in ("parent", "change"):
                run = pair[side]
                assert run["workload"] == workload and run["trace"] == 0
                assert run["seed"] == pair["seed"]
                assert run["correct"] is True and run["failed"] == 0
                assert metrics <= set(run["metrics"])
                assert all(isinstance(run["metrics"][m]["value"], float)
                           for m in metrics)
