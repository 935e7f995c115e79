"""The hand-made BENCH_*.json records at the repository root agree with
themselves: each carries the fields every record has, and where a metric
lists its paired runs, its pair count, medians and wins follow from them."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("label", "what", "parent", "harness", "environment", "claim", "workloads")
# each end-to-end metric's direction, from BENCHMARK.json
BETTER = {
    m["name"]: m["better"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_agrees_with_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert [f for f in FIELDS if f not in record] == []
    for workload in record["workloads"]:
        for name, metric in workload["metrics"].items():
            where = (workload["workload"], workload["seed"], name)
            if "runs" not in metric:
                continue
            runs = metric["runs"]
            assert len(runs) == workload["pairs"], where
            # runs are stored to 4 decimals, medians to 4 as well
            for side, values in (("parent", [p for p, _ in runs]), ("change", [c for _, c in runs])):
                assert abs(metric[side]["median"] - statistics.median(values)) <= 1e-4, (where, side)
            sign = 1 if BETTER[name] == "higher" else -1
            strict = sum(sign * (c - p) > 0 for p, c in runs)
            tied = sum(c == p for p, c in runs)
            assert strict <= metric["change_wins"] <= strict + tied, where
