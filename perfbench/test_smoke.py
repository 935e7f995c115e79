"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import pytest

import run
from workloads import BUILDERS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_metric_is_emitted_with_its_unit(name, trace, capsys):
    result = run.run_workload(BUILDERS[name](tiny=True), seed=3, seconds=0, trace=trace, tiny=True)
    capsys.readouterr()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], numbers.Real)
    if trace:  # every workload ingests over a window that cuts off records
        assert result["metrics"]["ingest.rejected"]["value"] > 0


def _corrupting(target: str, only_repeat: int | None):
    """run_command that damages `target`'s artifact after the command ran."""
    real = run.run_command
    seen = {"n": 0}

    def wrapped(command, work, seed):
        result = real(command, work, seed)
        if command.name == target:
            seen["n"] += 1
            if only_repeat is None or seen["n"] == only_repeat:
                path = work / command.artifact
                header, *rows = path.read_text().splitlines()
                # overwrite the second field of every row (the value of a
                # sweep table), keeping the shape of the file
                rows = [",".join([r.split(",")[0], "0.123", *r.split(",")[2:]]) for r in rows]
                path.write_text("\n".join([header, *rows]) + "\n")
                result.digest = run.digest(path)
        return result

    return wrapped


@pytest.mark.parametrize(
    "target, only_repeat",
    [("tcc", None), ("rank", 2)],
    ids=["oracle_mismatch", "repeats_differ"],
)
def test_corrupted_artifact_fails_the_run(target, only_repeat, monkeypatch, capsys):
    monkeypatch.setattr(run, "run_command", _corrupting(target, only_repeat))
    wl = BUILDERS["ref-sweep"](tiny=True)
    result = run.run_workload(wl, seed=3, seconds=0, trace=False, tiny=True)
    out = capsys.readouterr().out
    assert not result["correct"]
    assert result["failed"] >= 2  # every repeat of the damaged command
    assert f"fail_ratio {result['failed'] / result['attempted']:.6g}" in out
    assert result["failed"] / result["attempted"] > 0
