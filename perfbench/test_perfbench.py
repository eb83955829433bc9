"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "catalogue": {"ids": ["EX1", "PROP2"], "context": {"corpus_count": 8, "zigzag_count": 2}},
    "pointwise": {"systems": 12, "max_traces": 6, "max_prefix": 2, "max_cycle": 3},
    "seeded": {
        "ids": ["EX1", "EX3", "THM2", "PROP-DISJ", "PROP-PSP-SIF"],
        "context": {"corpus_count": 8, "zigzag_count": 2, "case_count": 10, "psp_cap": 200, "async_count": 10},
    },
}

_results: dict = {}


def tiny_run(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _results:
        _results[key] = run.run_benchmark(workload, seed=5, seconds=0, trace=trace, sizes=TINY[workload])
    return _results[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == wanted
    for name, (value, _) in result["metrics"].items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        if trace == 0:
            assert value > 0, name
    assert result["attempted"] > 0
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_reach_the_same_verdicts(workload):
    digests = tiny_run(workload, 1)["digests"]
    assert digests["traced"] and digests["untraced"]
    assert set(digests["traced"]) == set(digests["untraced"])


def test_sweep_counter_separates_the_workloads():
    assert tiny_run("catalogue", 1)["metrics"]["enumeration.sweeps"][0] > 0
    assert tiny_run("pointwise", 1)["metrics"]["enumeration.sweeps"][0] == 0
    assert tiny_run("seeded", 1)["metrics"]["enumeration.sweeps"][0] == 0


def _sep_flipped(check_property):
    from siflab import PropertyKind

    def wrong(kind, s):
        verdict = check_property(kind, s)
        return not verdict if PropertyKind(kind) is PropertyKind.SEP else verdict

    return wrong


@pytest.mark.parametrize("workload, module", [("pointwise", "workloads"), ("catalogue", "siflab.verify")])
def test_a_wrong_decider_raises_the_failed_share(monkeypatch, workload, module):
    run._import_library()
    target = importlib.import_module(module)
    monkeypatch.setattr(target, "check_property", _sep_flipped(target.check_property))
    result = run.run_benchmark(workload, seed=5, seconds=0, trace=0, sizes=TINY[workload])
    assert result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bench = tmp_path / HERE.name
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
