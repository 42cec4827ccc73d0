"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest zionbench -q

Every workload runs at a tiny scale, untraced and traced; the declared
metric lists are checked against ``BENCHMARK.json`` and its limits.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.machine import Machine  # noqa: E402
from zionbench import run as bench  # noqa: E402
from zionbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    percentile,
    tail_percentile,
)
from zionbench.workloads import WORKLOADS  # noqa: E402

#: Per-workload scale small enough for a smoke run that still reaches
#: every mechanism the workload's checks demand.
SMOKE_SCALE = {"mem_balloon": 0.1, "kv_virtio": 0.05, "kv_cluster": 0.05, "fleet": 0.05}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_bench(capsys, workload: str, trace: int, seed: int = 3):
    code = bench.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--scale", str(SMOKE_SCALE[workload]),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def assert_metrics(result: dict, declared: list) -> None:
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(capsys, workload):
    code, lines, result = run_bench(capsys, workload, trace=0)
    assert code == 0, "\n".join(lines)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_metrics(result, DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(capsys, workload):
    code, lines, result = run_bench(capsys, workload, trace=1)
    assert code == 0, "\n".join(lines)
    assert result["correct"]
    assert_metrics(result, DECLARED["per_layer"])
    metrics = result["metrics"]
    # Every episode runs guest code through the machine layer.
    assert metrics["machine.self_s"]["value"] > 0
    assert metrics["cycles.self_s"]["value"] > 0
    # The wrappers are gone once the traced episode ends.
    assert not hasattr(Machine.run_seq, "__wrapped__")


def test_traced_layers_match_their_workloads(capsys):
    _, _, balloon = run_bench(capsys, "mem_balloon", trace=1)
    _, _, cluster = run_bench(capsys, "kv_cluster", trace=1)
    value = lambda result, name: result["metrics"][name]["value"]  # noqa: E731
    assert value(balloon, "sm.faults.stage2") > 0
    assert value(balloon, "sm.faults.stage3") > 0
    assert value(balloon, "mem.tracecache.hit_ratio") == 0
    assert value(cluster, "ipc.messages") > 0
    assert value(cluster, "ipc.self_s") > 0


def test_declarations_match_benchmark_json_and_its_limits():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == list(PER_LAYER)
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_percentiles_and_tail_choice():
    samples = list(range(1, 101))
    assert percentile(samples, 50.0) == 50
    assert percentile(samples, 99.0) == 99
    assert tail_percentile(1000) == 99.0   # 10 samples beyond p99
    assert tail_percentile(999) == 95.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(5) == 50.0


def test_a_failed_output_check_fails_the_run(capsys, monkeypatch):
    cls = WORKLOADS["kv_virtio"]
    original = cls.check

    def broken_check(self):
        self.fail("corrupted reply", 2)
        return original(self)

    monkeypatch.setattr(cls, "check", broken_check)
    code, _lines, result = run_bench(capsys, "kv_virtio", trace=0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 2


def test_diverging_episodes_fail_the_determinism_check():
    cls = WORKLOADS["kv_virtio"]
    scale = SMOKE_SCALE["kv_virtio"]
    first = bench.run_episode(cls, 5, scale)
    second = bench.run_episode(cls, 5, scale)
    assert bench.determinism_problems([first, second]) == []
    second.fingerprint["sim_cycles"] += 1
    assert bench.determinism_problems([first, second])


def test_without_the_simulator_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "zionbench", tmp_path / "zionbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "zionbench/run.py", "--workload", "kv_virtio",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
