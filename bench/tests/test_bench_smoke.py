"""Smoke tests of the benchmark harness. They carry no timing bounds.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    record = json.loads((ROOT / ".bench_runs" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["env"]["seed"] == 3 and record["env"]["nproc"] >= 1
    if trace:
        # Layer self times plus the unattributed remainder make up the wall.
        t = record["trace"]
        total = sum(t["layer_self_s"].values()) + t["unattributed_s"]
        assert total == pytest.approx(t["traced_wall_s"], rel=1e-9)
        assert t["unattributed_s"] >= 0.0


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_the_library_and_splits_self_time():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import numpy as np
        from mgdpr import tensor
        from mgdpr.tensor import Tensor
        import tracing
    finally:
        del sys.path[:2]

    original = tensor.matmul
    tracer = tracing.Tracer()
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    with tracer.active():
        assert tensor.matmul is not original
        loss = tensor.sum_all(tensor.matmul(a, Tensor(np.ones((4, 2)))))
        tensor.backward(loss)
    assert tensor.matmul is original
    summary = tracer.summary()
    assert summary.calls("tensor.matmul") == 1 and summary.calls("tensor.backward") == 1
    assert tracer.counters["tensor.matmul_flop"] == 2 * 3 * 4 * 2
    layer_total = sum(summary.layer_self(layer) for layer in tracing.LAYERS)
    assert layer_total == pytest.approx(summary.root_s, rel=1e-12)
