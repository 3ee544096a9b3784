"""Smoke tests of the benchmark itself: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import exact  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(trace: bool) -> list[str]:
    return [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_tiny_size(workload, trace):
    result = bench.measure(workload, seed=1, seconds=0.2, trace=trace, tiny=True, setup_runs=1)
    assert result["correct"], result["notes"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for name in _declared(trace):
        value = result["metrics"][name]
        assert isinstance(value, (int, float)) and math.isfinite(value), name


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "op",
    [
        workloads.timed_ops("fine-gaussian", 0, tiny=True)[0],
        workloads.timed_ops("readme-sweep", 2, tiny=True)[0],
        *workloads.audit_cases(),
    ],
    ids=lambda op: op.name,
)
def test_replay_equals_run_compute(op):
    tracer = tracing.Tracer()
    replayed = tracing.replay(op, tracer)
    answer = workloads.execute(op)
    assert replayed == answer
    assert tracer.spans and tracer.spans[0].parent is None


def test_traced_run_fails_loudly_on_a_silent_module():
    tracer = tracing.Tracer()
    with tracer.op("empty"):
        pass
    with pytest.raises(RuntimeError, match="no span"):
        tracing.layer_metrics(tracer)


def test_tail_latency_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    assert bench.tail_latency(samples) == (89.0, 90)
    assert bench.tail_latency(samples[:15]) == (7.0, 50)
    assert bench.tail_latency(samples[:40]) == (29.0, 75)
    assert bench.tail_latency([float(i) for i in range(1000)]) == (899.0, 90)


def test_exact_references():
    assert exact.gaussian_epsilon(2.0, 100, 1e-6) == pytest.approx(35.566344, abs=1e-6)
    # past exp overflow in linear space
    assert exact.gaussian_epsilon(1.0, 1000, 1e-5) == pytest.approx(633.93, abs=0.01)
    e = math.e
    assert exact.rr_delta(0.5, 1.0, 1) == pytest.approx((e - math.exp(0.5)) / (1 + e), rel=1e-12)
    assert exact.rr_epsilon(1.0, 1, 1e-9) == pytest.approx(1.0, abs=1e-8)


def _last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_cli_last_line_is_the_summary():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bracket-audit",
         "--seed", "0", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    summary = _last_json_line(out.stdout)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert list(summary["metrics"]) == _declared(False)
    for name, entry in summary["metrics"].items():
        assert set(entry) == {"value", "unit"}, name
        assert entry["value"] != 0, name


def test_cli_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fine-gaussian",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
