"""Smoke test of the benchmark itself, at reduced sizes.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import repro.backend  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import SMALL, WORKLOADS, run_workload  # noqa: E402

SEED = 3
#: metrics of the simulated serving runs and the program's own counts:
#: they must repeat exactly for the same seed
EXACT = ("sim_p50_ms", "sim_p99_ms", "sim_capacity_rps", "serve.batches",
         "serve.batch_mean", "serve.lane_packed_frac",
         "serve.requests_per_exec", "serve.util_max", "pipeline.passes_run",
         "pipeline.passes_changed", "pipeline.ir_stmts",
         "pipeline.rules_applied", "backend.vectorized_loops",
         "runtime.captures", "runtime.prices", "serve.batching.digests",
         "serve.cache.misses", "obs.spans", "obs.metric_series",
         "trace_bytes_per_req")


def small_run(name, trace, corrupt=False):
    return run_workload(name, SEED, 0.01, trace, time.perf_counter(),
                        cfg=SMALL, corrupt=corrupt)


@pytest.fixture(scope="module")
def results():
    return {(name, trace): small_run(name, trace)
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_unit(results, name, trace):
    res = results[(name, trace)]
    want = run.declared(trace)
    lines = run.render(res, want)
    for metric, unit in want.items():
        assert any(line.startswith(f"{metric} = ") and f" {unit} " in line
                   for line in lines), metric
    doc = run.result_json(res, want)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert list(doc["metrics"]) == list(want)
    assert all(m["unit"] == want[k] for k, m in doc["metrics"].items())
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_trace_covers_the_traced_wall_time(results, name):
    metrics = results[(name, True)].metrics
    assert metrics["bench.self_time_coverage"][0] == pytest.approx(1.0,
                                                                   abs=0.02)
    assert "bench.layer_trace_overhead_frac" in metrics


@pytest.mark.parametrize("name", ("serve-coalesced", "serve-tenants"))
def test_simulated_metrics_and_counts_repeat_exactly(results, name):
    again = small_run(name, True)
    first = results[(name, True)]
    compared = 0
    for metric in EXACT:
        if metric in first.metrics:
            assert again.metrics[metric][0] == first.metrics[metric][0], \
                metric
            compared += 1
    assert compared >= 10


@pytest.mark.parametrize("name", WORKLOADS)
def test_injected_wrong_output_is_counted(name):
    res = small_run(name, False, corrupt=True)
    assert res.failed >= 1
    assert res.metrics["error_rate"][0] > 0
    assert run.result_json(res, run.declared(False))["correct"] is False


def test_hooks_are_removed_after_a_traced_run(results):
    # the probes and layer hooks patch module attributes during a run
    from repro.serve import scheduler
    from repro.runtime.executor import capture_run
    assert repro.backend.run_program_numpy.__module__ == \
        "repro.backend.executor"
    assert scheduler.capture_run is capture_run
    assert "eval_program" not in repro.backend.NumpyInterp.__dict__


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_calibration_scales_to_the_reference_speed():
    cal = workloads.Calibrator()
    k = cal.measure()
    assert cal.factor(k) == pytest.approx(workloads.CALIBRATION_REF_S / k)
    assert cal.wall >= k
