"""Tests of the benchmark itself, on tiny runs of one pass each."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run as bench_run

BENCHMARK = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
TINY = {"corpus_adversarial": 1, "nn_nominal_batch": 1, "filter_multirow": 40, "trace_roundtrip": 2}
# Per-layer values that depend only on the inputs, never on timing.
EXACT_LAYER_UNITS = ("count",)
EXACT_LAYER_NAMES = ("asif.passthrough_ratio", "asif.mean_deviation", "safety.worst_h", "safety.violation_frac")
# Layers each workload must load (nonzero) and bypass (zero), as NOTES.md says.
LOADED = {
    "corpus_adversarial": ("controllers.desired_control.calls", "asif.solve_qp.modified.calls",
                           "dynamics.step_rk4.calls", "harness.recorder_eval_h.calls"),
    "nn_nominal_batch": ("controllers.load_controller.calls", "harness.ScenarioConfig.from_dict.calls",
                         "dynamics.step_rk4.calls", "cli.dispatch.calls"),
    "filter_multirow": ("barrier.cbf_row.calls", "asif.solve_qp.infeasible_fallback.calls"),
    "trace_roundtrip": ("harness.write_trace.busy_us", "harness.read_trace.busy_us", "cli.dispatch.calls"),
}
BYPASSED = {
    "corpus_adversarial": ("cli.dispatch.calls", "harness.write_trace.busy_us"),
    "nn_nominal_batch": ("harness.write_trace.busy_us",),
    "filter_multirow": ("controllers.desired_control.calls", "dynamics.step_rk4.calls"),
    "trace_roundtrip": ("asif.filter_control.calls", "dynamics.step_rk4.calls"),
}


def _run(name, trace, tmp_path):
    workdir = tmp_path / ("traced" if trace else "untraced")
    workdir.mkdir(exist_ok=True)
    return bench_run.run_workload(name, seed=7, seconds=0, trace=trace, size=TINY[name], workdir=str(workdir))


def _exact_layer_values(result):
    return {
        k: v["value"]
        for k, v in result["metrics"].items()
        if v["unit"] in EXACT_LAYER_UNITS or k in EXACT_LAYER_NAMES
    }


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_runs_are_correct_and_repeat_exactly(name, tmp_path):
    plain, plain_details = _run(name, False, tmp_path)
    plain2, plain2_details = _run(name, False, tmp_path)
    traced, traced_details = _run(name, True, tmp_path)
    traced2, _ = _run(name, True, tmp_path)

    for result in (plain, plain2, traced, traced2):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    # every metric BENCHMARK.json names, with its unit, and nothing else
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    assert all(math.isfinite(v["value"]) for v in plain["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    # tracing changes no outcome; the same seed repeats every count
    assert traced_details["summary"] == plain_details["summary"] == plain2_details["summary"]
    for key in ("worst_h", "violation_frac", "status_mix", "work_items_per_pass"):
        assert traced_details[key] == plain_details[key] == plain2_details[key]
    assert plain["attempted"] == plain2["attempted"]
    assert plain["metrics"]["safe_step_frac"] == plain2["metrics"]["safe_step_frac"]
    assert _exact_layer_values(traced) == _exact_layer_values(traced2)
    assert traced["metrics"]["safety.worst_h"]["value"] == plain_details["worst_h"]

    for metric in LOADED[name]:
        assert traced["metrics"][metric]["value"] > 0, metric
    for metric in BYPASSED[name]:
        assert traced["metrics"][metric]["value"] == 0, metric

    # timings are scaled to the reference speed, and the raw ones are kept
    assert plain_details["raw"]["ops_per_s"] > 0
    assert plain_details["calibration"]["chunks"] >= 1
    assert plain["metrics"]["setup_s"]["value"] == plain_details["setup_samples_s"][0]


def test_calibrator_scales_each_operation_by_the_chunk_time_around_it():
    calibrator = calibrate.Calibrator()
    calibrator.samples = [2e-3, 2e-3, 4e-3, 4e-3, 4e-3, 4e-3]
    calibrator.op_sample = [0, 0, 5]
    # around sample 0: median of samples 0..2; around sample 5: of samples 3..5
    expected = [calibrate.REFERENCE_CHUNK_S / 2e-3] * 2 + [calibrate.REFERENCE_CHUNK_S / 4e-3]
    assert calibrator.scales().tolist() == expected


def test_refuses_a_directory_without_the_program(tmp_path):
    root = bench_run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(root / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable if part == "python3" else part for part in BENCHMARK["command"]]
    proc = subprocess.run(
        command + ["--workload", "filter_multirow", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not any(Path(tmp_path).glob(".bench-work-*"))
