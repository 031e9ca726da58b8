"""tools/percall.py: the summary and a run on a tiny workload."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "percall.py"


def _tool():
    spec = importlib.util.spec_from_file_location("percall", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_groups_the_per_call_times_by_status():
    statuses = ["modified", "passthrough", "modified", "modified"]
    line = _tool().summary("x", [1000, 3000, 2000, 10000], statuses, ["b", "a", "a", "b"], [2, 0, 1, 2])
    assert line == {
        "side": "x",
        "calls": 4,
        "p50_us": 2.5,
        "p99_us": 9.79,
        "sum_us": 16.0,
        "status": {"modified": {"calls": 3, "p50_us": 2.0}, "passthrough": {"calls": 1, "p50_us": 3.0}},
        "plant": {"a": {"calls": 2, "p50_us": 2.5}, "b": {"calls": 2, "p50_us": 5.5}},
        "active_rows": {"0": {"calls": 1, "p50_us": 3.0}, "1": {"calls": 1, "p50_us": 2.0}, "2": {"calls": 2, "p50_us": 5.5}},
    }


def test_trace_summary_gives_per_row_times_and_rows_per_second():
    times = {"write_trace": [1000, 3000], "read_trace": [2000, 2000], "metrics": [4000, 2000]}
    line = _tool().trace_summary("x", times, [1, 3])
    assert line == {
        "side": "x",
        "traces": 2,
        "rows": 4,
        "us_per_row": {"write_trace": 1.0, "read_trace": 1.0, "metrics": 1.5},
        "rows_per_s": 400000.0,
    }


def test_episode_summary_gives_steps_per_second_and_per_plant_step_times():
    line = _tool().episode_summary("x", [2000, 6000, 4000], [2, 3, 1], ["b", "a", "b"], [True, False, False])
    assert line == {
        "side": "x",
        "episodes": 3,
        "steps": 6,
        "steps_per_s": 500000.0,
        "us_per_step": {"a": 2.0, "b": 2.0},
        "us_per_step_by_disturbance": {"disturbed": 1.0, "undisturbed": 2.5},
    }


@pytest.mark.skipif(
    subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True).returncode != 0,
    reason="needs a git checkout",
)
@pytest.mark.parametrize("workload, size, calls", [("filter_multirow", 8, 8), ("corpus_adversarial", 1, 6000)])
def test_runs_against_head_on_a_tiny_workload(workload, size, calls):
    """One JSON line per side, this tree's first, each counting every call
    once under the status that side returned and once under its number of
    active rows."""
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--workload", workload, "--size", str(size), "--rounds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [line["side"] for line in lines] == ["this tree", "HEAD"]
    kinds = {"filter_multirow": ["double_integrator_2d"], "corpus_adversarial": ["double_integrator_1d", "double_integrator_2d"]}
    for line in lines:
        assert line["calls"] == calls
        assert sum(status["calls"] for status in line["status"].values()) == calls
        assert sorted(line["plant"]) == kinds[workload]
        assert sum(plant["calls"] for plant in line["plant"].values()) == calls
        assert all(key.isdigit() for key in line["active_rows"])
        assert sum(group["calls"] for group in line["active_rows"].values()) == calls
        assert 0.0 < line["p50_us"] <= line["p99_us"] and line["sum_us"] > 0.0


@pytest.mark.skipif(
    subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True).returncode != 0,
    reason="needs a git checkout",
)
@pytest.mark.parametrize("workload, size, episodes, kinds", [
    ("corpus_adversarial", 1, 12, ["double_integrator_1d", "double_integrator_2d"]),
    ("nn_nominal_batch", 1, 2, ["double_integrator_1d"]),
])
def test_times_episodes_against_head_on_a_tiny_workload(workload, size, episodes, kinds):
    """One JSON line per side, this tree's first, each counting every
    episode and step once, with a time per step for each plant kind and
    for the disturbed and the undisturbed episodes."""
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--op", "episode", "--workload", workload, "--size", str(size), "--rounds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [line["side"] for line in lines] == ["this tree", "HEAD"]
    assert lines[0]["steps"] == lines[1]["steps"] > 0
    # every nn_nominal_batch episode is disturbed; half the corpus's are
    disturbances = ["disturbed"] if workload == "nn_nominal_batch" else ["disturbed", "undisturbed"]
    for line in lines:
        assert line["episodes"] == episodes and line["steps_per_s"] > 0.0
        assert sorted(line["us_per_step"]) == kinds and all(v > 0.0 for v in line["us_per_step"].values())
        by_disturbance = line["us_per_step_by_disturbance"]
        assert sorted(by_disturbance) == disturbances and all(v > 0.0 for v in by_disturbance.values())


@pytest.mark.skipif(
    subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True).returncode != 0,
    reason="needs a git checkout",
)
def test_times_trace_io_against_head_on_a_tiny_workload():
    """One JSON line per side, this tree's first, each counting every trace
    and row once, with a time per row for each timed call."""
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--op", "trace", "--size", "2", "--rounds", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=600)
    lines = [json.loads(line) for line in out.stdout.splitlines()]
    assert [line["side"] for line in lines] == ["this tree", "HEAD"]
    assert lines[0]["rows"] == lines[1]["rows"] > 0
    for line in lines:
        assert line["traces"] == 2 and line["rows_per_s"] > 0.0
        assert sorted(line["us_per_row"]) == ["metrics", "read_trace", "write_trace"]
        assert all(v > 0.0 for v in line["us_per_row"].values())


def test_rejects_a_workload_the_op_does_not_run():
    argv = [sys.executable, str(TOOL), "--against", "HEAD", "--op", "episode", "--workload", "filter_multirow"]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert out.returncode == 2 and "--op episode runs on" in out.stderr


@pytest.mark.parametrize("argv", [["--size", "0"], ["--size", "-2"], ["--rounds", "0"]])
def test_rejects_a_count_below_1(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        _tool().main(["--against", "HEAD", *argv])
    assert stop.value.code == 2 and "must be at least 1" in capsys.readouterr().err
