import hashlib
import json
from pathlib import Path

import pytest

from asifkit import ScenarioConfig, compute_metrics, run_episode, write_trace
from asifkit.assurance import template_text
from asifkit.cli import dispatch

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture
def template_file(tmp_path):
    path = tmp_path / "functional_safety.gsn"
    path.write_text(template_text())
    return path


def test_ledger_init_writes_55_slots(tmp_path, capsys):
    out = tmp_path / "ledger.json"
    assert dispatch(["ledger", "init", "--out", str(out)]) == 0
    items = json.loads(out.read_text())
    assert len(items) == 55
    text = out.read_text()
    assert "51" in text and "user-answered goal" in text


def test_check_case_on_shipped_template(template_file, capsys):
    assert dispatch(["check-case", "--argument", str(template_file)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_check_case_cycle_exits_1(tmp_path, capsys):
    doc = 'goal G0: "r"\ngoal G1: "a"\ngoal G2: "b"\nG0 -> G1\nG1 -> G2\nG2 -> G1\n'
    path = tmp_path / "cycle.gsn"
    path.write_text(doc)
    assert dispatch(["check-case", "--argument", str(path)]) == 1


def test_unknown_flag_usage_error():
    assert dispatch(["simulate", "--bogus", "x"]) == 2


def test_unknown_subcommand_usage_error():
    assert dispatch(["frobnicate"]) == 2


def test_missing_file_io_error(tmp_path):
    assert dispatch(["check-case", "--argument", str(tmp_path / "nope.gsn")]) == 3


def test_malformed_config_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = dispatch(["simulate", "--config", str(bad), "--trace", str(tmp_path / "t.csv")])
    assert code == 3


def test_simulate_metrics_round_trip(tmp_path, capsys):
    config = SCENARIOS / "geofence_1d_adversarial.json"
    before = sha(config)
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.json"
    assert dispatch([
        "simulate", "--config", str(config), "--trace", str(trace), "--metrics", str(metrics)
    ]) == 0
    assert sha(config) == before  # inputs never mutated
    m = json.loads(metrics.read_text())
    assert set(m) == {
        "min_h", "violation_steps", "intervention_rate", "mean_deviation",
        "max_deviation", "max_solve_time", "fallback_count",
    }
    assert dispatch(["metrics", "--trace", str(trace), "--out", str(tmp_path / "m2.json")]) == 0
    m2 = json.loads((tmp_path / "m2.json").read_text())
    assert m2["min_h"] == m["min_h"]
    assert m2["intervention_rate"] == m["intervention_rate"]


def test_parser_reused_after_usage_errors(tmp_path, capsys):
    """One parser serves every call in a process: usage errors leave no state
    behind, and no option of one call carries into the next."""
    config = ScenarioConfig.from_dict(json.loads((SCENARIOS / "pd_1d.json").read_text()))
    trace = run_episode(config)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    expected = compute_metrics(trace).to_dict()
    out = tmp_path / "m.json"
    assert dispatch(["metrics", "--trace", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == expected
    for argv in (["frobnicate"], ["metrics", "--bogus", "x"], ["metrics"], ["metrics", "--out", str(out)]):
        assert dispatch(argv) == 2
    capsys.readouterr()
    assert dispatch(["metrics", "--trace", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == expected


def test_simulate_rta_off_flags_violation(tmp_path):
    config = SCENARIOS / "geofence_1d_rta_off.json"
    trace = tmp_path / "t.csv"
    assert dispatch(["simulate", "--config", str(config), "--trace", str(trace)]) == 0
    metrics = json.loads((tmp_path / "t.csv.metrics.json").read_text())
    assert metrics["min_h"] < 0


def test_batch_seed_order(tmp_path):
    config = SCENARIOS / "pd_1d.json"
    out = tmp_path / "agg.json"
    assert dispatch([
        "batch", "--config", str(config), "--episodes", "3", "--seed-base", "7", "--out", str(out)
    ]) == 0
    agg = json.loads(out.read_text())
    assert [e["seed"] for e in agg["per_episode"]] == [7, 8, 9]
    assert agg["pooled"] is not None


def test_configs_no_episode_can_run_exit_3(tmp_path):
    """A negative seed base, and a constraint kind that does not fit the
    plant, end as InvalidConfig (exit 3) before any episode runs."""
    assert dispatch(["batch", "--config", str(SCENARIOS / "pd_1d.json"), "--episodes", "2", "--seed-base", "-3"]) == 3
    cfg = json.loads((SCENARIOS / "circle_2d_adversarial.json").read_text())
    cfg["model"] = json.loads((SCENARIOS / "pd_1d.json").read_text())["model"]
    cfg["initial_state"] = [0.0, 0.0]
    path = tmp_path / "circle_on_1d.json"
    path.write_text(json.dumps(cfg))
    trace = tmp_path / "t.csv"
    assert dispatch(["simulate", "--config", str(path), "--trace", str(trace)]) == 3
    assert not trace.exists()


def test_check_gradients(capsys):
    assert dispatch(["check-gradients", "--states", "50"]) == 0
    out = capsys.readouterr().out
    assert "max gradient relative error" in out


def test_report_flow(template_file, tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    assert dispatch(["ledger", "init", "--out", str(ledger)]) == 0
    out = tmp_path / "report.md"
    assert dispatch([
        "report", "--argument", str(template_file), "--ledger", str(ledger), "--out", str(out)
    ]) == 0
    text = out.read_text()
    assert "14.3.3: UNSUPPORTED" in text
    assert "15.2.3: UNSUPPORTED" in text
    items = json.loads(ledger.read_text())
    for item in items:
        item["status"] = "provided"
    ledger.write_text(json.dumps(items))
    assert dispatch([
        "report", "--argument", str(template_file), "--ledger", str(ledger), "--out", str(out)
    ]) == 0
    text = out.read_text()
    assert "14.3.3: SUPPORTED (to argument strength)" in text
    assert "15.2.3: SUPPORTED (to argument strength)" in text


def test_report_ledger_with_unknown_solution(template_file, tmp_path):
    ledger = tmp_path / "ledger.json"
    dispatch(["ledger", "init", "--out", str(ledger)])
    items = json.loads(ledger.read_text())
    items[0]["solution_id"] = "E_ghost"
    ledger.write_text(json.dumps(items))
    code = dispatch([
        "report", "--argument", str(template_file), "--ledger", str(ledger)
    ])
    assert code == 3


def test_check_case_with_ledger(template_file, tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    dispatch(["ledger", "init", "--out", str(ledger)])
    assert dispatch([
        "check-case", "--argument", str(template_file), "--ledger", str(ledger)
    ]) == 0
    items = json.loads(ledger.read_text())
    items[0]["solution_id"] = "E_ghost"
    ledger.write_text(json.dumps(items))
    assert dispatch([
        "check-case", "--argument", str(template_file), "--ledger", str(ledger)
    ]) == 1
