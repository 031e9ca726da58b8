import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from asifkit import ScenarioConfig, cli, compute_metrics, run_episode, write_trace
from asifkit.assurance import template_text
from asifkit.cli import dispatch
from tests.test_assurance import goal_chain

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


# sha256 of what `asifkit ledger init` writes and of `asifkit report` on the
# shipped template with that fresh ledger: a change to either digest is a
# change of the ledger file or the report a user reads
LEDGER_INIT_SHA256 = "189a23aed716d62e07e8116a2da90446673fddd2f3ab8a763306ae8a7bca96ac"
FRESH_REPORT_SHA256 = "ad4f8ca8017218754bd473bc3d406e26d652d510a4d55dc3f438a1f98492c89e"


def test_ledger_init_and_report_bytes_are_pinned(template_file, tmp_path, capsys):
    """The ledger file and the report, to --out or to stdout, keep their
    bytes."""
    ledger = tmp_path / "ledger.json"
    assert dispatch(["ledger", "init", "--out", str(ledger)]) == 0
    assert capsys.readouterr().out == f"wrote 55 evidence slots to {ledger}\n"
    assert sha(ledger) == LEDGER_INIT_SHA256
    report = tmp_path / "report.md"
    assert dispatch(["report", "--argument", str(template_file), "--ledger", str(ledger), "--out", str(report)]) == 0
    assert sha(report) == FRESH_REPORT_SHA256 and capsys.readouterr().out == ""
    assert dispatch(["report", "--argument", str(template_file), "--ledger", str(ledger)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == FRESH_REPORT_SHA256


def test_check_case_on_shipped_template(template_file, capsys):
    assert dispatch(["check-case", "--argument", str(template_file)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_check_case_cycle_exits_1(tmp_path, capsys):
    doc = 'goal G0: "r"\ngoal G1: "a"\ngoal G2: "b"\nG0 -> G1\nG1 -> G2\nG2 -> G1\n'
    path = tmp_path / "cycle.gsn"
    path.write_text(doc)
    assert dispatch(["check-case", "--argument", str(path)]) == 1


def test_check_case_on_a_deep_chain(tmp_path, capsys):
    """check-case on a chain of 1,200 goals prints its verdict and exits 0,
    with no RecursionError from the developed-goal walk."""
    path = tmp_path / "chain.gsn"
    path.write_text(goal_chain(1200), encoding="utf-8")
    assert dispatch(["check-case", "--argument", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 1201 nodes, root G0\n"


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


def test_a_scenario_without_constraints_exits_3(tmp_path, capsys):
    """A scenario with "constraints": [] is InvalidConfig (exit 3) for
    simulate and batch before any episode runs, and for metrics on a trace
    of such a scenario written before the check existed. Without the check
    compute_metrics raised ValueError on the trace's empty h block, which
    dispatch does not catch."""
    cfg = json.loads((SCENARIOS / "pd_1d.json").read_text())
    cfg["constraints"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    trace = tmp_path / "t.csv"
    out = tmp_path / "agg.json"
    assert dispatch(["simulate", "--config", str(path), "--trace", str(trace)]) == 3
    assert dispatch(["batch", "--config", str(path), "--episodes", "2", "--seed-base", "0", "--out", str(out)]) == 3
    assert not trace.exists() and not out.exists()
    config = ScenarioConfig.from_dict(json.loads((SCENARIOS / "pd_1d.json").read_text()))
    write_trace(run_episode(dataclasses.replace(config, constraints=(), raw=cfg)), trace)
    assert dispatch(["metrics", "--trace", str(trace), "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.count("error: a scenario needs at least one constraint") == 3


def test_counts_below_their_minimum_exit_non_zero(tmp_path, capsys):
    """A negative episode count is InvalidConfig (exit 3) before any episode
    runs, and a gradient check over fewer than one state or from a negative
    seed a usage error (exit 2); none writes a result."""
    out = tmp_path / "agg.json"
    argv = ["batch", "--config", str(SCENARIOS / "pd_1d.json"), "--seed-base", "0", "--out", str(out)]
    assert dispatch([*argv, "--episodes", "-2"]) == 3
    assert not out.exists()
    for flags in (["--states", "0"], ["--states", "-5"], ["--seed", "-1"]):
        assert dispatch(["check-gradients", *flags]) == 2
    assert "max gradient relative error" not in capsys.readouterr().out


def test_outputs_in_a_missing_directory_exit_3_before_any_episode(tmp_path, monkeypatch, capsys):
    """batch --out and simulate --trace/--metrics in a directory that does
    not exist are an io error (exit 3) before any episode runs, and no file
    is written."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an episode ran")

    monkeypatch.setattr(cli, "run_batch", unreachable)
    monkeypatch.setattr(cli, "run_episode", unreachable)
    missing = tmp_path / "missing"
    config = str(SCENARIOS / "pd_1d.json")
    batch = ["batch", "--config", config, "--episodes", "2", "--seed-base", "0", "--out", str(missing / "agg.json")]
    simulate = ["simulate", "--config", config, "--trace"]
    for argv in (
        batch,
        [*simulate, str(missing / "t.csv")],
        [*simulate, str(tmp_path / "t.csv"), "--metrics", str(missing / "m.json")],
    ):
        assert dispatch(argv) == 3
        assert "io error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
