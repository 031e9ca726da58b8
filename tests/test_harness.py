import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asifkit import (
    INFEASIBLE_FALLBACK,
    EmptyTrace,
    InvalidConfig,
    ParseError,
    ScenarioConfig,
    compute_metrics,
    read_trace,
    run_batch,
    run_episode,
    write_trace,
)
from asifkit.cli import dispatch
from asifkit.harness import _STATUS_CODES, trace_header
from tests.conftest import sample_safe_state_2d, scenario_1d, scenario_2d


def test_config_validation_errors():
    bad = scenario_1d()
    bad["dt"] = 10.0  # dt > duration
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)

    bad = scenario_1d()
    bad["mode_schedule"] = [{"time": 1.0, "rta_enabled": True}]
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)

    bad = scenario_1d()
    bad["mode_schedule"] = [
        {"time": 0.0, "rta_enabled": True},
        {"time": 2.0, "rta_enabled": False},
        {"time": 2.0, "rta_enabled": True},
    ]
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)

    bad = scenario_1d()
    bad["initial_state"] = [0.0, 0.0, 0.0]
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)

    bad = scenario_1d()
    bad["controller"] = {"kind": "adversarial", "target_constraint_id": "nope"}
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)

    bad = scenario_1d()
    bad["constraints"][0]["params"]["u_max"] = 0.5  # mismatch with box
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict(bad)


def test_single_step_episode():
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.01, dt=0.01))
    trace = run_episode(config)
    assert trace.n_steps == 1
    assert trace.t[0] == 0.0


def test_step_count_and_uniform_times():
    config = ScenarioConfig.from_dict(scenario_1d(duration=2.0, dt=0.01))
    trace = run_episode(config)
    assert trace.n_steps == 200
    assert np.allclose(np.diff(trace.t), 0.01, atol=1e-12)


def test_hazard_demo_rta_off():
    trace = run_episode(ScenarioConfig.from_dict(scenario_1d(rta_enabled=False)))
    assert compute_metrics(trace).min_h < 0


def test_rta_on_keeps_discretization_margin():
    """Ten seconds of adversarial pressure on the 1-D fence. The continuous
    row alone admits a boundary dip on the order of u_max*dt^2 per pressed
    chatter cycle; the sampled-data row the harness adds keeps sampled h
    non-negative here (docs/discretization_margin.md). The check keeps the
    envelope that holds for either: within 1e-3 of the safe set."""
    for gamma in (0.5, 1.0, 2.0):
        config = ScenarioConfig.from_dict(scenario_1d(duration=10.0, gamma=gamma))
        trace = run_episode(config)
        assert compute_metrics(trace).min_h >= -1e-3


def test_safety_contrast():
    off = compute_metrics(run_episode(ScenarioConfig.from_dict(scenario_1d(rta_enabled=False))))
    on = compute_metrics(run_episode(ScenarioConfig.from_dict(scenario_1d(rta_enabled=True))))
    assert on.min_h - off.min_h > 0


def test_metrics_arithmetic_fixture(model_1d):
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.04, dt=0.01))
    trace = run_episode(config)
    # craft the fields the metrics read
    trace.intervened[:] = [True, False, False, False]
    trace.deviation[:] = [2.0, 0.0, 0.0, 0.0]
    trace.status[:] = [_STATUS_CODES["modified"]] + [_STATUS_CODES["passthrough"]] * 3
    trace.h[:] = np.array([[1.0], [0.5], [-0.25], [0.125]])
    trace.solve_time[:] = [1e-5, 2e-5, 3e-5, 4e-5]
    m = compute_metrics(trace)
    assert m.intervention_rate == 0.25
    assert m.mean_deviation == 0.5
    assert m.max_deviation == 2.0
    assert m.min_h == -0.25
    assert m.violation_steps == 1
    assert m.max_solve_time == 4e-5
    assert m.fallback_count == 0


def test_metrics_empty_trace():
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.05))
    trace = run_episode(config, record=False)
    with pytest.raises(EmptyTrace):
        compute_metrics(trace)


def test_trace_header_exact(model_1d):
    config = ScenarioConfig.from_dict(scenario_1d())
    assert (
        trace_header(config, ("fence",))
        == "t,state_0,state_1,udes_0,uout_0,h_fence,intervened,status,solve_time"
    )


def test_trace_round_trip(tmp_path):
    config = ScenarioConfig.from_dict(scenario_1d(duration=1.0, disturbance_bound=0.05, seed=5))
    trace = run_episode(config)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.config_hash == trace.config_hash
    assert np.array_equal(back.t, trace.t)
    assert np.array_equal(back.states, trace.states)
    assert np.array_equal(back.u_des, trace.u_des)
    assert np.array_equal(back.u_out, trace.u_out)
    assert np.array_equal(back.h, trace.h)
    assert np.array_equal(back.intervened, trace.intervened)
    assert np.array_equal(back.status, trace.status)
    assert np.array_equal(back.solve_time, trace.solve_time)
    assert back.aborted == trace.aborted


def test_trace_deviation_matches_the_filter_on_two_axes(tmp_path):
    """read_trace recomputes each step's deviation from the stored commands
    with the filter's own formula, so `asifkit metrics` on a written 2-D
    trace equals compute_metrics of the episode exactly."""
    for seed, gamma in ((3, 2.0), (4, 1.0)):
        cfg = scenario_2d(duration=3.0, gamma=gamma, seed=seed, disturbance_bound=0.05, initial_state=(0.6, 0.1, 0.3, 0.2))
        trace = run_episode(ScenarioConfig.from_dict(cfg))
        assert np.count_nonzero(trace.intervened) > 100
        path = tmp_path / f"trace_{seed}.csv"
        write_trace(trace, path)
        assert read_trace(path).deviation.tobytes() == trace.deviation.tobytes()
        out = tmp_path / f"metrics_{seed}.json"
        assert dispatch(["metrics", "--trace", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == compute_metrics(trace).to_dict()


def test_trace_missing_column_named(tmp_path):
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.05))
    trace = run_episode(config)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    header_i = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    lines[header_i] = lines[header_i].replace(",solve_time", "")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="solve_time"):
        read_trace(path)


def test_trace_bad_cell_reports_row(tmp_path):
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.05))
    write_trace(run_episode(config), tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    first_data = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    cells = lines[first_data].split(",")
    cells[0] = "not_a_number"
    lines[first_data] = ",".join(cells)
    (tmp_path / "t.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_trace(tmp_path / "t.csv")
    assert err.value.line == first_data + 1


def test_episode_determinism_bytes(tmp_path):
    cfg = scenario_1d(duration=2.0, disturbance_bound=0.05, seed=17)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(cfg)), a)
    write_trace(run_episode(ScenarioConfig.from_dict(cfg)), b)

    def strip_solve_time(path):
        out = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return "\n".join(out)

    assert strip_solve_time(a) == strip_solve_time(b)


def test_mode_schedule_toggle():
    cfg = scenario_1d(duration=2.0)
    cfg["mode_schedule"] = [
        {"time": 0.0, "rta_enabled": True},
        {"time": 1.0, "rta_enabled": False},
    ]
    trace = run_episode(ScenarioConfig.from_dict(cfg))
    names = trace.status_names()
    first_half = names[: trace.n_steps // 2]
    second_half = names[trace.n_steps // 2 :]
    assert all(s != "unfiltered" for s in first_half)
    assert all(s == "unfiltered" for s in second_half)
    assert not trace.intervened[trace.n_steps // 2 :].any()


def test_recorder_noninterference():
    cfg = scenario_1d(duration=1.5, disturbance_bound=0.05, seed=9)
    with_rec = run_episode(ScenarioConfig.from_dict(cfg), record=True)
    without = run_episode(ScenarioConfig.from_dict(cfg), record=False)
    assert with_rec.final_state.tobytes() == without.final_state.tobytes()
    assert with_rec.final_t == without.final_t


def test_aborted_episode_keeps_partial_trace(tmp_path):
    # a zero-gain PD controller holds the plant at the circle's center, where
    # the circle's gradient is singular; the filter comes on at t = 0.5 s, so
    # the episode aborts there with a partial trace of the unfiltered steps
    cfg = scenario_2d(duration=10.0, seed=3, initial_state=(0.0, 0.0, 0.0, 0.0))
    cfg["controller"] = {"kind": "pd", "kp": [0.0, 0.0], "kd": [0.0, 0.0]}
    cfg["mode_schedule"] = [
        {"time": 0.0, "rta_enabled": False},
        {"time": 0.5, "rta_enabled": True},
    ]
    trace = run_episode(ScenarioConfig.from_dict(cfg))
    assert trace.aborted
    assert "circle" in trace.abort_reason
    assert 0 < trace.n_steps < ScenarioConfig.from_dict(cfg).n_steps
    path = tmp_path / "aborted.csv"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.aborted and back.abort_reason == trace.abort_reason
    assert back.n_steps == trace.n_steps


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=150, deadline=None)
@given(
    kp=st.floats(allow_nan=False, allow_infinity=False),
    kd=st.floats(allow_nan=False, allow_infinity=False),
    p=st.floats(-10.0, 10.0),
    v=st.floats(-10.0, 10.0),
)
@example(kp=1e308, kd=-1e308, p=5.0, v=5.0)  # inf - inf: NaN
@example(kp=-1e308, kd=0.0, p=5.0, v=0.0)  # +inf
@example(kp=1e308, kd=0.0, p=5.0, v=0.0)  # -inf
def test_non_finite_command_aborts_the_episode(kp, kd, p, v):
    """A controller output with a NaN or infinite entry (here from an
    overflowing PD law) ends the episode as a flagged abort that names the
    command; it never raises out of run_episode."""
    cfg = scenario_1d(duration=0.03, initial_state=(p, v))
    cfg["controller"] = {"kind": "pd", "kp": [kp], "kd": [kd]}
    trace = run_episode(ScenarioConfig.from_dict(cfg))
    raw = -kp * p - kd * v
    if np.isfinite(raw):
        assert trace.n_steps > 0 and np.all(np.abs(trace.u_des) <= 1.0)
    else:
        assert trace.aborted and trace.n_steps == 0
        assert trace.abort_reason == f"NonFiniteCommand: controller output [{raw}] is not finite"


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_batch_counts_non_finite_network_output_as_aborts(tmp_path):
    """A network whose hidden layer overflows to +inf and -inf once the
    position passes 1.79 emits 0 before and NaN after: each episode becomes
    an abort with the steps before it kept, and the batch runs on."""
    net = {
        "layer_sizes": [2, 2, 1],
        "weights": [[[1e308, 0.0], [-1e308, 0.0]], [[1.0, 1.0]]],
        "biases": [[0.0, 0.0], [0.0]],
        "activations": ["linear", "linear"],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    cfg = scenario_1d(
        rta_enabled=False, duration=0.5, initial_state=(1.7, 1.0), controller={"kind": "nn", "path": str(path)}
    )
    trace = run_episode(ScenarioConfig.from_dict(cfg))
    assert trace.aborted and 0 < trace.n_steps < 50
    assert trace.abort_reason == "NonFiniteCommand: controller output [nan] is not finite"
    assert np.all(trace.u_des == 0.0)
    result = run_batch(ScenarioConfig.from_dict(cfg), episodes=3, seed_base=0)
    assert result["aborted_episodes"] == 3
    assert all(e["metrics"]["min_h"] < 0.0 for e in result["per_episode"])


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_circle_invariant_on_draws_outside_the_gate(gamma):
    """The 2-D sampled row is measured, not proven (its remainder is not
    bounded), so check forward invariance on draws the acceptance gate does
    not make: undisturbed adversarial episodes from fresh initial states and
    seeds press the circle and stay in it, without aborts or fallbacks."""
    rng = np.random.default_rng(7)
    for episode in range(20):
        x0 = sample_safe_state_2d(rng)
        cfg = scenario_2d(duration=5.0, gamma=gamma, seed=5000 + episode, initial_state=x0.tolist())
        trace = run_episode(ScenarioConfig.from_dict(cfg))
        assert not trace.aborted
        assert not np.any(trace.status == _STATUS_CODES[INFEASIBLE_FALLBACK])
        assert float(np.min(trace.h)) >= -1e-6
        assert float(np.min(trace.h)) < 1e-2  # the adversary reached the boundary


def test_run_batch_seed_order_and_pooling():
    cfg = scenario_1d(duration=0.5)
    result = run_batch(ScenarioConfig.from_dict(cfg), episodes=3, seed_base=100)
    assert [e["seed"] for e in result["per_episode"]] == [100, 101, 102]
    assert result["aborted_episodes"] == 0
    pooled = result["pooled"]
    per = [e["metrics"] for e in result["per_episode"]]
    assert pooled["min_h"] == min(m["min_h"] for m in per)
    assert pooled["fallback_count"] == sum(m["fallback_count"] for m in per)


def test_run_batch_matches_per_seed_episodes():
    cfg = scenario_1d(duration=0.5, disturbance_bound=0.05)
    result = run_batch(ScenarioConfig.from_dict(cfg), episodes=3, seed_base=40)
    for episode in result["per_episode"]:
        trace = run_episode(ScenarioConfig.from_dict(dict(cfg, seed=episode["seed"])))
        expected = compute_metrics(trace).to_dict()
        got = dict(episode["metrics"])
        expected.pop("max_solve_time")
        got.pop("max_solve_time")
        assert got == expected


def test_config_hash_stable_under_key_order():
    cfg = scenario_1d()
    reordered = json.loads(json.dumps(cfg, sort_keys=True))
    a = ScenarioConfig.from_dict(cfg).config_hash
    b = ScenarioConfig.from_dict(reordered).config_hash
    assert a == b
