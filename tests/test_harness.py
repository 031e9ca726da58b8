import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asifkit import (
    INFEASIBLE_FALLBACK,
    MODIFIED,
    PASSTHROUGH,
    EmptyTrace,
    InvalidConfig,
    ParseError,
    PlantState,
    ScenarioConfig,
    asif,
    barrier,
    compute_metrics,
    controllers,
    desired_control,
    dynamics,
    filter_control,
    load_scenario,
    read_trace,
    run_batch,
    run_episode,
    sample_disturbance,
    step_rk4,
    write_trace,
)
from asifkit.cli import dispatch
from asifkit.harness import _STATUS_CODES, MAX_EPISODE_STEPS, trace_header
from tests.conftest import Unreachable, sample_safe_state_2d, scenario_1d, scenario_2d
from tests.oracles import write_trace_per_cell

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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

    bad = scenario_1d(controller={"kind": "pd", "kp": [1.0, 1.0], "kd": [1.0, 1.0]})
    with pytest.raises(InvalidConfig, match="2 kp and 2 kd"):
        ScenarioConfig.from_dict(bad)

    # values no episode can run with: 0.5*dt*dt underflows to 0, a NaN dt,
    # an endless episode, more steps than MAX_EPISODE_STEPS, a dt beyond the
    # float range, a non-finite initial state, a seed that is no
    # non-negative integer
    for key, value in [
        ("dt", 1e-320),
        ("dt", float("nan")),
        ("duration", float("inf")),
        ("dt", 1e-160),
        ("duration", 10_000.02),
        ("dt", 10**400),
        ("initial_state", [float("nan"), 0.0]),
        ("initial_state", [0.0, float("inf")]),
        ("seed", -3),
        ("seed", 1.7),
        ("seed", "3"),
        ("seed", float("inf")),
        ("seed", float("nan")),
    ]:
        bad = scenario_1d()
        bad[key] = value
        with pytest.raises(InvalidConfig):
            ScenarioConfig.from_dict(bad)
    assert ScenarioConfig.from_dict(scenario_1d(duration=10_000.0)).n_steps == MAX_EPISODE_STEPS
    assert ScenarioConfig.from_dict(scenario_1d(seed=2.0)).seed == 2

    # constraint kinds of the other plant, and a speed limit whose square overflows
    fence_on_2d = dict(scenario_1d(), model=scenario_2d()["model"], initial_state=[0.0] * 4)
    circle_on_1d = dict(scenario_2d(), model=scenario_1d()["model"], initial_state=[0.0] * 2)
    huge_speed_limit = scenario_2d()
    huge_speed_limit["constraints"][1]["params"]["v_max"] = 1e200
    for bad in (fence_on_2d, circle_on_1d, huge_speed_limit):
        with pytest.raises(InvalidConfig, match="does not apply|v_max squared"):
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


def _aborted_config():
    """A zero-gain PD controller holds the plant at the circle's center, where
    the circle's gradient is singular; the filter comes on at t = 0.5 s, so
    the episode aborts there with a partial trace of the unfiltered steps."""
    cfg = scenario_2d(duration=10.0, seed=3, initial_state=(0.0, 0.0, 0.0, 0.0))
    cfg["controller"] = {"kind": "pd", "kp": [0.0, 0.0], "kd": [0.0, 0.0]}
    cfg["mode_schedule"] = [
        {"time": 0.0, "rta_enabled": False},
        {"time": 0.5, "rta_enabled": True},
    ]
    return cfg


TRACE_FIELDS = ("t", "states", "u_des", "u_out", "h", "intervened", "status", "solve_time", "deviation")


def test_write_trace_bytes_match_the_per_cell_reference(tmp_path):
    """write_trace formats whole rows, and its bytes equal the per-cell
    reference's; read_trace gives back C-contiguous arrays equal by bytes,
    with shapes (0, state_dim) and so on for a trace with no steps."""
    traces = {
        "1d": run_episode(ScenarioConfig.from_dict(scenario_1d(duration=1.0, seed=2))),
        "2d_disturbed": run_episode(
            ScenarioConfig.from_dict(scenario_2d(duration=1.0, seed=4, disturbance_bound=0.05))
        ),
        "aborted": run_episode(ScenarioConfig.from_dict(_aborted_config())),
        "empty": run_episode(ScenarioConfig.from_dict(scenario_2d(duration=0.5)), record=False),
    }
    assert traces["aborted"].aborted and traces["empty"].n_steps == 0
    for name, trace in traces.items():
        path, reference = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        write_trace(trace, path)
        write_trace_per_cell(trace, reference)
        assert path.read_bytes() == reference.read_bytes(), name
        back = read_trace(path)
        for field in TRACE_FIELDS:
            got, want = getattr(back, field), getattr(trace, field)
            assert got.dtype == want.dtype and got.shape == want.shape, (name, field)
            assert got.tobytes() == want.tobytes(), (name, field)
            assert got.flags.c_contiguous, (name, field)
    empty = read_trace(tmp_path / "empty.csv")
    assert empty.t.shape == (0,) and empty.states.shape == (0, 4)
    assert empty.u_des.shape == empty.u_out.shape == empty.h.shape == (0, 2)
    assert np.array_equal(empty.final_state, empty.config.initial_state) and empty.final_t == 0.0


def _edit_data_row(path, index, edit):
    """Rewrite the index-th data row of a trace file with edit(cells); return
    the row's 1-based line number."""
    lines = path.read_text().splitlines()
    lineno = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1 + index
    lines[lineno] = ",".join(edit(lines[lineno].split(",")))
    path.write_text("\n".join(lines) + "\n")
    return lineno + 1


def test_trace_short_row_reports_its_line(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(scenario_1d(duration=0.5))), path)
    lineno = _edit_data_row(path, 20, lambda cells: cells[:-1])
    with pytest.raises(ParseError, match="expected 9 cells, got 8") as err:
        read_trace(path)
    assert err.value.line == lineno


@pytest.mark.parametrize("cell", ["yes", "true", "", "2", "1.0"])
def test_trace_intervened_cell_is_0_or_1(cell, tmp_path):
    path = tmp_path / "t.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(scenario_1d(duration=0.5))), path)
    lineno = _edit_data_row(path, 10, lambda cells: [*cells[:-3], cell, *cells[-2:]])
    with pytest.raises(ParseError, match="bad cell value") as err:
        read_trace(path)
    assert err.value.line == lineno


@pytest.mark.parametrize("edit", [("1", "passthrough"), ("1", "unfiltered"), ("0", "modified"), ("0", "infeasible_fallback")])
def test_trace_intervened_must_agree_with_status(edit, tmp_path):
    """The filter sets intervened exactly when the status is modified or
    infeasible_fallback, so a row that says otherwise is rejected."""
    path = tmp_path / "t.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(scenario_1d(duration=0.5))), path)
    lineno = _edit_data_row(path, 0, lambda cells: [*cells[:-3], *edit, cells[-1]])
    with pytest.raises(ParseError, match=f"intervened {edit[0]} disagrees with status {edit[1]}") as err:
        read_trace(path)
    assert err.value.line == lineno


def test_trace_config_hash_line_must_match_the_config(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(scenario_1d(duration=0.1))), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash: ")
    lines[0] = "# config_hash: " + "0" * 64
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="config_hash 0{64} disagrees") as err:
        read_trace(path)
    assert err.value.line == 1


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


def strip_solve_time(path):
    """A written trace's text without its solve_time column, the one field
    that is not deterministic."""
    out = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            out.append(line)
        else:
            out.append(",".join(line.split(",")[:-1]))
    return "\n".join(out)


def test_episode_determinism_bytes(tmp_path):
    cfg = scenario_1d(duration=2.0, disturbance_bound=0.05, seed=17)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace(run_episode(ScenarioConfig.from_dict(cfg)), a)
    write_trace(run_episode(ScenarioConfig.from_dict(cfg)), b)
    assert strip_solve_time(a) == strip_solve_time(b)


# sha256 of each shipped scenario's trace without its solve_time column. No
# step of these traces rounds through BLAS, so the bits are the same on every
# machine; a change that moves any of them must re-pin it on purpose.
SHIPPED_TRACE_SHA256 = {
    "circle_2d_adversarial": "e9cf17868221ac1e9cd3a39810937bce2c264d4d3a1e2c856ae1a9d020dd3379",
    "geofence_1d_adversarial": "0d8fe5df1d08ddbad49cced627983114a18436f202cddddb0c1f9fe33639f1ff",
    "geofence_1d_rta_off": "3dee840107fe21dcc23ab7de862a8339807381cab3ee592dd04cc0016fbbbd15",
    "pd_1d": "5dcb41bf7be62a7aedb3ba37db38f3726b07de607624e12677189f4163b80176",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACE_SHA256))
def test_shipped_scenario_traces_are_pinned(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    write_trace(run_episode(load_scenario(SCENARIOS / f"{name}.json")), path)
    assert hashlib.sha256(strip_solve_time(path).encode()).hexdigest() == SHIPPED_TRACE_SHA256[name]


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
    cfg = _aborted_config()
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


# finite floats across the whole range, with the edges and subnormals drawn often
_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e308, -1e308]),
)
# positive floats, mostly of the shipped scale, else across the whole range
_POSITIVE = st.one_of(
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 10.0),
    st.floats(5e-324, 1e308),
    st.sampled_from([5e-324, 1e-160, 1e308]),
)
_KINDS = {2: ["geofence_1d", "speed_limit"], 4: ["geofence_2d_circle", "speed_limit"]}
_WILD = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.none(), st.text(max_size=2))


@st.composite
def whole_configs(draw):
    """A scenario config dict drawn across the float range, and the network
    weights document of an nn controller (None for the other kinds). Most
    draws fit the plant; some take a constraint kind of the other plant or
    one wild field. Gains and weights may overflow, the initial state may
    sit on a circle's centre, and the step count stays under a few dozen."""
    sd = draw(st.sampled_from([2, 4]))
    cd = sd // 2
    kinds = st.one_of(st.sampled_from(_KINDS[sd]), st.sampled_from(_KINDS[2] + _KINDS[4]))
    constraints = []
    for i, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=3))):
        if kind == "geofence_1d":
            params = {"p_limit": draw(_POSITIVE), "u_max": 1.0}
        elif kind == "geofence_2d_circle":
            center = [draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))]
            params = {"center": center, "radius": draw(_POSITIVE), "u_max": 1.0}
        else:
            params = {"v_max": draw(_POSITIVE)}
        constraints.append({"id": f"c{i}", "kind": kind, "params": params, "gamma": draw(_POSITIVE)})
    circles = [c["params"]["center"] for c in constraints if c["kind"] == "geofence_2d_circle"]
    state = st.one_of(st.floats(-2.0, 2.0), _ANY_FINITE)
    if circles and sd == 4 and draw(st.booleans()):
        initial_state = [*draw(st.sampled_from(circles)), draw(state), draw(state)]
    else:
        initial_state = [draw(state) for _ in range(sd)]
    controller_kind = draw(st.sampled_from(["adversarial", "pd", "nn"]))
    net = None
    if controller_kind == "adversarial":
        target = draw(st.sampled_from([c["id"] for c in constraints]))
        controller = {"kind": "adversarial", "target_constraint_id": target}
    elif controller_kind == "pd":
        gains = st.lists(_ANY_FINITE, min_size=cd, max_size=cd)
        controller = {"kind": "pd", "kp": draw(gains), "kd": draw(gains)}
    else:
        sizes = [sd, draw(st.integers(1, 3)), cd]
        net = {
            "layer_sizes": sizes,
            "weights": [[[draw(_ANY_FINITE) for _ in range(sizes[k])] for _ in range(sizes[k + 1])] for k in range(2)],
            "biases": [[draw(_ANY_FINITE) for _ in range(sizes[k + 1])] for k in range(2)],
            "activations": [draw(st.sampled_from(["tanh", "relu", "linear"])) for _ in range(2)],
        }
        controller = {"kind": "nn"}
    dt = draw(st.one_of(st.sampled_from([0.01, 0.1, 1.0]), _POSITIVE))
    schedule = [{"time": 0.0, "rta_enabled": draw(st.booleans())}]
    if draw(st.booleans()):
        schedule.append({"time": dt * draw(st.floats(0.5, 20.0)), "rta_enabled": draw(st.booleans())})
    cfg = {
        "model": {
            "kind": {2: "double_integrator_1d", 4: "double_integrator_2d"}[sd],
            "control_bounds": [[-1.0, 1.0]] * cd,
            "disturbance_bound": draw(st.one_of(st.sampled_from([0.0, 0.05]), _POSITIVE)),
        },
        "controller": controller,
        "constraints": constraints,
        "dt": dt,
        "duration": dt * draw(st.one_of(st.floats(1.0, 30.0), st.floats(0.5, 30.0))),
        "initial_state": initial_state,
        "seed": draw(st.integers(0, 2**64)),
        "mode_schedule": schedule,
    }
    wild = draw(st.sampled_from([None] * 12 + ["dt", "duration", "disturbance_bound", "gamma", "state", "seed"]))
    if wild == "seed":
        cfg[wild] = draw(st.one_of(st.integers(-(2**64), -1), _ANY_FINITE, _WILD))
    elif wild == "disturbance_bound":
        cfg["model"][wild] = draw(_WILD)
    elif wild == "gamma":
        constraints[0]["gamma"] = draw(_WILD)
    elif wild == "state":
        initial_state[0] = draw(_WILD)
    elif wild:
        cfg[wild] = draw(_WILD)
    return cfg, net


def _overflowing_rows_config():
    """Two circles at dt = 1.6e77 from a state with a speed of 1e-80: the
    rows' entries of about 1.3e154 overflow their squares in the two-axis
    solve."""
    dt = 1.6375474301492827e77
    cfg = scenario_2d(duration=dt, dt=dt, initial_state=(0.0, 0.0, 0.0, 9.970823070873243e-81))
    circle = {"kind": "geofence_2d_circle", "params": {"radius": 1.0, "u_max": 1.0}}
    cfg["constraints"] = [
        {"id": "c0", **circle, "params": {**circle["params"], "center": [0.0, 1.0]}},
        {"id": "c1", **circle, "params": {**circle["params"], "center": [1.0, 0.0]}},
        {"id": "c2", "kind": "speed_limit", "params": {"v_max": 1.0}},
    ]
    cfg["controller"] = {"kind": "adversarial", "target_constraint_id": "c1"}
    return cfg


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=300, deadline=None)
@given(drawn=whole_configs())
@example(drawn=(dict(scenario_1d(duration=0.1), seed=-3), None))
@example(drawn=(dict(scenario_1d(duration=0.1), seed=1.7), None))
@example(drawn=(scenario_1d(duration=1.0, dt=1e-160), None))
@example(drawn=(dict(scenario_1d(duration=0.1), model=scenario_2d()["model"], initial_state=[0.0] * 4), None))
@example(drawn=(dict(scenario_2d(duration=0.1), model=scenario_1d()["model"], initial_state=[0.0] * 2), None))
@example(drawn=(scenario_2d(duration=2.0, dt=2.0, initial_state=(0.0, -1.0, 0.0, 5e-324)), None))  # speed**2 underflows
@example(drawn=(scenario_1d(duration=4.0, dt=1.0, disturbance_bound=1e308, seed=1, rta_enabled=False), None))
@example(drawn=(_overflowing_rows_config(), None))
def test_every_config_that_loads_runs(drawn, tmp_path_factory):
    """from_dict returns or raises InvalidConfig, and run_episode returns on
    every config that loads: all its steps, or a flagged abort with the
    steps before it kept. Nothing else raises out of either."""
    cfg, net = drawn
    if net is not None:
        path = tmp_path_factory.getbasetemp() / "whole_configs_net.json"
        path.write_text(json.dumps(net))
        cfg["controller"]["path"] = str(path)
    try:
        config = ScenarioConfig.from_dict(cfg)
    except InvalidConfig:
        return
    assume(config.n_steps <= 30)  # a wild dt or duration can ask for up to MAX_EPISODE_STEPS
    trace = run_episode(config)
    assert trace.n_steps == config.n_steps or (trace.aborted and trace.n_steps < config.n_steps)


@pytest.mark.parametrize(
    "cfg",
    [
        scenario_1d(duration=0.5, initial_state=(-1e308, -1e308)),
        scenario_1d(duration=0.5, disturbance_bound=1e308),
        scenario_2d(duration=0.5, initial_state=(1e308, 1e308, 1e308, 1e308)),
    ],
    ids=["state", "disturbance", "state_2d"],
)
def test_overflowing_integration_is_a_counted_abort(cfg):
    """A config that loads but whose integration overflows (a state near the
    float range, a disturbance bound of 1e308) ends each episode as a
    flagged NonFiniteState abort, with the steps before it kept; nothing
    raises out of run_episode, and run_batch counts every abort."""
    config = ScenarioConfig.from_dict(cfg)
    trace = run_episode(config)
    assert trace.aborted and trace.abort_reason.startswith("NonFiniteState: non-finite state entries")
    assert 0 < trace.n_steps < config.n_steps
    assert np.all(np.isfinite(trace.states)) and np.all(np.isfinite(trace.final_state))
    assert run_batch(config, episodes=3, seed_base=0)["aborted_episodes"] == 3


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


def test_run_batch_rejects_a_seed_base_before_any_episode():
    config = ScenarioConfig.from_dict(scenario_1d(duration=0.1))
    for seed_base in (-3, 1.5):
        with pytest.raises(InvalidConfig, match="seed"):
            run_batch(config, episodes=2, seed_base=seed_base)


def test_config_hash_stable_under_key_order():
    cfg = scenario_1d()
    reordered = json.loads(json.dumps(cfg, sort_keys=True))
    a = ScenarioConfig.from_dict(cfg).config_hash
    b = ScenarioConfig.from_dict(reordered).config_hash
    assert a == b


def test_step_runs_on_floats_without_numpy(monkeypatch):
    """desired_control, filter_control with the period, sample_disturbance
    given a Generator and step_rk4 run disturbed closed loops with numpy out
    of reach in dynamics, barrier, controllers and asif: a 1-D fence and a
    2-D circle under the adversary, and pd_1d's PD law. Every state, command
    and disturbance is a tuple of Python floats, and each loop ends in
    run_episode's final state bit for bit."""
    configs = [
        ScenarioConfig.from_dict(scenario_1d(duration=2.0, disturbance_bound=0.05)),
        ScenarioConfig.from_dict(scenario_2d(duration=2.0, disturbance_bound=0.05)),
        load_scenario(SCENARIOS / "pd_1d.json"),
    ]
    starts = [PlantState(config.initial_state) for config in configs]
    ends = []
    statuses = Counter()
    with monkeypatch.context() as patch:
        for module in (asif, barrier, controllers, dynamics):
            patch.setattr(module, "np", Unreachable())
        for config, state in zip(configs, starts):
            model, constraints = config.model, list(config.constraints)
            rng = np.random.default_rng(config.seed)
            for _ in range(config.n_steps):
                u_des = desired_control(config.controller, state, model)
                result = filter_control(constraints, model, state, u_des, config.dt)
                statuses[result.status] += 1
                w = sample_disturbance(model, rng)
                for values in (state.xs, u_des.us, result.u_out.us, w):
                    assert type(values) is tuple and {type(c) for c in values} == {float}, values
                state = step_rk4(model, state, result.u_out, w, config.dt)
            ends.append(state)
    assert {PASSTHROUGH, MODIFIED} <= set(statuses), statuses
    for config, state in zip(configs, ends):
        trace = run_episode(config)
        assert not trace.aborted
        assert state.x.tobytes() == trace.final_state.tobytes() and state.t == trace.final_t
