import math

import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    SPEED_LIMIT,
    BarrierConstraint,
    ControlInput,
    InvalidConfig,
    InvalidState,
    PlantModel,
    PlantState,
    SingularGradient,
    cbf_row,
    eval_grad_h,
    eval_h,
    sampled_row,
    step_rk4,
)
from asifkit.barrier import check_bounds_consistency, constraint_from_config


def test_eval_h_fence_examples(fence):
    assert eval_h(fence, PlantState([1.0, 0.0])) == 0.0
    assert eval_h(fence, PlantState([0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)
    assert eval_h(fence, PlantState([0.0, -1.0])) == pytest.approx(1.5, abs=1e-15)


def test_eval_grad_fence_examples(fence):
    assert np.allclose(eval_grad_h(fence, PlantState([0.0, 1.0])), [-1.0, -1.0])
    assert np.allclose(eval_grad_h(fence, PlantState([0.0, 0.0])), [-1.0, 0.0])


def test_eval_grad_speed_example():
    sp = BarrierConstraint("sp", SPEED_LIMIT, {"v_max": 2.0})
    assert np.allclose(eval_grad_h(sp, PlantState([0.0, 1.0])), [0.0, -2.0])


def test_cbf_row_examples(fence, model_1d):
    a, b = cbf_row(fence, model_1d, PlantState([0.0, 1.0]))
    assert np.allclose(a, [-1.0]) and b == pytest.approx(0.5, abs=1e-15)
    a, b = cbf_row(fence, model_1d, PlantState([0.0, 0.0]))
    assert np.array_equal(a, [0.0]) and b == pytest.approx(-1.0)


def test_cbf_row_boundary_driftfree(model_1d):
    # h = 0 with grad_h . f = 0: the admissible set degenerates to a.u >= 0
    sp = BarrierConstraint("sp", SPEED_LIMIT, {"v_max": 1.0}, gamma=1.0)
    a, b = cbf_row(sp, model_1d, PlantState([0.0, 1.0]))
    assert b == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(a, [-2.0])


def test_cbf_row_independent_of_command(fence, model_1d):
    state = PlantState([0.2, 0.7])
    a1, b1 = cbf_row(fence, model_1d, state)
    a2, b2 = cbf_row(fence, model_1d, state)
    assert np.array_equal(a1, a2) and b1 == b2


def _random_state(rng, kind):
    """Random state away from gradient kinks and singularities so central
    differences are trustworthy."""
    if kind == GEOFENCE_1D:
        while True:
            x = rng.uniform(-2, 2, size=2)
            if abs(x[1]) > 1e-2:
                return x
    if kind == GEOFENCE_2D_CIRCLE:
        while True:
            x = rng.uniform(-2, 2, size=4)
            d = np.hypot(x[0], x[1])
            if d < 1e-2:
                continue
            v_r = (x[0] * x[2] + x[1] * x[3]) / d
            if abs(v_r) > 1e-2:
                return x
    return rng.uniform(-2, 2, size=4)


@pytest.mark.parametrize(
    "constraint",
    [
        BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}),
        BarrierConstraint(
            "circle", GEOFENCE_2D_CIRCLE, {"center": (0.3, -0.2), "radius": 1.5, "u_max": 1.0}
        ),
        BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 0.8}),
    ],
    ids=["fence", "circle", "speed"],
)
def test_gradient_matches_central_difference(constraint):
    rng = np.random.default_rng(7)
    step = 1e-6
    for _ in range(100):
        x = _random_state(rng, constraint.kind)
        state = PlantState(x)
        grad = eval_grad_h(constraint, state)
        fd = np.empty_like(grad)
        for i in range(x.shape[0]):
            hi = x.copy(); hi[i] += step
            lo = x.copy(); lo[i] -= step
            fd[i] = (eval_h(constraint, PlantState(hi)) - eval_h(constraint, PlantState(lo))) / (2 * step)
        scale = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - fd) / scale <= 1e-6


@pytest.mark.parametrize(
    "constraint, interior, exterior",
    [
        (
            BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}),
            [0.0, 0.0],
            [2.0, 0.0],
        ),
        (
            BarrierConstraint(
                "circle", GEOFENCE_2D_CIRCLE, {"center": (0.0, 0.0), "radius": 1.0, "u_max": 1.0}
            ),
            [0.1, 0.1, 0.0, 0.0],
            [2.0, 0.0, 0.0, 0.0],
        ),
        (
            BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 1.0}),
            [0.0, 0.0, 0.1, 0.1],
            [0.0, 0.0, 1.0, 1.0],
        ),
    ],
    ids=["fence", "circle", "speed"],
)
def test_sign_semantics(constraint, interior, exterior):
    assert eval_h(constraint, PlantState(interior)) > 0
    assert eval_h(constraint, PlantState(exterior)) < 0


def test_braking_distance_soundness(fence, model_1d):
    """From any boundary state moving toward the fence, full braking keeps the
    position at or below the limit for all time (the derivation's defining
    property), checked by simulation from 50 boundary states."""
    rng = np.random.default_rng(3)
    brake = ControlInput([-1.0], model_1d.control_bounds)
    for _ in range(50):
        v0 = rng.uniform(0.05, 2.0)
        p0 = 1.0 - v0 * v0 / 2.0  # h(p0, v0) = 0 exactly
        model = type(model_1d)(model_1d.kind, [[-1.0, 1.0]])
        state = PlantState([p0, v0])
        while state.x[1] > 0:
            state = step_rk4(model, state, brake, np.zeros(2), 0.001)
            assert state.x[0] <= 1.0 + 1e-9


def test_circle_singular_gradient(circle):
    with pytest.raises(SingularGradient) as err:
        eval_grad_h(circle, PlantState([0.0, 0.0, 1.0, 0.0]))
    assert err.value.constraint_id == "circle"


def test_dimension_mismatch(fence, circle):
    with pytest.raises(InvalidState):
        eval_h(fence, PlantState([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidState):
        eval_h(circle, PlantState([0.0, 0.0]))


def test_bounds_consistency(fence, model_1d, model_2d, circle):
    check_bounds_consistency(fence, model_1d)
    check_bounds_consistency(circle, model_2d)
    wrong = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 0.5})
    with pytest.raises(InvalidConfig):
        check_bounds_consistency(wrong, model_1d)


def test_constraint_validation():
    with pytest.raises(InvalidConfig):
        BarrierConstraint("x", "geofence_3d", {})
    with pytest.raises(InvalidConfig):
        BarrierConstraint("x", GEOFENCE_1D, {"p_limit": 1.0})
    with pytest.raises(InvalidConfig):
        BarrierConstraint("x", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=0.0)
    with pytest.raises(InvalidConfig):
        BarrierConstraint("x", GEOFENCE_1D, {"p_limit": -1.0, "u_max": 1.0})
    # a centre is a finite 2-vector: not a scalar, a string (never split
    # into digits, nor read as a number), a nested list, a 3-vector or a
    # mapping
    for center in (1.0, "12", [[0.0, 0.0]], [0.0, 0.0, 0.0], [float("nan"), 0.0], {"x": 0.0, "y": 0.0}, "ab"):
        with pytest.raises(InvalidConfig):
            BarrierConstraint("x", GEOFENCE_2D_CIRCLE, {"center": center, "radius": 1.0, "u_max": 1.0})
    # a scalar param or a gamma that is no number, built directly or from a
    # config mapping
    for bad in ("ab", None, [1.0]):
        with pytest.raises(InvalidConfig):
            BarrierConstraint("x", GEOFENCE_1D, {"p_limit": bad, "u_max": 1.0})
        with pytest.raises(InvalidConfig):
            BarrierConstraint("x", SPEED_LIMIT, {"v_max": bad})
        with pytest.raises(InvalidConfig):
            BarrierConstraint("x", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=bad)
        with pytest.raises(InvalidConfig):
            constraint_from_config({"id": "x", "kind": SPEED_LIMIT, "params": {"v_max": 1.0}, "gamma": bad})
    # a numeric gamma is stored as a float
    assert type(BarrierConstraint("x", SPEED_LIMIT, {"v_max": 1.0}, gamma=np.float64(2)).gamma) is float
    assert constraint_from_config({"id": "x", "kind": SPEED_LIMIT, "params": {"v_max": 1.0}, "gamma": 2}).gamma == 2.0


# ---- sampled-data rows ----

DT = 0.01


def _safe_fence_states(rng, n):
    states = []
    while len(states) < n:
        p, v = rng.uniform(-1.5, 1.0), rng.uniform(-1.5, 1.5)
        if 1.0 - p - v * abs(v) / 2.0 >= 0.0:
            states.append(PlantState([p, v]))
    return states


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_sampled_fence_row_lands_on_decayed_h(gamma):
    """One undisturbed step under u* = -b puts h exactly on (1 - gamma dt) h_k."""
    fence = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=gamma)
    wide = PlantModel(DOUBLE_INTEGRATOR_1D, [[-1e4, 1e4]])  # any u*, not only the box's
    rng = np.random.default_rng(12)
    for state in _safe_fence_states(rng, 200) + [PlantState([0.3, -0.4]), PlantState([1.0, 0.0])]:
        a, b = sampled_row(fence, wide, state, DT)
        assert np.array_equal(a, [-1.0])
        h_k = eval_h(fence, state)
        nxt = step_rk4(wide, state, ControlInput([-b], wide.control_bounds), np.zeros(2), DT)
        assert eval_h(fence, nxt) == pytest.approx((1.0 - gamma * DT) * h_k, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_sampled_fence_row_admits_full_braking(gamma, model_1d):
    fence = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=gamma)
    rng = np.random.default_rng(13)
    for state in _safe_fence_states(rng, 300) + [PlantState([1.0, 0.0]), PlantState([0.995, 0.1])]:
        a, b = sampled_row(fence, model_1d, state, DT)
        assert float(np.asarray(a) @ [-1.0]) >= b - 1e-12
        braked = step_rk4(model_1d, state, ControlInput([-1.0], model_1d.control_bounds), np.zeros(2), DT)
        assert eval_h(fence, braked) >= (1.0 - gamma * DT) * eval_h(fence, state) - 1e-12


def _braking(state, u_max=1.0):
    v = state.x[2:]
    speed = float(np.hypot(v[0], v[1]))
    return -u_max * v / speed if speed >= u_max * DT else -v / DT


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_sampled_circle_row_admits_braking(gamma, model_2d):
    """u_b keeps the stopping point fixed, so it satisfies the row, inside
    the stopping-point safe set and outside it."""
    circle = BarrierConstraint(
        "circle", GEOFENCE_2D_CIRCLE, {"center": (0.2, -0.1), "radius": 1.0, "u_max": 1.0}, gamma=gamma
    )
    rng = np.random.default_rng(14)
    states = [
        PlantState(np.concatenate([rng.uniform(-1.3, 1.3, 2), rng.uniform(-0.6, 0.6, 2)]))
        for _ in range(300)
    ]
    states += [PlantState([0.9, 0.3, 0.004, -0.003]), PlantState([0.5, 0.5, 0.0, 0.0])]
    for state in states:
        a, b = sampled_row(circle, model_2d, state, DT)
        assert any(a)
        u_b = _braking(state)
        assert np.all(np.abs(u_b) <= 1.0)
        assert float(a @ u_b) >= b - 1e-12


def test_sampled_circle_row_absent_at_centered_stopping_point(circle, model_2d):
    # braking from rest at the center leaves the stopping point there
    assert sampled_row(circle, model_2d, PlantState([0.0, 0.0, 0.0, 0.0]), DT) is None


def test_sampled_circle_row_where_the_braked_speed_squared_underflows(circle, model_2d):
    """Over a period of 2 s the braked speed is about 5e-324, whose square is
    0: the row leaves out the term divided by that square and has authority."""
    a, b = sampled_row(circle, model_2d, PlantState([0.0, -1.0, 0.0, 5e-324]), 2.0)
    assert any(a) and all(map(math.isfinite, (*a, b)))


def test_sampled_row_none_for_speed_limit(speed, model_2d):
    assert sampled_row(speed, model_2d, PlantState([0.0, 0.0, 0.1, 0.2]), DT) is None


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
def test_sampled_row_rejects_bad_period(fence, model_1d, dt):
    with pytest.raises(InvalidConfig):
        sampled_row(fence, model_1d, PlantState([0.0, 0.0]), dt)
