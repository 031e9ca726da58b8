import math
import sys
from itertools import islice

import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    SPEED_LIMIT,
    AsifKitError,
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
    filter_rows,
    step_rk4,
)
from asifkit import asif, barrier
from asifkit.barrier import check_bounds_consistency, constraint_from_config
from tests import oracles
from tests.test_least_max_violation import multirow_cases


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


def test_circle_singular_gradient(circle, model_2d):
    """At the center the gradient and so the row are undefined, while h is
    still the radius."""
    state = PlantState([0.0, 0.0, 1.0, 0.0])
    for call in (lambda: eval_grad_h(circle, state), lambda: cbf_row(circle, model_2d, state)):
        with pytest.raises(SingularGradient) as err:
            call()
        assert err.value.constraint_id == "circle"
    assert eval_h(circle, state) == circle.params["radius"]


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


def test_constraints_compare_and_hash():
    """Constraints built alike are equal and hash alike, with params read
    back from a config mapping or given as a tuple centre; a change to any
    field, params included, makes them unequal."""
    cfg = {"id": "c", "kind": GEOFENCE_2D_CIRCLE, "params": {"center": [0.0, 1.0], "radius": 1.0, "u_max": 1.0}}
    a = constraint_from_config(dict(cfg, gamma=2.0, hazard_id="H2"))
    b = BarrierConstraint("c", GEOFENCE_2D_CIRCLE, {"center": (0.0, 1.0), "radius": 1, "u_max": 1.0}, 2, "H2")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    others = [
        BarrierConstraint("d", GEOFENCE_2D_CIRCLE, b.params, 2.0, "H2"),
        BarrierConstraint("c", GEOFENCE_2D_CIRCLE, dict(b.params, radius=0.5), 2.0, "H2"),
        BarrierConstraint("c", GEOFENCE_2D_CIRCLE, dict(b.params, center=(0.0, 0.0)), 2.0, "H2"),
        BarrierConstraint("c", GEOFENCE_2D_CIRCLE, b.params, 1.0, "H2"),
        BarrierConstraint("c", GEOFENCE_2D_CIRCLE, b.params, 2.0, "H3"),
        BarrierConstraint("c", SPEED_LIMIT, {"v_max": 1.0}, 2.0, "H2"),
    ]
    for other in others:
        assert other != a and hash(other) == hash(other)


# ---- sampled-data rows ----

DT = 0.01


def _sampled(constraint, model, state, dt):
    """filter_rows' sampled row, checked against the reference's by repr."""
    row = filter_rows(constraint, model, state, dt)[1]
    reference = oracles.barrier_sampled_row(constraint, model, state, dt)
    assert repr(row) == repr(None if reference is None else (*reference[0], reference[1]))
    return row


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
        *a, b = _sampled(fence, wide, state, DT)
        assert np.array_equal(a, [-1.0])
        h_k = eval_h(fence, state)
        nxt = step_rk4(wide, state, ControlInput([-b], wide.control_bounds), np.zeros(2), DT)
        assert eval_h(fence, nxt) == pytest.approx((1.0 - gamma * DT) * h_k, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_sampled_fence_row_admits_full_braking(gamma, model_1d):
    fence = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=gamma)
    rng = np.random.default_rng(13)
    for state in _safe_fence_states(rng, 300) + [PlantState([1.0, 0.0]), PlantState([0.995, 0.1])]:
        *a, b = _sampled(fence, model_1d, state, DT)
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
        *a, b = _sampled(circle, model_2d, state, DT)
        assert any(a)
        u_b = _braking(state)
        assert np.all(np.abs(u_b) <= 1.0)
        assert float(np.asarray(a) @ u_b) >= b - 1e-12


def test_sampled_circle_row_absent_at_centered_stopping_point(circle, model_2d):
    """Braking over the period stops the plant on the center, so there is
    no sampled row; the continuous row stands."""
    state = PlantState([-0.0625, 0.0, 0.25, 0.0])
    assert _sampled(circle, model_2d, state, 0.5) is None
    assert filter_rows(circle, model_2d, state, 0.5) == ((0.0, 0.0, -1.1875), None)


def test_sampled_circle_row_where_the_braked_speed_squared_underflows(circle, model_2d):
    """Over a period of 2 s the braked speed is about 5e-324, whose square is
    0: the row leaves out the term divided by that square and has authority."""
    *a, b = _sampled(circle, model_2d, PlantState([0.0, -1.0, 0.0, 5e-324]), 2.0)
    assert any(a) and all(map(math.isfinite, (*a, b)))


def test_sampled_circle_row_at_rest_where_the_braking_step_underflows(model_2d):
    """At rest, with u_max * dt underflowing to 0, the row is built on the
    command that stops the plant (zero), not on a division by the speed."""
    circle = BarrierConstraint("circle", GEOFENCE_2D_CIRCLE, {"center": (0.0, 0.0), "radius": 1.0, "u_max": 1e-300})
    *a, b = _sampled(circle, model_2d, PlantState([0.0, 0.5, 0.0, 0.0]), 1e-30)
    assert any(a) and all(map(math.isfinite, (*a, b)))


def test_sampled_row_none_for_speed_limit(speed, model_2d):
    assert _sampled(speed, model_2d, PlantState([0.0, 0.0, 0.1, 0.2]), DT) is None


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf"), 1e300, 1e-170])
def test_sampled_row_rejects_bad_period(fence, circle, speed, model_1d, model_2d, dt):
    """A period that is not finite and > 0, or whose 0.5*dt*dt underflows
    to 0 or overflows, is rejected: at dt = inf or 1e300 the rows would be
    NaN."""
    for constraint, model, state in (
        (fence, model_1d, PlantState([0.99, 0.5])),
        (circle, model_2d, PlantState([0.9, 0.0, 0.5, 0.0])),
        (speed, model_2d, PlantState([0.0, 0.0, 0.1, 0.2])),
    ):
        with pytest.raises(InvalidConfig):
            filter_rows(constraint, model, state, dt)


# ---- the entry points against the reference composition ----

# entries that reach the kernels' edge cases: signed zeros, values whose
# squares underflow or overflow, and non-finite values
SPECIAL_ENTRIES = (0.0, -0.0, 1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300, math.inf, -math.inf, math.nan)
PERIODS = (0.001, 0.01, 0.1, 2.0)


def _entries(rng, n):
    """n state entries, each uniform in [-2, 2] or, one time in six, a
    special entry."""
    return [
        SPECIAL_ENTRIES[rng.integers(len(SPECIAL_ENTRIES))] if rng.random() < 1 / 6 else float(rng.uniform(-2.0, 2.0))
        for _ in range(n)
    ]


def barrier_cases(rng, count):
    """count seeded (constraint, model, state, dt) cases for each of four
    kinds: a 1-D fence, a circle, and a speed limit on each state size.
    Entries are drawn by _entries, so they include signed zeros, tiny, huge
    and non-finite values (states built without the public checks); a
    circle's state sits on its center one time in ten. One case in fifty
    has a state of the wrong size for the constraint or the model."""
    model_1d = PlantModel(DOUBLE_INTEGRATOR_1D, [[-1.0, 1.0]])
    model_2d = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1.0, 1.0]] * 2)
    cases = []
    for kind, model in ((GEOFENCE_1D, model_1d), (GEOFENCE_2D_CIRCLE, model_2d), (SPEED_LIMIT, model_1d), (SPEED_LIMIT, model_2d)):
        for _ in range(count):
            gamma = float(rng.choice([0.5, 1.0, 2.0, 37.0]))
            u_max = float(rng.choice([0.5, 1.0, 3.0]))
            if kind == GEOFENCE_1D:
                params = {"p_limit": float(rng.uniform(0.1, 2.0)), "u_max": u_max}
            elif kind == GEOFENCE_2D_CIRCLE:
                params = {"center": tuple(rng.uniform(-1.0, 1.0, 2).tolist()), "radius": float(rng.uniform(0.5, 2.0)), "u_max": u_max}
            else:
                params = {"v_max": float(rng.uniform(0.1, 2.0))}
            constraint = BarrierConstraint("c", kind, params, gamma)
            xs = _entries(rng, model.state_dim)
            if kind == GEOFENCE_2D_CIRCLE and rng.random() < 0.1:
                xs[:2] = params["center"]
            if rng.random() < 0.02:
                xs = _entries(rng, 6 - model.state_dim)
            cases.append((constraint, model, PlantState._trusted(tuple(xs), 0.0), float(rng.choice(PERIODS))))
    return cases


def _outcome(call, *args):
    """The call's result as its repr, which tells -0.0 and NaN apart, or the
    type of the error it raised."""
    try:
        return repr(call(*args))
    except Exception as exc:
        return type(exc).__name__


def _rows_outcome(call, *args, errors=AsifKitError):
    """The call's result by repr, or its error, one of errors, by type and
    message."""
    try:
        return repr(call(*args))
    except errors as exc:
        return type(exc).__name__, str(exc)


def barrier_outcomes(constraint, model, state, dt, entry_points=(eval_h, eval_grad_h, cbf_row, filter_rows), errors=AsifKitError):
    """The outcomes of eval_h, eval_grad_h, cbf_row and filter_rows, or of
    the given functions in their place, on one case: filter_rows' error, one
    of errors (a package's AsifKitError), by its type and message, the
    others' by type."""
    h, grad_h, row, rows = entry_points
    return (
        _outcome(h, constraint, state),
        _outcome(grad_h, constraint, state),
        _outcome(row, constraint, model, state),
        _rows_outcome(rows, constraint, model, state, dt, errors=errors),
    )


# the period check's message, as filter_rows gives it
PERIOD_ERROR = "dt must be > 0 with 0.5*dt*dt finite and nonzero, got {}"
BAD_PERIODS = (0.0, -0.01, math.nan, math.inf, 1e300, 1e-170)


def _reference_filter_rows(constraint, model, state, dt, row=oracles.barrier_cbf_row):
    """The continuous row from row (the reference's by default) and the
    reference sampled row, both as solver rows (a..., b); row's error
    first, then the period's with filter_rows' message."""
    a, b = row(constraint, model, state)
    try:
        sampled = oracles.barrier_sampled_row(constraint, model, state, dt)
    except InvalidConfig:
        raise InvalidConfig(PERIOD_ERROR.format(dt)) from None
    return a + (b,), None if sampled is None else (*sampled[0], sampled[1])


def test_entry_points_match_the_reference_composition():
    """Each entry point gives the reference's result by repr, or raises an
    error of the same type: h, the gradient, the row composed from the
    whole gradient with an exactly rounded drift term, and filter_rows'
    rows, whose sampled row the reference builds on the params mapping,
    also for periods the check rejects."""
    references = (oracles.barrier_eval_h, oracles.barrier_eval_grad_h, oracles.barrier_cbf_row, _reference_filter_rows)
    rng = np.random.default_rng(41)
    for constraint, model, state, dt in barrier_cases(rng, 500):
        if rng.random() < 0.1:
            dt = float(rng.choice([0.0, -0.01, math.nan, math.inf, 1e300, 1e-170, 2e154]))
        expected = barrier_outcomes(constraint, model, state, dt, references)
        assert barrier_outcomes(constraint, model, state, dt) == expected, (constraint, state.xs, dt)


# ---- the filter's kernel: both rows of a constraint from one call ----


@pytest.mark.parametrize("dt", PERIODS + BAD_PERIODS)
def test_filter_rows_are_cbf_row_and_the_reference_sampled_row(dt):
    """filter_rows gives cbf_row's row and the reference sampled row bit for
    bit, or cbf_row's error and then the period's, by type and message: a
    wrong state size, a circle's center, then a bad period, also for a
    speed limit."""
    rng = np.random.default_rng(43)
    seen = set()
    for constraint, model, state, _ in barrier_cases(rng, 150):
        expected = _rows_outcome(_reference_filter_rows, constraint, model, state, dt, cbf_row)
        assert _rows_outcome(filter_rows, constraint, model, state, dt) == expected, (constraint, state.xs, dt)
        seen.add(expected[0] if isinstance(expected, tuple) else ("nan" if "nan" in expected else "row"))
    if dt in PERIODS:
        assert seen == {"InvalidState", "SingularGradient", "nan", "row"}
    else:
        assert seen == {"InvalidState", "SingularGradient", "InvalidConfig"}


def _barrier_calls(call, *args):
    """The calls into functions of the barrier module that call makes, and
    its result."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == barrier.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = call(*args)
    finally:
        sys.setprofile(None)
    return calls, out


@pytest.mark.parametrize("dt", [None, 0.01])
def test_assemble_qp_makes_one_barrier_call_per_constraint(dt):
    """Given dt, assemble_qp makes one call into the barrier module per
    constraint, filter_rows, and without it one, cbf_row: on 1-D fence
    states and on the multirow 2-D problems of three circles and a speed
    limit."""
    model_1d = PlantModel(DOUBLE_INTEGRATOR_1D, [[-1.0, 1.0]])
    fence = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0})
    rng = np.random.default_rng(61)
    cases = [([fence], model_1d, PlantState(x), ControlInput([0.0], model_1d.control_bounds)) for x in rng.uniform(-0.9, 0.9, (50, 2))]
    cases += list(islice(multirow_cases(np.random.default_rng(31)), 50))
    name = "cbf_row" if dt is None else "filter_rows"
    for constraints, model, state, u_des in cases:
        calls, qp = _barrier_calls(asif.assemble_qp, constraints, model, state, u_des, dt)
        assert calls == [name] * len(constraints) and qp.rows
