import math
from fractions import Fraction

import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    ControlInput,
    InvalidConfig,
    InvalidDisturbance,
    InvalidState,
    PlantModel,
    PlantState,
    sample_disturbance,
    step_rk4,
)


from asifkit.dynamics import actuation_row, drift_actuation_row, drift_term, hold_map
from tests.oracles import closed_form_step, eval_dynamics


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_structure_helpers_match_eval_dynamics(kind):
    """actuation_row and drift_actuation_row give numpy's grad @ g and
    grad @ (df/dx) @ g bit for bit, zeros included. drift_term gives grad . f
    as the correctly rounded sum of the rounded products (a positive zero
    when it is zero), an exact oracle that no BLAS kernel's fused
    multiply-add can meet by accident."""
    d = 1 if kind == DOUBLE_INTEGRATOR_1D else 2
    model = PlantModel(kind, [[-1.0, 1.0]] * d)
    rng = np.random.default_rng(31)
    # f is linear, so its Jacobian's columns are f at the unit vectors
    jac_f = np.column_stack([eval_dynamics(model, PlantState(e))[0] for e in np.eye(2 * d)])
    for k in range(300):
        x = rng.uniform(-2.0, 2.0, 2 * d)
        grad = rng.uniform(-2.0, 2.0, 2 * d)
        if k % 3 == 0:
            grad[rng.integers(0, 2 * d)] = -0.0
        if k % 5 == 0:
            grad[:d] = 0.0
        if k % 7 == 0:
            x[d:] = 0.0 if k % 2 else -0.0
        state = PlantState(x)
        f, g = eval_dynamics(model, state)
        row = actuation_row(model, grad.tolist())
        assert np.array(row).tobytes() == (grad @ g).tobytes()
        term = drift_term(model, grad.tolist(), x.tolist())
        exact = float(sum(Fraction(g * v) for g, v in zip(grad.tolist()[:d], x.tolist()[d:])))
        assert np.array(term).tobytes() == np.array(exact).tobytes()
        assert np.array_equal(drift_actuation_row(model, grad.tolist()), grad @ jac_f @ g)


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_hold_map_is_the_undisturbed_step(kind):
    d = 1 if kind == DOUBLE_INTEGRATOR_1D else 2
    model = PlantModel(kind, [[-1.0, 1.0]] * d)
    rng = np.random.default_rng(32)
    for dt in (0.01, 0.1):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, 2 * d)
            u = rng.uniform(-1.0, 1.0, d)
            free, k_p, k_v = hold_map(model, x.tolist(), dt)
            held = np.array(free) + np.concatenate([k_p * u, k_v * u])
            stepped = step_rk4(model, PlantState(x), ControlInput(u, model.control_bounds), np.zeros(2 * d), dt)
            assert np.allclose(held, stepped.x, rtol=0.0, atol=1e-14)


def test_step_rk4_closed_form_examples(model_1d):
    u0 = ControlInput([0.0], model_1d.control_bounds)
    out = step_rk4(model_1d, PlantState([0.0, 1.0]), u0, np.zeros(2), 0.1)
    assert np.allclose(out.x, [0.1, 1.0], atol=1e-15)
    assert out.t == pytest.approx(0.1)

    u1 = ControlInput([1.0], model_1d.control_bounds)
    out = step_rk4(model_1d, PlantState([0.0, 0.0]), u1, np.zeros(2), 1.0)
    assert np.allclose(out.x, [0.5, 1.0], atol=1e-15)


def test_step_rk4_equilibrium_fixed_point(model_1d):
    u0 = ControlInput([0.0], model_1d.control_bounds)
    for dt in (0.01, 0.1, 1.0):
        out = step_rk4(model_1d, PlantState([2.0, 0.0]), u0, np.zeros(2), dt)
        assert np.array_equal(out.x, [2.0, 0.0])


def generic_rk4(model, state, u, w, dt):
    """Textbook vector RK4 over eval_dynamics; second route for step_rk4."""

    def deriv(x):
        f, g = eval_dynamics(model, PlantState(x, state.t))
        return f + g @ u.u + w

    x0 = state.x
    k1 = deriv(x0)
    k2 = deriv(x0 + 0.5 * dt * k1)
    k3 = deriv(x0 + 0.5 * dt * k2)
    k4 = deriv(x0 + dt * k3)
    return x0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_step_rk4_matches_generic_vector_rk4(kind):
    rng = np.random.default_rng(8)
    dim = 2 if kind == DOUBLE_INTEGRATOR_1D else 4
    cd = dim // 2
    model = PlantModel(kind, [[-2.0, 2.0]] * cd, disturbance_bound=0.5)
    for _ in range(200):
        x = PlantState(rng.uniform(-3, 3, size=dim))
        u = ControlInput(rng.uniform(-2, 2, size=cd), model.control_bounds)
        w = rng.uniform(-0.2, 0.2, size=dim)
        dt = rng.uniform(0.001, 1.0)
        got = step_rk4(model, x, u, w, dt).x
        want = generic_rk4(model, x, u, w, dt)
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_step_rk4_matches_closed_form(kind):
    rng = np.random.default_rng(42)
    dim = 2 if kind == DOUBLE_INTEGRATOR_1D else 4
    cd = dim // 2
    model = PlantModel(kind, [[-2.0, 2.0]] * cd, disturbance_bound=0.5)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=dim)
        u = rng.uniform(-2, 2, size=cd)
        w = rng.uniform(-0.3, 0.3, size=dim)
        w *= min(1.0, 0.5 / (np.linalg.norm(w) + 1e-12))
        dt = rng.uniform(0.001, 1.0)
        got = step_rk4(model, PlantState(x), ControlInput(u, model.control_bounds), w, dt)
        want = closed_form_step(x, u, w, dt)
        assert np.max(np.abs(got.x - want)) <= 1e-12


def test_step_rk4_deterministic(model_2d):
    u = ControlInput([0.3, -0.7], model_2d.control_bounds)
    x = PlantState([0.1, 0.2, 0.3, 0.4])
    a = step_rk4(model_2d, x, u, np.zeros(4), 0.05)
    b = step_rk4(model_2d, x, u, np.zeros(4), 0.05)
    assert a.x.tobytes() == b.x.tobytes()


def test_step_rk4_errors(model_1d, model_2d):
    u = ControlInput([0.0], model_1d.control_bounds)
    with pytest.raises(InvalidConfig):
        step_rk4(model_1d, PlantState([0.0, 0.0]), u, np.zeros(2), 0.0)
    with pytest.raises(InvalidState):
        step_rk4(model_1d, PlantState([0.0, 0.0]), u, np.zeros(3), 0.1)
    with pytest.raises(InvalidDisturbance):
        step_rk4(model_1d, PlantState([0.0, 0.0]), u, np.array([0.5, 0.5]), 0.1)
    with pytest.raises(InvalidState):
        step_rk4(model_1d, PlantState([0.0, 0.0]), u, np.zeros((2, 1)), 0.1)
    # a NaN in w is a disturbance outside its bound, not a state fault
    for w in ((math.nan, 0.0), np.array([0.0, math.nan])):
        with pytest.raises(InvalidDisturbance):
            step_rk4(model_1d, PlantState([0.0, 0.0]), u, w, 0.1)
    # a step that overflows is a state fault, but finite entries whose sum
    # overflows are not: the new state is tested entry by entry, as
    # PlantState is, so a resting state at 1e308 on both axes steps to itself
    with pytest.raises(InvalidState):
        step_rk4(model_1d, PlantState([1e308, 1e308]), u, np.zeros(2), 0.1)
    state = PlantState([1e308, 1e308, 0.0, 0.0])
    nxt = step_rk4(model_2d, state, ControlInput([0.0, 0.0], model_2d.control_bounds), (0.0,) * 4, 0.1)
    assert nxt.xs == state.xs and nxt.t == 0.1


def test_disturbance_zero_bound(model_1d):
    assert np.array_equal(sample_disturbance(model_1d, 7), np.zeros(2))


def test_disturbance_same_seed_identical():
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.1)
    a = sample_disturbance(model, 123)
    b = sample_disturbance(model, 123)
    assert np.array_equal(a, b)


def test_disturbance_is_numpys_scaled_draw():
    """sample_disturbance returns Python floats equal bit for bit to the
    draw scaled by numpy's elementwise product, from the same stream."""
    for kind, bounds in ((DOUBLE_INTEGRATOR_1D, [[-1, 1]]), (DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]])):
        model = PlantModel(kind, bounds, disturbance_bound=0.05)
        ours, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2000):
            w = sample_disturbance(model, ours)
            direction = ref.standard_normal(model.state_dim)
            magnitude = 0.05 * ref.random()
            want = direction * (magnitude / math.sqrt(sum(c * c for c in direction.tolist())))
            assert type(w) is tuple and {type(c) for c in w} == {float}
            assert np.array(w).tobytes() == want.tobytes()


def test_disturbance_norm_bounded_exhaustive():
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.1)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10_000):
        worst = max(worst, float(np.linalg.norm(sample_disturbance(model, rng))))
    assert worst <= 0.1 * (1 + 1e-12)


def test_disturbance_under_a_huge_bound_is_finite():
    """With a bound near the float maximum, magnitude / norm overflows for a
    direction of norm below 1; the draw is then normalised first and stays
    finite within the bound."""
    for kind, bounds in ((DOUBLE_INTEGRATOR_1D, [[-1, 1]]), (DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]])):
        model = PlantModel(kind, bounds, disturbance_bound=1.7e308)
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = sample_disturbance(model, rng)
            assert all(map(math.isfinite, w)) and math.hypot(*w) <= 1.7e308 * (1 + 1e-9)


def test_values_compare_and_hash():
    """ControlInput compares and hashes by its command and keeps no bounds;
    PlantModel compares and hashes by kind, box and disturbance bound."""
    a = ControlInput([0.5], [[-1, 1]])
    assert a == ControlInput([0.5], np.array([[-1.0, 1.0]])) and hash(a) == hash(ControlInput([0.5], [[-1, 1]]))
    assert a != ControlInput([0.25], [[-1, 1]]) and not hasattr(a, "bounds")
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.05)
    same = PlantModel(DOUBLE_INTEGRATOR_2D, np.array([[-1.0, 1.0], [-1.0, 1.0]]), 0.05)
    assert model == same and hash(model) == hash(same) and len({model, same}) == 1
    for other in (
        PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 2]], 0.05),
        PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], 0.1),
        PlantModel(DOUBLE_INTEGRATOR_1D, [[-1, 1]], 0.05),
    ):
        assert model != other
    assert not model.control_bounds.flags.writeable and model.control_bounds[:, 1].tolist() == [1.0, 1.0]


def test_plant_state_rejects_nonfinite():
    with pytest.raises(InvalidState):
        PlantState([np.nan, 0.0])
    with pytest.raises(InvalidState):
        PlantState([np.inf, 0.0])


def test_plant_state_rejects_non_vectors():
    for x in (np.zeros((2, 2)), 5.0, [[0.0], [0.0]], "ab", [0.0, "a"], {"p": 0.0}):
        with pytest.raises(InvalidState):
            PlantState(x)


def test_values_leave_the_callers_arrays_writable(model_1d):
    """The constructors copy their input into a tuple of floats: the
    caller's array stays writable, and writing it later changes nothing."""
    x = np.array([0.25, -0.5])
    u = np.array([0.5])
    bounds = np.array([[-1.0, 1.0]])
    state = PlantState(x)
    command = ControlInput(u, bounds)
    assert x.flags.writeable and u.flags.writeable and bounds.flags.writeable
    x[0] = 9.0
    u[0] = -9.0
    assert state.xs == (0.25, -0.5) and command.us == (0.5,)
    for values, array in ((state.xs, state.x), (command.us, command.u)):
        assert {type(c) for c in values} == {float}
        assert array.dtype == np.float64 and not array.flags.writeable
        assert array.tolist() == list(values)


def test_control_input_bounds_enforced(model_1d):
    with pytest.raises(InvalidState):
        ControlInput([2.0], model_1d.control_bounds)
    with pytest.raises(InvalidConfig):
        ControlInput([0.0], [[1.0, -1.0]])
    for u in ([[0.0]], 0.0, ["a"], {"u": 0.0}):
        with pytest.raises(InvalidState):
            ControlInput(u, model_1d.control_bounds)


def test_model_validation():
    with pytest.raises(InvalidConfig):
        PlantModel("hovercraft", [[-1, 1]])
    with pytest.raises(InvalidConfig):
        PlantModel(DOUBLE_INTEGRATOR_1D, [[-1, 1], [-1, 1]])
    with pytest.raises(InvalidConfig):
        PlantModel(DOUBLE_INTEGRATOR_1D, [[-1, 1]], disturbance_bound=-0.1)
