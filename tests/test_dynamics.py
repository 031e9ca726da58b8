import math
import struct

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence, default_rng

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    AdversarialController,
    BarrierConstraint,
    ControlInput,
    InvalidConfig,
    InvalidDisturbance,
    InvalidState,
    MlpSpec,
    NnController,
    NonFiniteState,
    PdController,
    PlantModel,
    PlantState,
    desired_control,
    dynamics,
    sample_disturbance,
    step_rk4,
)

from tests import oracles
from tests.oracles import closed_form_step, eval_dynamics


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_hold_map_is_the_undisturbed_step(kind):
    """The held step that barrier.filter_rows writes out, per axis position
    p + v dt + k_p u and velocity v + k_v u with k_p = dt^2/2 and k_v = dt,
    is step_rk4's step without disturbance."""
    d = 1 if kind == DOUBLE_INTEGRATOR_1D else 2
    model = PlantModel(kind, [[-1.0, 1.0]] * d)
    rng = np.random.default_rng(32)
    for dt in (0.01, 0.1):
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, 2 * d)
            u = rng.uniform(-1.0, 1.0, d)
            p, v = x[:d], x[d:]
            held = np.concatenate([p + v * dt + 0.5 * dt * dt * u, v + dt * u])
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
    """A zero bound gives zeros without reading the argument, whatever it is."""

    def unread():
        pytest.fail("the stream was read")
        yield

    for source in (unread(), 7, None):
        assert sample_disturbance(model_1d, source) == (0.0, 0.0)


def test_disturbance_reads_only_a_stream():
    """Under a nonzero bound the argument is an iterator of disturbances: an
    int seed or a numpy Generator is not one, and next raises TypeError."""
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.1)
    for source in (7, default_rng(7)):
        with pytest.raises(TypeError, match="is not an iterator"):
            sample_disturbance(model, source)
    assert sample_disturbance(model, iter([(0.5, 0.25, 0.0, 0.0)])) == (0.5, 0.25, 0.0, 0.0)


def test_disturbance_same_seed_identical():
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.1)
    a = dynamics.disturbance_stream(model, 123, 50)
    b = dynamics.disturbance_stream(model, 123, 50)
    assert [sample_disturbance(model, a) for _ in range(50)] == [sample_disturbance(model, b) for _ in range(50)]


def test_disturbance_is_numpys_scaled_draw():
    """A stream's disturbances are Python floats equal bit for bit to the
    draws of its two child streams scaled by numpy's elementwise product."""
    for kind, bounds in ((DOUBLE_INTEGRATOR_1D, [[-1, 1]]), (DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]])):
        model = PlantModel(kind, bounds, disturbance_bound=0.05)
        stream = dynamics.disturbance_stream(model, 3, 2000)
        direction_rng, magnitude_rng = map(default_rng, SeedSequence(3).spawn(2))
        for _ in range(2000):
            w = sample_disturbance(model, stream)
            direction = direction_rng.standard_normal(model.state_dim)
            magnitude = 0.05 * magnitude_rng.random()
            want = direction * (magnitude / math.sqrt(sum(c * c for c in direction.tolist())))
            assert type(w) is tuple and {type(c) for c in w} == {float}
            assert np.array(w).tobytes() == want.tobytes()


def test_disturbance_norm_bounded_exhaustive():
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]], disturbance_bound=0.1)
    stream = dynamics.disturbance_stream(model, 0, 10_000)
    worst = max(float(np.linalg.norm(sample_disturbance(model, stream))) for _ in range(10_000))
    assert worst <= 0.1 * (1 + 1e-12)


def test_disturbance_under_a_huge_bound_is_finite():
    """With a bound near the float maximum, magnitude / norm overflows for a
    direction of norm below 1; the draw is then normalised first and stays
    finite within the bound."""
    for kind, bounds in ((DOUBLE_INTEGRATOR_1D, [[-1, 1]]), (DOUBLE_INTEGRATOR_2D, [[-1, 1], [-1, 1]])):
        model = PlantModel(kind, bounds, disturbance_bound=1.7e308)
        stream = dynamics.disturbance_stream(model, 5, 200)
        for _ in range(200):
            w = sample_disturbance(model, stream)
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


@pytest.mark.parametrize("bounds", [[[-1.0, np.inf]], [[1.0, 1.0]], [[1.0, -1.0]], [[np.nan, 1.0]]])
def test_control_bounds_must_be_finite_and_increasing(bounds):
    with pytest.raises(InvalidConfig, match="^control bounds must be finite with u_min < u_max$"):
        PlantModel(DOUBLE_INTEGRATOR_1D, bounds)


# ---- the written-out step against the per-axis loops ----


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


# entries that reach the step's edge cases: signed zeros, subnormals, and
# values whose stage sums overflow
STEP_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308)


def _step_entries(rng, n):
    """n entries, each normal with a drawn scale or, one time in six, a
    special entry."""
    return [
        STEP_ENTRIES[rng.integers(len(STEP_ENTRIES))] if rng.random() < 1 / 6 else float(rng.normal() * 10.0 ** rng.integers(-3, 4))
        for _ in range(n)
    ]


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_step_rk4_matches_the_per_axis_loop(kind):
    """The written-out stages give the per-axis loop's floats bit for bit,
    and raise NonFiniteState naming the loop's list exactly when an entry
    of it is not finite."""
    d = 1 if kind == DOUBLE_INTEGRATOR_1D else 2
    model = PlantModel(kind, [[-2.0, 3.0]] * d, disturbance_bound=1.7e308)
    rng = np.random.default_rng(19)
    raised = 0
    for _ in range(4000):
        xs = tuple(_step_entries(rng, 2 * d))
        us = tuple(float(v) for v in rng.choice([-2.0, -0.0, 0.0, 5e-324, 3.0, rng.uniform(-2.0, 3.0)], size=d))
        ws = tuple(_step_entries(rng, 2 * d))
        if math.hypot(*ws) > 1.7e308:
            ws = (0.0,) * (2 * d)
        dt = float(rng.choice([1e-3, 0.01, 0.1, 1.0, rng.uniform(0.0, 2.0), 1e300]))
        state = PlantState._trusted(xs, 0.5)
        want = oracles.rk4_stages(model, xs, us, ws, dt)
        if all(map(math.isfinite, want)):
            got = step_rk4(model, state, ControlInput._trusted(us), ws, dt)
            assert _bits(got.xs) == _bits(want) and got.t == 0.5 + dt, (xs, us, ws, dt)
        else:
            raised += 1
            with pytest.raises(NonFiniteState) as info:
                step_rk4(model, state, ControlInput._trusted(us), ws, dt)
            assert str(info.value) == f"non-finite state entries: {want}"
    assert 100 < raised < 3900


class _ScriptedGenerator(Generator):
    """A Generator whose standard_normal and random return scripted values."""

    def __init__(self, directions, uniforms):
        super().__init__(PCG64(0))
        self._directions = iter(directions)
        self._uniforms = iter(uniforms)

    def standard_normal(self, size=None):
        return np.array(next(self._directions), dtype=float)

    def random(self):
        return next(self._uniforms)


def _child_draws(seed, n, count):
    """A Generator that hands out the draws of a disturbance_stream of
    count steps seeded with seed one at a time: count standard_normal(n)
    directions from the first child of SeedSequence(seed) and count
    random() magnitudes from the second, each drawn one by one."""
    direction_rng, magnitude_rng = map(default_rng, SeedSequence(seed).spawn(2))
    return _ScriptedGenerator(
        (direction_rng.standard_normal(n) for _ in range(count)), (magnitude_rng.random() for _ in range(count))
    )


@pytest.mark.parametrize("kind", [DOUBLE_INTEGRATOR_1D, DOUBLE_INTEGRATOR_2D])
def test_sample_disturbance_matches_the_generic_loop(kind):
    """The block scaling gives the loop's floats bit for bit, from the same
    draws: for disturbance_streams of many seeds and lengths against the
    loop on their two child streams drawn one by one, and for one block of
    scripted draws, also where the scale overflows or the direction is
    zero."""
    n = 2 if kind == DOUBLE_INTEGRATOR_1D else 4
    for bound in (0.0, 5e-324, 0.05, 1.0, 1e300, 1.7e308):
        model = PlantModel(kind, [[-1.0, 1.0]] * (n // 2), disturbance_bound=bound)
        for seed, count in [(11, 300)] + [(seed, 1 + seed % 3) for seed in range(30)]:
            stream = dynamics.disturbance_stream(model, seed, count)
            one_by_one = _child_draws(seed, n, count)
            for _ in range(count):
                assert _bits(sample_disturbance(model, stream)) == _bits(oracles.sample_disturbance(model, one_by_one))
    model = PlantModel(kind, [[-1.0, 1.0]] * (n // 2), disturbance_bound=1.7e308)
    directions = [[0.0, -0.0] * (n // 2), [5e-324] * n, [1e-160, -0.0] * (n // 2), [-1e-3] * n, [1e154] * n, [3.0, -4.0] * (n // 2)]
    uniforms = [0.0, 0.999, 1.0, 0.5, 1e-300, 0.25]
    scripted = _ScriptedGenerator(directions, uniforms)
    want = [oracles.sample_disturbance(model, scripted) for _ in directions]
    got = list(dynamics._scaled(model.disturbance_bound, np.array(directions), np.array(uniforms)))
    assert [_bits(w) for w in got] == [_bits(w) for w in want]
    # a zero direction draws zeros; a tiny one over a huge magnitude is normalised first
    assert got[0] == (0.0,) * n
    assert all(map(math.isfinite, got[2] + got[3])) and any(got[2]) and any(got[3])


# ---- seeded cases of the plant side of a step, for tools/differential.py ----


def _draws(model, seed, n):
    """n draws from one disturbance_stream seeded with seed."""
    stream = dynamics.disturbance_stream(model, seed, n)
    return tuple(sample_disturbance(model, stream) for _ in range(n))


def _plant_disturbance(rng, model):
    """A disturbance for model: a tuple, list or array of floats within the
    bound, ints, entries that are not numbers, a wrong length, a NaN or inf
    entry, or a norm just above the bound."""
    n = model.state_dim
    bound = model.disturbance_bound
    w = rng.normal(size=n)
    w = w / np.linalg.norm(w)
    pick = rng.integers(11)
    if pick == 0:
        return [int(v) for v in rng.integers(-1, 2, size=n)]
    if pick == 10:
        return ["a", None, 0.0][rng.integers(3):]
    if pick == 1:
        return tuple(w.tolist()) + (0.0,) * int(rng.choice([-1, 1]))
    if pick == 2:
        w[rng.integers(n)] = rng.choice([math.nan, math.inf, -math.inf])
    elif pick == 3:
        w = w * (bound * (1.0 + 2e-9) + 1e-300)
    else:
        w = w * (bound * rng.uniform(0.0, 1.0))
    if pick == 4:
        return w.tolist()
    return w if pick == 5 else tuple(w.tolist())


def plant_cases(rng, count):
    """count seeded (function, args) cases for each of step_rk4, _draws
    and desired_control, on both state sizes.

    step_rk4 gets states with special entries (states built without the
    public checks, some of the wrong size or whose step overflows), commands
    in and outside the box, the disturbances of _plant_disturbance, and
    periods that are not positive, huge or NaN. _draws takes one draw or
    three from a seeded disturbance_stream under bounds from 0 to a huge
    bound over a tiny norm. desired_control gets adversarial, PD and NN
    controllers, some of them wrong for the model or giving a non-finite
    output."""
    models = {}
    for kind, d in ((DOUBLE_INTEGRATOR_1D, 1), (DOUBLE_INTEGRATOR_2D, 2)):
        models[d] = [PlantModel(kind, [[-1.0, 1.0], [-0.5, 2.0]][:d], bound) for bound in (0.0, 5e-324, 0.05, 1.5, 1.7e308)]
    cases = []
    for _ in range(count):
        d = int(rng.integers(1, 3))
        model = models[d][rng.integers(5)]
        xs = _step_entries(rng, 2 * d + (int(rng.choice([-1, 1])) if rng.random() < 0.02 else 0))
        us = [float(rng.uniform(lo, hi)) for lo, hi in model._box]
        if rng.random() < 0.1:
            us[rng.integers(d)] = float(rng.choice([-1.5, 2.5, math.nan]))
        elif rng.random() < 0.02:
            us.append(0.0)
        dt = float(rng.choice([0.01, 0.1, rng.uniform(0.0, 1.0), 0.0, -0.1, 1e300, math.nan], p=[0.3, 0.3, 0.3, 0.025, 0.025, 0.025, 0.025]))
        args = (model, PlantState._trusted(tuple(xs), 0.0), ControlInput._trusted(tuple(us)), _plant_disturbance(rng, model), dt)
        cases.append((step_rk4, args))
    for _ in range(count):
        model = models[int(rng.integers(1, 3))][rng.integers(5)]
        seed = int(rng.integers(2**32))
        cases.append((_draws, (model, seed, 1 if rng.random() < 0.5 else 3)))
    fence = BarrierConstraint("c", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0})
    circle = BarrierConstraint("c", GEOFENCE_2D_CIRCLE, {"center": [0.2, -0.1], "radius": 1.5, "u_max": 1.0})
    for _ in range(count):
        d = int(rng.integers(1, 3))
        model = models[d][0]
        xs = _step_entries(rng, 2 * d)
        pick = rng.integers(3)
        if pick == 0:
            controller = AdversarialController("c").bind(fence if d == 1 else circle)
            xs = [v if abs(v) < 1e6 else 0.0 for v in xs]
            if d == 2 and rng.random() < 0.2:
                xs[:2] = [0.2, -0.1]  # the circle's center, where its gradient vanishes
        elif pick == 1:
            gains = d + (rng.random() < 0.1)
            controller = PdController(tuple(rng.uniform(0.0, 3.0, gains).tolist()), tuple(rng.uniform(0.0, 3.0, gains).tolist()))
        else:
            outputs = d + (rng.random() < 0.1)
            sizes = (2 * d, 8, outputs)
            spec = MlpSpec(
                sizes,
                tuple(rng.normal(size=(m, n)) for n, m in zip(sizes, sizes[1:])),
                tuple(rng.normal(size=m) for m in sizes[1:]),
                ("tanh", "linear"),
            )
            controller = NnController(spec)
        cases.append((desired_control, (controller, PlantState._trusted(tuple(xs), 0.0), model)))
    return cases


def plant_outcome(function, args):
    """The call's result as its repr, which tells -0.0 and NaN apart, or its
    error's type and message."""
    try:
        with np.errstate(all="ignore"):  # an MLP's products may overflow
            return repr(function(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_plant_cases_reach_every_check():
    """The cases plant_cases draws for the differential set reach each
    public check of step_rk4 and desired_control, and draw a stream's
    disturbances, one or three, under every bound from 0 to the huge one
    over a tiny norm, each a tuple."""
    cases = plant_cases(np.random.default_rng(0), 600)
    outcomes = [plant_outcome(*case) for case in cases]
    kinds = {outcome.split(":")[0].split("(")[0] for outcome in outcomes}
    assert kinds >= {
        "",  # a draw's tuple, or a tuple of three
        "PlantState", "ControlInput", "InvalidConfig", "InvalidState", "InvalidDisturbance", "NonFiniteState",
        "NonFiniteCommand", "SingularGradient",
    }, kinds
    messages = "\n".join(outcomes)
    for text in ("disturbance is not", "disturbance dim", "control outside model bounds", "state dim",
                 "does not match control dim", "pd gains"):
        assert text in messages, text
    draws = [(args[0].disturbance_bound, outcome) for (function, args), outcome in zip(cases, outcomes)
             if function is _draws]
    assert {bound for bound, _ in draws} == {0.0, 5e-324, 0.05, 1.5, 1.7e308}
    assert all(outcome.startswith("(") for _, outcome in draws)
