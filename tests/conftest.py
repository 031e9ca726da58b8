import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    SPEED_LIMIT,
    BarrierConstraint,
    PlantModel,
)


class Unreachable:
    """Stands in for numpy in a module under test: any attribute access
    raises."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached on a path that must not use numpy")


def same_floats(got, want) -> bool:
    """Whether two float sequences hold NaN at the same entries and every
    other entry bit for bit. IEEE 754 leaves the sign and payload of a NaN
    result unspecified, and CPython's float add does give a NaN of either
    sign for +NaN + -NaN, depending on whether a tracer runs."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(got)
    return got.shape == want.shape and np.array_equal(nan, np.isnan(want)) and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture
def model_1d():
    return PlantModel(DOUBLE_INTEGRATOR_1D, [[-1.0, 1.0]])


@pytest.fixture
def model_2d():
    return PlantModel(DOUBLE_INTEGRATOR_2D, [[-1.0, 1.0], [-1.0, 1.0]])


@pytest.fixture
def fence():
    return BarrierConstraint(
        "fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0}, gamma=1.0, hazard_id="H1"
    )


@pytest.fixture
def circle():
    return BarrierConstraint(
        "circle",
        GEOFENCE_2D_CIRCLE,
        {"center": (0.0, 0.0), "radius": 1.0, "u_max": 1.0},
        gamma=1.0,
        hazard_id="H2",
    )


@pytest.fixture
def speed():
    return BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 0.5}, gamma=1.0, hazard_id="H3")


def scenario_1d(
    rta_enabled=True,
    duration=5.0,
    dt=0.01,
    seed=0,
    gamma=1.0,
    initial_state=(0.0, 0.0),
    disturbance_bound=0.0,
    controller=None,
):
    """Adversarial 1D geofence scenario config dict."""
    return {
        "model": {
            "kind": "double_integrator_1d",
            "control_bounds": [[-1.0, 1.0]],
            "disturbance_bound": disturbance_bound,
        },
        "controller": controller or {"kind": "adversarial", "target_constraint_id": "fence"},
        "constraints": [
            {
                "id": "fence",
                "kind": "geofence_1d",
                "params": {"p_limit": 1.0, "u_max": 1.0},
                "gamma": gamma,
                "hazard_id": "H1",
            }
        ],
        "dt": dt,
        "duration": duration,
        "initial_state": list(initial_state),
        "seed": seed,
        "mode_schedule": [{"time": 0.0, "rta_enabled": bool(rta_enabled)}],
    }


def scenario_2d(
    rta_enabled=True,
    duration=5.0,
    dt=0.01,
    seed=0,
    gamma=1.0,
    initial_state=(0.3, -0.2, 0.1, 0.1),
    disturbance_bound=0.0,
):
    """Adversarial 2D circle geofence scenario with a speed-limit co-constraint
    (the braking form needs bounded tangential speed to stay feasible)."""
    return {
        "model": {
            "kind": "double_integrator_2d",
            "control_bounds": [[-1.0, 1.0], [-1.0, 1.0]],
            "disturbance_bound": disturbance_bound,
        },
        "controller": {"kind": "adversarial", "target_constraint_id": "circle"},
        "constraints": [
            {
                "id": "circle",
                "kind": "geofence_2d_circle",
                "params": {"center": [0.0, 0.0], "radius": 1.0, "u_max": 1.0},
                "gamma": gamma,
                "hazard_id": "H2",
            },
            {
                "id": "speed",
                "kind": "speed_limit",
                "params": {"v_max": 0.5},
                "gamma": 1.0,
                "hazard_id": "H3",
            },
        ],
        "dt": dt,
        "duration": duration,
        "initial_state": list(initial_state),
        "seed": seed,
        "mode_schedule": [{"time": 0.0, "rta_enabled": bool(rta_enabled)}],
    }


def sample_safe_state_1d(rng, h_min=0.05):
    """Random state with fence barrier value at least h_min."""
    while True:
        p = rng.uniform(-1.5, 1.0)
        v = rng.uniform(-1.5, 1.5)
        if 1.0 - p - v * abs(v) / 2.0 >= h_min:
            return np.array([p, v])


def sample_safe_state_2d(rng, h_min=0.05, v_max=0.5):
    """Random state safe for both the circle and speed constraints."""
    while True:
        pos = rng.uniform(-1.0, 1.0, size=2)
        vel = rng.uniform(-v_max, v_max, size=2)
        d = float(np.hypot(pos[0], pos[1]))
        if d < 0.05:
            continue
        v_r = float(pos @ vel) / d
        h_circle = 1.0 - d - max(0.0, v_r) ** 2 / 2.0
        h_speed = v_max**2 - float(vel @ vel)
        if h_circle >= h_min and h_speed >= h_min:
            return np.concatenate([pos, vel])
