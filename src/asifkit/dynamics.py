"""Control-affine plant models and deterministic integration.

Plants have dynamics xdot = f(x) + g(x) u + w with a per-axis box on u and a
norm bound on the additive disturbance w. Two double-integrator models are
provided; both are linear, so the fixed-step RK4 integrator reproduces the
closed-form state transition exactly (up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, InvalidDisturbance, InvalidState

DOUBLE_INTEGRATOR_1D = "double_integrator_1d"
DOUBLE_INTEGRATOR_2D = "double_integrator_2d"

_MODEL_DIMS = {
    DOUBLE_INTEGRATOR_1D: (2, 1),
    DOUBLE_INTEGRATOR_2D: (4, 2),
}


@dataclass(frozen=True)
class PlantState:
    """Plant state vector x at time t (seconds). Immutable value."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        # sum is finite iff every entry is (inf-inf and nan both propagate)
        if not math.isfinite(float(x.sum())):
            raise InvalidState(f"non-finite state entries: {x}")

    @classmethod
    def _trusted(cls, x: np.ndarray, t: float) -> "PlantState":
        """Wrap a finite float64 vector the caller has just built and hands
        over, without the public constructor's copy and checks."""
        x.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(x=x, t=t)
        return state


@dataclass(frozen=True)
class ControlInput:
    """Bounded actuation command: u_min <= u <= u_max componentwise."""

    u: np.ndarray
    bounds: np.ndarray  # shape (control_dim, 2), columns [u_min, u_max]

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        bounds = np.asarray(self.bounds, dtype=float).reshape(-1, 2)
        u.setflags(write=False)
        bounds.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "bounds", bounds)
        if u.shape != (bounds.shape[0],):
            raise InvalidState(f"control dim {u.shape} does not match bounds {bounds.shape}")
        for j in range(bounds.shape[0]):
            lo = bounds[j, 0]
            hi = bounds[j, 1]
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidConfig("control bounds must be finite with u_min < u_max per axis")
            if not lo <= u[j] <= hi:
                raise InvalidState(f"control {u} outside bounds {bounds.tolist()}")

    @classmethod
    def _trusted(cls, u: np.ndarray, bounds: np.ndarray) -> "ControlInput":
        """Wrap a command the caller has just built inside validated bounds
        (a model's read-only control_bounds), without the public checks."""
        u.setflags(write=False)
        command = object.__new__(cls)
        command.__dict__.update(u=u, bounds=bounds)
        return command


@dataclass(frozen=True)
class PlantModel:
    """A control-affine plant: drift f, actuation map g, box bounds, and a
    norm bound on the additive disturbance."""

    kind: str
    control_bounds: np.ndarray  # shape (control_dim, 2)
    disturbance_bound: float = 0.0
    state_dim: int = field(init=False)
    control_dim: int = field(init=False)

    def __post_init__(self):
        if self.kind not in _MODEL_DIMS:
            raise InvalidConfig(f"unknown plant model kind '{self.kind}'")
        state_dim, control_dim = _MODEL_DIMS[self.kind]
        object.__setattr__(self, "state_dim", state_dim)
        object.__setattr__(self, "control_dim", control_dim)
        bounds = np.asarray(self.control_bounds, dtype=float).reshape(-1, 2)
        bounds.setflags(write=False)
        object.__setattr__(self, "control_bounds", bounds)
        if bounds.shape[0] != control_dim:
            raise InvalidConfig(
                f"{self.kind} needs {control_dim} control bound pairs, got {bounds.shape[0]}"
            )
        if not np.all(np.isfinite(bounds)) or not np.all(bounds[:, 0] < bounds[:, 1]):
            raise InvalidConfig("control bounds must be finite with u_min < u_max")
        if not (np.isfinite(self.disturbance_bound) and self.disturbance_bound >= 0):
            raise InvalidConfig("disturbance_bound must be finite and >= 0")
        # the box as float pairs, for per-step scalar code
        object.__setattr__(self, "_box", tuple(map(tuple, bounds.tolist())))


def _drift(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == DOUBLE_INTEGRATOR_1D:
        return np.array([x[1], 0.0])
    return np.array([x[2], x[3], 0.0, 0.0])


def _actuation_matrix(kind: str) -> np.ndarray:
    g = np.array([[0.0], [1.0]]) if kind == DOUBLE_INTEGRATOR_1D else np.array(
        [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    )
    g.setflags(write=False)
    return g


# both model kinds have state-independent actuation
_G_CONST = {kind: _actuation_matrix(kind) for kind in _MODEL_DIMS}


def _f_g(kind: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _drift(kind, x), _G_CONST[kind]


def eval_dynamics(model: PlantModel, state: PlantState) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate drift f(x) and actuation matrix g(x) at the given state.

    Returns (f, g) with f of length state_dim and g of shape
    (state_dim, control_dim).
    """
    x = state.x
    if x.shape != (model.state_dim,):
        raise InvalidState(f"state dim {x.shape} does not match model {model.kind}")
    return _f_g(model.kind, x)


def actuation_row(model: PlantModel, grad: list[float]) -> list[float]:
    """grad . g(x) for a row vector grad over the state, without building g.

    Both model kinds are double integrators, state (positions, velocities)
    with one control per velocity: g = (0; I), so grad . g is the velocity
    block of grad (+ 0.0 gives the positive zeros numpy's grad @ g gives).
    """
    if model.control_dim == 1:
        return [grad[1] + 0.0]
    return [grad[2] + 0.0, grad[3] + 0.0]


def drift_term(model: PlantModel, grad: list[float], state: PlantState) -> float:
    """grad . f(x) at the state, without building f.

    f = (velocities, 0), so this pairs the position block of grad with the
    velocities, rounded as numpy's grad @ f rounds it: its BLAS dot may fuse
    multiply and add, so a 2-axis sum goes through numpy.
    """
    if model.control_dim == 1:
        return 0.0 + grad[0] * state.x.item(1)
    if grad[0] == 0.0 and grad[1] == 0.0:
        return 0.0  # numpy's sum of zero products
    return float(np.array(grad[:2]) @ state.x[2:])


def drift_actuation_row(model: PlantModel, grad: list[float]) -> list[float]:
    """grad . (df/dx) g: how each control moves grad . f one integration
    later. f is linear with df/dx = (0 I; 0 0), so this is the position
    block of grad, each position paired with the control on its velocity."""
    return grad[: model.control_dim]


def hold_map(model: PlantModel, x: list[float], dt: float) -> tuple[list[float], float, float]:
    """The undisturbed step under a control u held over dt (zero-order hold),
    exact for these linear models: per axis j the next state is
    free[j] + k_p u_j for the position and free[d + j] + k_v u_j for the
    velocity. Returns (free, k_p, k_v) with free the step under u = 0."""
    if model.control_dim == 1:
        p, v = x
        return [p + v * dt, v], 0.5 * dt * dt, dt
    p0, p1, v0, v1 = x
    return [p0 + v0 * dt, p1 + v1 * dt, v0, v1], 0.5 * dt * dt, dt


def step_rk4(model: PlantModel, state: PlantState, u: ControlInput, w: np.ndarray, dt: float) -> PlantState:
    """Advance the plant one step of classical 4th-order Runge-Kutta.

    u and w are held constant over the step (zero-order hold). For the linear
    models here the result matches the closed-form transition.
    """
    if dt <= 0:
        raise InvalidConfig(f"dt must be > 0, got {dt}")
    w = np.asarray(w, dtype=float)
    if w.shape != (model.state_dim,):
        raise InvalidState(f"disturbance dim {w.shape} does not match state dim {model.state_dim}")
    ws = w.tolist()
    wn = math.hypot(*ws)
    if wn > model.disturbance_bound * (1.0 + 1e-9) + 1e-300:
        raise InvalidDisturbance(
            f"disturbance norm {wn} exceeds bound {model.disturbance_bound}"
        )
    uv = u.u.tolist()
    if len(uv) != model.control_dim:
        raise InvalidState("control outside model bounds")
    for c, (lo, hi) in zip(uv, model._box):
        if not lo <= c <= hi:
            raise InvalidState("control outside model bounds")
    x0 = state.x.tolist()
    if len(x0) != model.state_dim:
        raise InvalidState(f"state dim {state.x.shape} does not match model {model.kind}")

    # Classical RK4 stages, unrolled per axis. Each axis of this model family
    # is an independent double integrator with constant stage acceleration
    # a = u + w_v, so the velocity stage derivatives are all a and only the
    # position stage derivatives vary.
    half = model.state_dim // 2
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    x1 = x0[:]
    for j in range(half):
        p = x0[j]
        v = x0[half + j]
        wp = ws[j]
        acc = uv[j] + ws[half + j]
        k1p = v + wp
        k2p = v + half_dt * acc + wp
        k3p = k2p
        k4p = v + dt * acc + wp
        x1[j] = p + sixth_dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        x1[half + j] = v + dt * acc
    if not math.isfinite(sum(x1)):
        raise InvalidState(f"non-finite state entries: {x1}")
    return PlantState._trusted(np.array(x1), state.t + dt)


def sample_disturbance(model: PlantModel, rng) -> np.ndarray:
    """Draw a disturbance with uniform direction and magnitude uniform in
    [0, disturbance_bound]. Deterministic given an integer seed; also accepts
    a numpy Generator so a caller can own the stream.
    """
    if model.disturbance_bound == 0.0:
        return np.zeros(model.state_dim)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    direction = gen.standard_normal(model.state_dim)
    magnitude = model.disturbance_bound * gen.random()  # the draw gen.uniform(0, bound) makes
    norm = math.sqrt(float(direction @ direction))
    if norm == 0.0:
        return np.zeros(model.state_dim)
    return direction * (magnitude / norm)
