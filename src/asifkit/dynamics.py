"""Control-affine plant models and deterministic integration.

Plants have dynamics xdot = f(x) + g(x) u + w with a per-axis box on u and a
norm bound on the additive disturbance w. Two double-integrator models are
provided; both are linear, so the fixed-step RK4 integrator reproduces the
closed-form state transition exactly (up to float rounding).

A step's values are Python floats: PlantState holds its coordinates as the
tuple xs and ControlInput its command as us, and their x and u arrays are
built only when read. sample_disturbance returns a tuple, and step_rk4 reads
and returns tuples, so a closed-loop step builds no array except the
disturbance draw (and an MLP controller's). The per-step arithmetic (the
drift term, RK4, the disturbance norm and scaling) runs in a fixed order, so
its bits do not depend on the machine's BLAS. In a closed-loop step only an
MLP controller's matrix products still round through BLAS.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.random import Generator, default_rng

from .errors import InvalidConfig, InvalidDisturbance, InvalidState, NonFiniteState

DOUBLE_INTEGRATOR_1D = "double_integrator_1d"
DOUBLE_INTEGRATOR_2D = "double_integrator_2d"

_MODEL_DIMS = {
    DOUBLE_INTEGRATOR_1D: (2, 1),
    DOUBLE_INTEGRATOR_2D: (4, 2),
}


@dataclass(frozen=True, init=False)
class PlantState:
    """Plant state at time t (seconds). Immutable value: the coordinates are
    held as xs, a tuple of Python floats, and x gives them as a read-only
    float64 array built when read."""

    xs: tuple[float, ...]
    t: float

    def __init__(self, x, t: float = 0.0):
        # store the arguments as given, as a generated __init__ would;
        # __post_init__ validates and converts them
        object.__setattr__(self, "xs", x)
        object.__setattr__(self, "t", t)
        self.__post_init__()

    def __post_init__(self):
        try:
            x = np.array(self.xs, dtype=float)  # a copy: the caller's array stays writable
        except (TypeError, ValueError) as exc:
            raise InvalidState(f"state is not a vector of floats: {exc}") from None
        if x.ndim != 1:
            raise InvalidState(f"state must be a 1-D vector, got shape {x.shape}")
        xs = tuple(x.tolist())
        if not all(map(math.isfinite, xs)):
            raise InvalidState(f"non-finite state entries: {xs}")
        object.__setattr__(self, "xs", xs)

    @classmethod
    def _trusted(cls, xs: tuple[float, ...], t: float) -> "PlantState":
        """Wrap a tuple of finite Python floats the caller has just built,
        without the public constructor's copy and checks."""
        state = object.__new__(cls)
        state.__dict__.update(xs=xs, t=t)
        return state

    @property
    def x(self) -> np.ndarray:
        x = np.array(self.xs)
        x.setflags(write=False)
        return x


@dataclass(frozen=True, init=False)
class ControlInput:
    """Bounded actuation command: u_min <= u <= u_max componentwise. The
    command is held as us, a tuple of Python floats, and u gives it as a
    read-only float64 array built when read. The constructor checks the
    command against bounds, shape (control_dim, 2) with columns
    [u_min, u_max], and does not keep them."""

    us: tuple[float, ...]
    bounds: InitVar[np.ndarray]

    def __init__(self, u, bounds):
        object.__setattr__(self, "us", u)
        self.__post_init__(bounds)

    def __post_init__(self, bounds):
        try:
            u = np.array(self.us, dtype=float)  # a copy: the caller's array stays writable
        except (TypeError, ValueError) as exc:
            raise InvalidState(f"control is not a vector of floats: {exc}") from None
        bounds = np.asarray(bounds, dtype=float).reshape(-1, 2)
        if u.shape != (bounds.shape[0],):
            raise InvalidState(f"control dim {u.shape} does not match bounds {bounds.shape}")
        us = tuple(u.tolist())
        for c, (lo, hi) in zip(us, bounds.tolist()):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidConfig("control bounds must be finite with u_min < u_max per axis")
            if not lo <= c <= hi:
                raise InvalidState(f"control {us} outside bounds {bounds.tolist()}")
        object.__setattr__(self, "us", us)

    @classmethod
    def _trusted(cls, us: tuple[float, ...]) -> "ControlInput":
        """Wrap a tuple of Python floats the caller has just built inside
        validated bounds (a model's box), without the public checks."""
        command = object.__new__(cls)
        command.__dict__["us"] = us
        return command

    @property
    def u(self) -> np.ndarray:
        u = np.array(self.us)
        u.setflags(write=False)
        return u


@dataclass(frozen=True)
class PlantModel:
    """A control-affine plant: drift f, actuation map g, box bounds, and a
    norm bound on the additive disturbance. Models compare and hash by kind,
    disturbance bound and box; control_bounds is the box as a read-only
    array."""

    kind: str
    control_bounds: np.ndarray = field(compare=False)  # shape (control_dim, 2)
    disturbance_bound: float = 0.0
    state_dim: int = field(init=False)
    control_dim: int = field(init=False)
    _box: tuple[tuple[float, float], ...] = field(init=False, repr=False)

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


def actuation_row(model: PlantModel, grad: tuple[float, ...]) -> tuple[float, ...]:
    """grad . g(x) for a row vector grad over the state, without building g.

    Both model kinds are double integrators, state (positions, velocities)
    with one control per velocity: g = (0; I), so grad . g is the velocity
    block of grad (+ 0.0 gives the positive zeros numpy's grad @ g gives).
    """
    if model.control_dim == 1:
        return (grad[1] + 0.0,)
    return (grad[2] + 0.0, grad[3] + 0.0)


def drift_term(model: PlantModel, grad: tuple[float, ...], x: tuple[float, ...]) -> float:
    """grad . f(x) at the state coordinates x, without building f.

    f = (velocities, 0), so this pairs the position block of grad with the
    velocities: the rounded products summed in axis order, each operation
    rounded once, so the result is the same on every machine. The leading
    0.0 + makes a zero sum a positive zero.
    """
    if model.control_dim == 1:
        return 0.0 + grad[0] * x[1]
    return 0.0 + grad[0] * x[2] + grad[1] * x[3]


def drift_actuation_row(model: PlantModel, grad: tuple[float, ...]) -> tuple[float, ...]:
    """grad . (df/dx) g: how each control moves grad . f one integration
    later. f is linear with df/dx = (0 I; 0 0), so this is the position
    block of grad, each position paired with the control on its velocity."""
    return grad[: model.control_dim]


def hold_map(model: PlantModel, x: tuple[float, ...], dt: float) -> tuple[list[float], float, float]:
    """The undisturbed step under a control u held over dt (zero-order hold),
    exact for these linear models: per axis j the next state is
    free[j] + k_p u_j for the position and free[d + j] + k_v u_j for the
    velocity. Returns (free, k_p, k_v) with free the step under u = 0."""
    if model.control_dim == 1:
        p, v = x
        return [p + v * dt, v], 0.5 * dt * dt, dt
    p0, p1, v0, v1 = x
    return [p0 + v0 * dt, p1 + v1 * dt, v0, v1], 0.5 * dt * dt, dt


def step_rk4(model: PlantModel, state: PlantState, u: ControlInput, w, dt: float) -> PlantState:
    """Advance the plant one step of classical 4th-order Runge-Kutta.

    u and w are held constant over the step (zero-order hold). w is any
    sequence of state_dim floats (sample_disturbance's tuple, or an array)
    with norm at most the model's disturbance bound. For the linear models
    here the result matches the closed-form transition. The step reads the
    state's and command's float tuples and returns a state built from its
    own, so it makes no array.
    """
    if dt <= 0:
        raise InvalidConfig(f"dt must be > 0, got {dt}")
    try:
        ws = tuple(map(float, w))
    except (TypeError, ValueError) as exc:
        raise InvalidState(f"disturbance is not a vector of floats: {exc}") from None
    if len(ws) != model.state_dim:
        raise InvalidState(f"disturbance dim {len(ws)} does not match state dim {model.state_dim}")
    wn = math.hypot(*ws)
    if not wn <= model.disturbance_bound * (1.0 + 1e-9) + 1e-300:  # NaN fails too
        raise InvalidDisturbance(
            f"disturbance norm {wn} exceeds bound {model.disturbance_bound}"
        )
    uv = u.us
    if len(uv) != model.control_dim:
        raise InvalidState("control outside model bounds")
    for c, (lo, hi) in zip(uv, model._box):
        if not lo <= c <= hi:
            raise InvalidState("control outside model bounds")
    x0 = state.xs
    if len(x0) != model.state_dim:
        raise InvalidState(f"state dim {len(x0)} does not match model {model.kind}")

    # Classical RK4 stages, unrolled per axis. Each axis of this model family
    # is an independent double integrator with constant stage acceleration
    # a = u + w_v, so the velocity stage derivatives are all a and only the
    # position stage derivatives vary.
    half = model.state_dim // 2
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    x1 = list(x0)
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
    # a finite sum means finite entries; only when it is not (overflow, or a
    # NaN or inf entry) are the entries tested one by one
    if not math.isfinite(sum(x1)) and not all(map(math.isfinite, x1)):
        raise NonFiniteState(f"non-finite state entries: {x1}")
    return PlantState._trusted(tuple(x1), state.t + dt)


def sample_disturbance(model: PlantModel, rng) -> tuple[float, ...]:
    """Draw a disturbance with uniform direction and magnitude uniform in
    [0, disturbance_bound], as a tuple of state_dim Python floats.
    Deterministic given an integer seed; also accepts a numpy Generator so a
    caller can own the stream. The direction is one standard_normal draw,
    scaled per coordinate by magnitude / norm, which rounds as numpy's
    elementwise product does.
    """
    if model.disturbance_bound == 0.0:
        return (0.0,) * model.state_dim
    gen = rng if isinstance(rng, Generator) else default_rng(rng)
    direction = gen.standard_normal(model.state_dim).tolist()
    magnitude = model.disturbance_bound * gen.random()  # the draw gen.uniform(0, bound) makes
    square = 0.0
    for c in direction:
        square += c * c  # in axis order, not through a BLAS dot
    norm = math.sqrt(square)
    if norm == 0.0:
        return (0.0,) * model.state_dim
    scale = magnitude / norm
    if scale == math.inf:  # a huge bound over a tiny norm: normalise the direction first
        return tuple([c / norm * magnitude for c in direction])
    return tuple([c * scale for c in direction])
