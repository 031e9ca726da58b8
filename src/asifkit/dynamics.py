"""Control-affine plant models and deterministic integration.

Plants have dynamics xdot = f(x) + g(x) u + w with a per-axis box on u and a
norm bound on the additive disturbance w. Two double-integrator models are
provided; both are linear, so the fixed-step RK4 integrator reproduces the
closed-form state transition exactly (up to float rounding).

A step's values are Python floats: PlantState holds its coordinates as the
tuple xs and ControlInput its command as us, and their x and u arrays are
built only when read. sample_disturbance returns a tuple, and step_rk4 reads
and returns tuples, so a closed-loop step builds no array (an MLP
controller's aside). An episode's disturbances come from one
disturbance_stream, which draws its directions and magnitudes in blocks of
up to DISTURBANCE_BLOCK steps from two seeded child streams and scales each
block in one elementwise pass. The per-step arithmetic (RK4, the
disturbance norm and scaling, and the barrier rows built on these models'
g = (0; I) and f = (velocities, 0)) runs in a fixed order, so its bits do
not depend on the machine's BLAS. RK4's stages are written out for one axis
and for two, in the order of the per-axis loop they replace, and the
block scaling keeps the per-draw loop's operation order, so their bits are
those loops'. In a closed-loop step only an MLP controller's matrix
products still round through BLAS.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import InvalidConfig, InvalidDisturbance, InvalidState, NonFiniteState

DOUBLE_INTEGRATOR_1D = "double_integrator_1d"
DOUBLE_INTEGRATOR_2D = "double_integrator_2d"

_MODEL_DIMS = {
    DOUBLE_INTEGRATOR_1D: (2, 1),
    DOUBLE_INTEGRATOR_2D: (4, 2),
}

# the most steps of an episode's disturbance that one block draws
DISTURBANCE_BLOCK = 1024


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
        fields = state.__dict__
        fields["xs"] = xs
        fields["t"] = t
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


def step_rk4(model: PlantModel, state: PlantState, u: ControlInput, w, dt: float) -> PlantState:
    """Advance the plant one step of classical 4th-order Runge-Kutta.

    u and w are held constant over the step (zero-order hold). w is any
    sequence of state_dim floats (sample_disturbance's tuple, or an array)
    with norm at most the model's disturbance bound. For the linear models
    here the result matches the closed-form transition. The step reads the
    state's and command's float tuples and returns a state built from its
    own, so it makes no array. The stages are written out for one axis and
    for two.
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

    # Classical RK4 stages, per axis. Each axis of this model family is an
    # independent double integrator with constant stage acceleration
    # a = u + w_v, so the velocity stage derivatives are all a and only the
    # position stage derivatives vary: k1 = v + w_p, k2 = k3 = v + dt/2 a +
    # w_p and k4 = v + dt a + w_p. A finite sum of the new entries means
    # finite entries; only when it is not (overflow, or a NaN or inf entry)
    # are they tested one by one.
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    if model.control_dim == 1:
        lo, hi = model._box[0]
        if not lo <= uv[0] <= hi:
            raise InvalidState("control outside model bounds")
        x0 = state.xs
        if len(x0) != 2:
            raise InvalidState(f"state dim {len(x0)} does not match model {model.kind}")
        p, v = x0
        w0, w1 = ws
        acc = uv[0] + w1
        k1p = v + w0
        k2p = v + half_dt * acc + w0
        k4p = v + dt * acc + w0
        y0 = p + sixth_dt * (k1p + 2.0 * k2p + 2.0 * k2p + k4p)
        y1 = v + dt * acc
        if not math.isfinite(y0 + y1) and not (math.isfinite(y0) and math.isfinite(y1)):
            raise NonFiniteState(f"non-finite state entries: {[y0, y1]}")
        return PlantState._trusted((y0, y1), state.t + dt)

    (lo0, hi0), (lo1, hi1) = model._box
    u0, u1 = uv
    if not (lo0 <= u0 <= hi0 and lo1 <= u1 <= hi1):
        raise InvalidState("control outside model bounds")
    x0 = state.xs
    if len(x0) != 4:
        raise InvalidState(f"state dim {len(x0)} does not match model {model.kind}")
    p0, p1, v0, v1 = x0
    w0, w1, w2, w3 = ws
    acc = u0 + w2
    k1p = v0 + w0
    k2p = v0 + half_dt * acc + w0
    k4p = v0 + dt * acc + w0
    y0 = p0 + sixth_dt * (k1p + 2.0 * k2p + 2.0 * k2p + k4p)
    y2 = v0 + dt * acc
    acc = u1 + w3
    k1p = v1 + w1
    k2p = v1 + half_dt * acc + w1
    k4p = v1 + dt * acc + w1
    y1 = p1 + sixth_dt * (k1p + 2.0 * k2p + 2.0 * k2p + k4p)
    y3 = v1 + dt * acc
    if not math.isfinite(y0 + y1 + y2 + y3) and not (
        math.isfinite(y0) and math.isfinite(y1) and math.isfinite(y2) and math.isfinite(y3)
    ):
        raise NonFiniteState(f"non-finite state entries: {[y0, y1, y2, y3]}")
    return PlantState._trusted((y0, y1, y2, y3), state.t + dt)


def _scaled(bound: float, directions: np.ndarray, uniforms: np.ndarray) -> Iterator[tuple[float, ...]]:
    """The disturbances of k draws, directions a (k, state_dim) array of
    standard normals and uniforms k draws from [0, 1), as an iterator over
    k tuples of Python floats, each built as it is read, so a block holds
    no tuple per row for the cyclic collector to count. Each row's squared
    norm is summed from 0.0 in axis order, and its coordinates are scaled
    by magnitude / norm with magnitude = bound * uniform: elementwise, in
    the per-draw loop's order, so each row's bits are that loop's. A zero
    direction gives zeros, and where the scale overflows (a huge bound over
    a tiny norm) the direction is normalised first."""
    with np.errstate(all="ignore"):  # overflows and 0 / 0 as in float arithmetic
        magnitude = bound * uniforms
        square = 0.0 + directions[:, 0] * directions[:, 0]
        for j in range(1, directions.shape[1]):
            square = square + directions[:, j] * directions[:, j]
        norm = np.sqrt(square)
        scale = magnitude / norm
        w = directions * scale[:, None]
        huge = scale == math.inf
        if huge.any():
            w[huge] = directions[huge] / norm[huge, None] * magnitude[huge, None]
    w[norm == 0.0] = 0.0
    return zip(*w.T.tolist())


def disturbance_stream(model: PlantModel, seed: int, n_steps: int) -> Iterator[tuple[float, ...]]:
    """An episode's disturbances, one per step for at most n_steps steps,
    for sample_disturbance to read in order. SeedSequence(seed) spawns two
    child streams, the first for the directions and the second for the
    magnitudes, and each block of up to DISTURBANCE_BLOCK steps draws
    standard_normal((k, state_dim)) from the one and random(k) from the
    other. The blocks never reach past n_steps, and since a numpy block
    draw equals the same draws made one by one, the disturbances do not
    depend on the block size. Nothing is drawn, and no generator built,
    before the first disturbance is read."""
    children = SeedSequence(seed).spawn(2)
    direction_rng, magnitude_rng = default_rng(children[0]), default_rng(children[1])
    left = n_steps
    while left > 0:
        k = min(left, DISTURBANCE_BLOCK)
        left -= k
        directions = direction_rng.standard_normal((k, model.state_dim))
        yield from _scaled(model.disturbance_bound, directions, magnitude_rng.random(k))


def sample_disturbance(model: PlantModel, stream: Iterator[tuple[float, ...]]) -> tuple[float, ...]:
    """The next disturbance of stream, a disturbance_stream for model: a
    tuple of state_dim Python floats with uniform direction and magnitude
    uniform in [0, disturbance_bound]. A zero bound gives zeros without
    reading stream."""
    if model.disturbance_bound == 0.0:
        return (0.0,) * model.state_dim
    return next(stream)
