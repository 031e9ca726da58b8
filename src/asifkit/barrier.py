"""Control barrier functions for the shipped plant models.

Each constraint encodes a safe set {x : h(x) >= 0} and reduces, at a given
state, to one linear-in-u inequality row a . u >= b enforcing the
strengthened barrier condition hdot + gamma * h >= 0 (cbf_row):

    a = grad_h(x) . g(x)          (length control_dim)
    b = -grad_h(x) . f(x) - gamma * h(x)

Every function reads the state's float tuple (PlantState.xs), and rows and
gradients are returned as tuples of Python floats. A constraint binds its
parameters once, at construction, as one float tuple (with 2 u_max for the
braking terms, and v_max^2 for a speed limit). Each entry point is
straight-line code per kind on that tuple and computes only what it
returns:

  eval_h        h alone
  eval_grad_h   the gradient alone
  cbf_row       the continuous row as (a, b), a being the solver's row
                without its b: the filter's row without a period
  filter_rows   the continuous row and the sampled row (or None) as solver
                rows (a..., b), from one dimension test and one kind
                dispatch: the filter's one call per constraint given dt,
                and the only code that builds a sampled row

cbf_row and filter_rows each write the continuous row out, in the same
operations, so that the filter without a period keeps its straight-line
call; tests pin the two bit for bit. The rows assume the double-integrator
plants that the dynamics module documents, with g = (0; I) and
f = (velocities, 0), so a = grad_h . g is the gradient's velocity block and
grad_h . f pairs its position block with the velocities.

A command held over a control period dt (zero-order hold) obeys a different
condition, h(x_{k+1}) >= (1 - gamma dt) h(x_k). filter_rows' sampled row
enforces it for the geofences: exact for geofence_1d, and on a
stopping-point barrier, linearised at the braking command, for
geofence_2d_circle. A sampled row always has authority (a != 0); it is
enforced alongside the continuous row, never instead of it.
docs/discretization_margin.md has the derivations. filter_rows writes the
held-command step out, p + v dt + dt^2/2 u and v + dt u per axis, from the
same g and f.

Constraint kinds:

  geofence_1d      h = p_limit - p - v|v| / (2 u_max)
                   Braking-distance form: h >= 0 iff the position plus the
                   distance needed to stop at full deceleration u_max stays
                   at or below p_limit. The v|v| form keeps h defined and
                   monotone for both velocity signs with one expression.

  geofence_2d_circle
                   h = radius - ||pos - center|| - max(0, v_r)^2 / (2 u_max)
                   with v_r the radial outward velocity component. Gradient
                   is singular at pos == center.

  speed_limit      h = v_max^2 - ||v||^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .dynamics import PlantModel, PlantState
from .errors import InvalidConfig, InvalidState, SingularGradient

GEOFENCE_1D = "geofence_1d"
GEOFENCE_2D_CIRCLE = "geofence_2d_circle"
SPEED_LIMIT = "speed_limit"

_REQUIRED_PARAMS = {
    GEOFENCE_1D: ("p_limit", "u_max"),
    GEOFENCE_2D_CIRCLE: ("center", "radius", "u_max"),
    SPEED_LIMIT: ("v_max",),
}


def _number(value) -> float:
    """value as a float, or NaN when it is no number (a string such as "a",
    None, a list, a mapping)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True)
class BarrierConstraint:
    """One safety constraint h(x) >= 0 with class-kappa gain alpha(h) = gamma*h.
    Constraints compare by every field and hash by all but params, a
    read-only mapping that cannot be hashed."""

    id: str
    kind: str
    params: dict = field(hash=False)
    gamma: float = 1.0
    hazard_id: str = ""

    def __post_init__(self):
        if self.kind not in _REQUIRED_PARAMS:
            raise InvalidConfig(f"unknown constraint kind '{self.kind}'")
        missing = [k for k in _REQUIRED_PARAMS[self.kind] if k not in self.params]
        if missing:
            raise InvalidConfig(f"constraint '{self.id}' missing params {missing}")
        gamma = _number(self.gamma)
        if not (math.isfinite(gamma) and gamma > 0):
            raise InvalidConfig(f"constraint '{self.id}': gamma must be finite and > 0")
        object.__setattr__(self, "gamma", gamma)
        params = dict(self.params)
        if self.kind == GEOFENCE_2D_CIRCLE:
            try:
                center = np.asarray(params["center"], dtype=float)
            except (TypeError, ValueError):
                center = None  # a mapping, or a string that is no number
            if center is None or center.shape != (2,) or not np.all(np.isfinite(center)):
                raise InvalidConfig(f"constraint '{self.id}': center must be a finite 2-vector")
            params["center"] = (float(center[0]), float(center[1]))
        for name in _REQUIRED_PARAMS[self.kind]:
            if name == "center":
                continue
            value = _number(params[name])
            if not (math.isfinite(value) and value > 0):
                raise InvalidConfig(f"constraint '{self.id}': {name} must be finite and > 0")
            params[name] = value
        if self.kind == SPEED_LIMIT and not math.isfinite(params["v_max"] * params["v_max"]):
            # h squares v_max, and a float power that overflows raises
            raise InvalidConfig(f"constraint '{self.id}': v_max squared must be finite")
        object.__setattr__(self, "params", MappingProxyType(params))
        # the kernels' parameters as one float tuple: an attribute, not a
        # field, so equality, hash and repr read params alone
        if self.kind == GEOFENCE_2D_CIRCLE:
            u_max = params["u_max"]
            bound = (*params["center"], params["radius"], u_max, 2.0 * u_max)
        elif self.kind == GEOFENCE_1D:
            u_max = params["u_max"]
            bound = (params["p_limit"], u_max, 2.0 * u_max)
        else:
            bound = (params["v_max"] ** 2,)
        object.__setattr__(self, "_bound", bound)


_STATE_DIMS = {GEOFENCE_1D: (2,), GEOFENCE_2D_CIRCLE: (4,), SPEED_LIMIT: (2, 4)}
_DIM_TEXT = {GEOFENCE_1D: "2", GEOFENCE_2D_CIRCLE: "4", SPEED_LIMIT: "2- or 4"}


def _dim_error(constraint: BarrierConstraint, dim: int, model: PlantModel | None = None) -> InvalidState:
    """The error for a state of dimension dim that does not fit the kind (or
    the model, when one is given). The entry points test the dimension
    inline and call this only to raise."""
    if dim not in _STATE_DIMS[constraint.kind]:
        return InvalidState(f"constraint '{constraint.id}' expects a {_DIM_TEXT[constraint.kind]}-dim state, got {dim}")
    return InvalidState(f"state dim {dim} does not match model {model.kind}")


def eval_h(constraint: BarrierConstraint, state: PlantState) -> float:
    """Barrier value; h >= 0 iff the state is in the constraint's safe set."""
    x = state.xs
    kind = constraint.kind
    if len(x) not in _STATE_DIMS[kind]:
        raise _dim_error(constraint, len(x))
    if kind == GEOFENCE_2D_CIRCLE:
        cx, cy, radius, _, two_u = constraint._bound
        p0, p1, v0, v1 = x
        r0 = p0 - cx
        r1 = p1 - cy
        d = math.hypot(r0, r1)
        v_r = (r0 * v0 + r1 * v1) / d if d > 0.0 else 0.0
        if v_r > 0.0:
            return radius - d - v_r * v_r / two_u
        return radius - d
    if kind == GEOFENCE_1D:
        p_limit, _, two_u = constraint._bound
        pos, vel = x
        return p_limit - pos - vel * abs(vel) / two_u
    # speed_limit
    if len(x) == 2:
        v = x[1]
        return constraint._bound[0] - v * v
    v0, v1 = x[2], x[3]
    return constraint._bound[0] - v0 * v0 - v1 * v1


def eval_grad_h(constraint: BarrierConstraint, state: PlantState) -> tuple[float, ...]:
    """Gradient of h with respect to the state vector, a tuple of floats.
    Raises SingularGradient at a circle's center."""
    x = state.xs
    kind = constraint.kind
    if len(x) not in _STATE_DIMS[kind]:
        raise _dim_error(constraint, len(x))
    if kind == GEOFENCE_2D_CIRCLE:
        cx, cy, _, u_max, _ = constraint._bound
        p0, p1, v0, v1 = x
        r0 = p0 - cx
        r1 = p1 - cy
        d = math.hypot(r0, r1)
        if d == 0.0:
            raise SingularGradient(constraint.id)
        rh0, rh1 = r0 / d, r1 / d
        v_r = rh0 * v0 + rh1 * v1
        if v_r > 0.0:
            c = v_r / u_max
            return (-rh0 - c * (v0 - v_r * rh0) / d, -rh1 - c * (v1 - v_r * rh1) / d, -c * rh0, -c * rh1)
        return (-rh0, -rh1, 0.0, 0.0)
    if kind == GEOFENCE_1D:
        return (-1.0, -abs(x[1]) / constraint._bound[1])
    # speed_limit
    if len(x) == 2:
        return (0.0, -2.0 * x[1])
    return (0.0, 0.0, -2.0 * x[2], -2.0 * x[3])


def cbf_row(constraint: BarrierConstraint, model: PlantModel, state: PlantState) -> tuple[tuple[float, ...], float]:
    """Reduce the constraint to the linear row a . u >= b at this state.

    The admissible set {u : a.u >= b} is the strengthened barrier condition
    hdot + gamma*h >= 0 under the model's control-affine dynamics. a, a tuple
    of floats, and b depend only on the state, never on u.
    """
    x = state.xs
    kind = constraint.kind
    if len(x) not in _STATE_DIMS[kind] or len(x) != model.state_dim:
        raise _dim_error(constraint, len(x), model)
    gamma = constraint.gamma
    # a = grad . g is the gradient's velocity block, + 0.0 making its zeros
    # positive; grad . f pairs the position block with the velocities, summed
    # in axis order after a leading 0.0 that makes a zero sum positive
    if kind == GEOFENCE_2D_CIRCLE:
        cx, cy, radius, u_max, two_u = constraint._bound
        p0, p1, v0, v1 = x
        r0 = p0 - cx
        r1 = p1 - cy
        d = math.hypot(r0, r1)
        if d == 0.0:
            raise SingularGradient(constraint.id)
        v_r = (r0 * v0 + r1 * v1) / d
        h = radius - d - v_r * v_r / two_u if v_r > 0.0 else radius - d
        rh0, rh1 = r0 / d, r1 / d
        v_r = rh0 * v0 + rh1 * v1
        if v_r > 0.0:
            c = v_r / u_max
            g0 = -rh0 - c * (v0 - v_r * rh0) / d
            g1 = -rh1 - c * (v1 - v_r * rh1) / d
            return (-c * rh0 + 0.0, -c * rh1 + 0.0), -(0.0 + g0 * v0 + g1 * v1) - gamma * h
        return (0.0, 0.0), -(0.0 + -rh0 * v0 + -rh1 * v1) - gamma * h
    if kind == GEOFENCE_1D:
        p_limit, u_max, two_u = constraint._bound
        pos, vel = x
        speed = abs(vel)
        h = p_limit - pos - vel * speed / two_u
        return (-speed / u_max + 0.0,), -(0.0 + -1.0 * vel) - gamma * h
    # speed_limit: the gradient's position block is zero
    if len(x) == 2:
        v = x[1]
        h = constraint._bound[0] - v * v
        return (-2.0 * v + 0.0,), -(0.0 + 0.0 * v) - gamma * h
    v0, v1 = x[2], x[3]
    h = constraint._bound[0] - v0 * v0 - v1 * v1
    return (-2.0 * v0 + 0.0, -2.0 * v1 + 0.0), -(0.0 + 0.0 * v0 + 0.0 * v1) - gamma * h


def filter_rows(
    constraint: BarrierConstraint, model: PlantModel, state: PlantState, dt: float
) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """The constraint's continuous row and its sampled-data row for a command
    held over one period dt, both as solver rows (a..., b), from one
    dimension test and one kind dispatch: the rows assemble_qp takes given
    dt. The continuous row is cbf_row's, bit for bit.

    The sampled row a . u >= b enforces h(x_{k+1}(u)) >= (1 - gamma*dt) h(x_k),
    where x_{k+1}(u) is the undisturbed zero-order-hold step, written out
    here: per axis, position p + v*dt + k_p u and velocity v + k_v u, with
    k_p = 0.5*dt*dt and k_v = dt (exact for the double integrators). This
    is the condition the sampled plant obeys (Agrawal & Sreenath, "Discrete
    Control Barrier Functions", RSS 2017).
    It complements the continuous row and never replaces it.

    geofence_1d: h(x_{k+1}(u)) strictly decreases in u, so the row is exactly
        u <= u*, where u* puts h(x_{k+1}) on (1 - gamma*dt) h_k. Full braking
        satisfies it whenever h_k >= 0.
    geofence_2d_circle: the row is on the stopping-point barrier
        h_s = radius - ||p + v||v|| / (2 u_max) - center||, linearised at the
        braking command u_b = -u_max v/||v|| (or -v/dt once ||v|| < u_max dt,
        which stops the plant within the period). Braking along -v keeps the
        stopping point fixed, so it does not bear the turning deficit of the
        radial form. The demand is capped at h_s(x_{k+1}(u_b)), so u_b
        always satisfies the row, also from h_s < 0. The row is a first-order
        expansion: its remainder is not bounded, so its effect is measured
        (docs/discretization_margin.md), not proven. Where the braked
        stopping point is the center the normal is undefined and h_s is at
        its maximum, so there is no row (None).
    speed_limit: None; the continuous row stands alone.

    A sampled row returned has authority (a != 0). Errors come in the order
    of cbf_row and then the period: the state's dimension, a circle's
    center (SingularGradient), then a period with no held-command step
    (InvalidConfig), also for a speed limit.
    """
    x = state.xs
    kind = constraint.kind
    if len(x) not in _STATE_DIMS[kind] or len(x) != model.state_dim:
        raise _dim_error(constraint, len(x), model)
    gamma = constraint.gamma
    # the continuous rows are cbf_row's arithmetic, in its order
    if kind == GEOFENCE_1D:
        p_limit, u_max, two_u = constraint._bound
        pos, vel = x
        speed = abs(vel)
        h = p_limit - pos - vel * speed / two_u
        row = (-speed / u_max + 0.0, -(0.0 + -1.0 * vel) - gamma * h)
        if not (dt > 0.0 and 0.0 < 0.5 * dt * dt < math.inf):
            raise _period_error(dt)
        # The held step is p_{k+1} = p_free + k_p u, v_{k+1} = vel + k_v u,
        # p_free = pos + vel dt. With s = v_{k+1}, p_{k+1} = p_free + rho (s - vel)
        # and h(x_{k+1}) = p_limit - p_free + rho vel - rho s - s|s|/(2 u_max),
        # which falls on (1 - gamma dt) h at the root s of
        # rho s + s|s|/(2 u_max) = k.
        p_free, k_p, k_v = pos + vel * dt, 0.5 * dt * dt, dt
        rho = k_p / k_v
        k = p_limit - p_free + rho * vel - (1.0 - gamma * dt) * h
        s = 2.0 * k / (rho + math.sqrt(rho * rho + 2.0 * abs(k) / u_max))
        return row, (-1.0, -(s - vel) / k_v)
    if kind == GEOFENCE_2D_CIRCLE:
        cx, cy, radius, u_max, two_u = constraint._bound
        p0, p1, v0, v1 = x
        r0 = p0 - cx
        r1 = p1 - cy
        d = math.hypot(r0, r1)
        if d == 0.0:
            raise SingularGradient(constraint.id)
        v_r = (r0 * v0 + r1 * v1) / d
        h = radius - d - v_r * v_r / two_u if v_r > 0.0 else radius - d
        rh0, rh1 = r0 / d, r1 / d
        v_r = rh0 * v0 + rh1 * v1
        if v_r > 0.0:
            c = v_r / u_max
            g0 = -rh0 - c * (v0 - v_r * rh0) / d
            g1 = -rh1 - c * (v1 - v_r * rh1) / d
            row = (-c * rh0 + 0.0, -c * rh1 + 0.0, -(0.0 + g0 * v0 + g1 * v1) - gamma * h)
        else:
            row = (0.0, 0.0, -(0.0 + -rh0 * v0 + -rh1 * v1) - gamma * h)
        if not (dt > 0.0 and 0.0 < 0.5 * dt * dt < math.inf):
            raise _period_error(dt)
        k_p, k_v = 0.5 * dt * dt, dt  # the held step's gains (see the docstring)
        speed = math.hypot(v0, v1)
        reach = speed / two_u
        hs_k = radius - math.hypot(p0 + v0 * reach - cx, p1 + v1 * reach - cy)
        if speed >= u_max * dt and speed > 0.0:
            # full braking along -v holds the stopping point through the step
            ub0, ub1 = -u_max * v0 / speed, -u_max * v1 / speed
        else:
            # the command that stops the plant within the period (zero at rest,
            # also where u_max * dt underflows to 0)
            ub0, ub1 = -v0 / dt, -v1 / dt
        # the braked step, and its stopping point relative to the center
        bp0, bp1 = p0 + v0 * dt + k_p * ub0, p1 + v1 * dt + k_p * ub1
        bv0, bv1 = v0 + k_v * ub0, v1 + k_v * ub1
        b_speed = math.hypot(bv0, bv1)
        reach = b_speed / two_u
        q0, q1 = bp0 + bv0 * reach - cx, bp1 + bv1 * reach - cy
        dist = math.hypot(q0, q1)
        if dist == 0.0:
            return row, None
        hs_b = radius - dist
        demand = min((1.0 - gamma * dt) * hs_k, hs_b) - hs_b
        n0, n1 = q0 / dist, q1 / dist
        # a = -J n with J = d q_{k+1} / du = (k_p + beta) I + beta vhat vhat^T,
        # beta = k_v |v_{k+1}| / (2 u_max), vhat along v_{k+1}
        beta = k_v * reach
        c = k_p + beta
        a0, a1 = -c * n0, -c * n1
        square = b_speed * b_speed
        if square > 0.0:  # a speed whose square underflows leaves out a term no larger than beta
            k = beta * (bv0 * n0 + bv1 * n1) / square
            a0 -= k * bv0
            a1 -= k * bv1
        return row, (a0, a1, demand + a0 * ub0 + a1 * ub1)
    # speed_limit: the gradient's position block is zero, and there is no
    # sampled row
    if len(x) == 2:
        v = x[1]
        h = constraint._bound[0] - v * v
        row = (-2.0 * v + 0.0, -(0.0 + 0.0 * v) - gamma * h)
    else:
        v0, v1 = x[2], x[3]
        h = constraint._bound[0] - v0 * v0 - v1 * v1
        row = (-2.0 * v0 + 0.0, -2.0 * v1 + 0.0, -(0.0 + 0.0 * v0 + 0.0 * v1) - gamma * h)
    if not (dt > 0.0 and 0.0 < 0.5 * dt * dt < math.inf):
        raise _period_error(dt)
    return row, None


def _period_error(dt) -> InvalidConfig:
    """The error for a period with no held-command step to build a row on:
    one not > 0, or whose 0.5*dt*dt underflows to 0 or overflows (an
    infinite dt included). The checks are written inline, as
    dt > 0.0 and 0.0 < 0.5 * dt * dt < math.inf, and call this only to
    raise."""
    return InvalidConfig(f"dt must be > 0 with 0.5*dt*dt finite and nonzero, got {dt}")


def constraint_from_config(cfg: dict) -> BarrierConstraint:
    """Build a constraint from its config mapping (fields: id, kind, params,
    gamma, hazard_id)."""
    try:
        return BarrierConstraint(
            id=str(cfg["id"]),
            kind=str(cfg["kind"]),
            params=dict(cfg.get("params", {})),
            gamma=cfg.get("gamma", 1.0),
            hazard_id=str(cfg.get("hazard_id", "")),
        )
    except KeyError as exc:
        raise InvalidConfig(f"constraint config missing field {exc}") from exc


def check_applies(constraint: BarrierConstraint, model: PlantModel) -> None:
    """Verify that the constraint fits the plant: its kind is defined on the
    plant's state, and a u_max baked into h equals the plant's per-axis
    bound magnitude. A mismatch means the braking-distance derivation does
    not describe the actual actuation authority. Either misfit raises
    InvalidConfig.
    """
    if model.state_dim not in _STATE_DIMS[constraint.kind]:
        raise InvalidConfig(f"constraint '{constraint.id}' of kind {constraint.kind} does not apply to {model.kind}")
    if constraint.kind == SPEED_LIMIT:
        return
    u_max = constraint.params["u_max"]
    axes = [0] if constraint.kind == GEOFENCE_1D else [0, 1]
    for axis in axes:
        lo, hi = model.control_bounds[axis]
        if not (math.isclose(-lo, u_max, rel_tol=1e-12) and math.isclose(hi, u_max, rel_tol=1e-12)):
            raise InvalidConfig(
                f"constraint '{constraint.id}' uses u_max={u_max} but model bounds on axis "
                f"{axis} are [{lo}, {hi}]"
            )
