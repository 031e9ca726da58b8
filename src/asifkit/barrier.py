"""Control barrier functions for the shipped plant models.

Each constraint encodes a safe set {x : h(x) >= 0} and reduces, at a given
state, to one linear-in-u inequality row a . u >= b enforcing the
strengthened barrier condition hdot + gamma * h >= 0 (cbf_row):

    a = grad_h(x) . g(x)          (length control_dim)
    b = -grad_h(x) . f(x) - gamma * h(x)

Every function reads the state's float tuple (PlantState.xs), and rows and
gradients are returned as tuples of Python floats: a row's a is the
solver's row without its b.

A command held over a control period dt (zero-order hold) obeys a different
condition, h(x_{k+1}) >= (1 - gamma dt) h(x_k). sampled_row gives that row
for the geofences: exact for geofence_1d, and on a stopping-point barrier,
linearised at the braking command, for geofence_2d_circle. A sampled row
always has authority (a != 0); it is enforced alongside the continuous row,
never instead of it. docs/discretization_margin.md has the derivations.
The plant's part in both rows (g, f and the held-command step) comes from
the dynamics module.

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
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .dynamics import PlantModel, PlantState, actuation_row, drift_term, hold_map
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
    """One safety constraint h(x) >= 0 with class-kappa gain alpha(h) = gamma*h."""

    id: str
    kind: str
    params: dict
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


_STATE_DIMS = {GEOFENCE_1D: (2,), GEOFENCE_2D_CIRCLE: (4,), SPEED_LIMIT: (2, 4)}
_DIM_TEXT = {GEOFENCE_1D: "2", GEOFENCE_2D_CIRCLE: "4", SPEED_LIMIT: "2- or 4"}


def _coords(constraint: BarrierConstraint, state: PlantState, model: PlantModel | None = None) -> tuple[float, ...]:
    """The state's float tuple, after checking its dimension against the
    kind (and against the model, when one is given)."""
    xs = state.xs
    dim = len(xs)
    if dim not in _STATE_DIMS[constraint.kind]:
        raise InvalidState(
            f"constraint '{constraint.id}' expects a {_DIM_TEXT[constraint.kind]}-dim state, got {dim}"
        )
    if model is not None and dim != model.state_dim:
        raise InvalidState(f"state dim {dim} does not match model {model.kind}")
    return xs


def _h(constraint: BarrierConstraint, x: tuple[float, ...]) -> float:
    p = constraint.params
    if constraint.kind == GEOFENCE_1D:
        pos, vel = x
        return p["p_limit"] - pos - vel * abs(vel) / (2.0 * p["u_max"])
    if constraint.kind == GEOFENCE_2D_CIRCLE:
        cx, cy = p["center"]
        r0 = x[0] - cx
        r1 = x[1] - cy
        d = math.hypot(r0, r1)
        v_r = (r0 * x[2] + r1 * x[3]) / d if d > 0.0 else 0.0
        out = max(0.0, v_r)
        return p["radius"] - d - out * out / (2.0 * p["u_max"])
    # speed_limit
    if len(x) == 2:
        v = x[1]
        return p["v_max"] ** 2 - v * v
    v0, v1 = x[2], x[3]
    return p["v_max"] ** 2 - v0 * v0 - v1 * v1


def _grad(constraint: BarrierConstraint, x: tuple[float, ...]) -> tuple[float, ...]:
    p = constraint.params
    if constraint.kind == GEOFENCE_1D:
        return (-1.0, -abs(x[1]) / p["u_max"])
    if constraint.kind == GEOFENCE_2D_CIRCLE:
        cx, cy = p["center"]
        r0 = x[0] - cx
        r1 = x[1] - cy
        d = math.hypot(r0, r1)
        if d == 0.0:
            raise SingularGradient(constraint.id)
        rh0, rh1 = r0 / d, r1 / d
        v0, v1 = x[2], x[3]
        v_r = rh0 * v0 + rh1 * v1
        if v_r > 0.0:
            c = v_r / p["u_max"]
            return (
                -rh0 - c * (v0 - v_r * rh0) / d,
                -rh1 - c * (v1 - v_r * rh1) / d,
                -c * rh0,
                -c * rh1,
            )
        return (-rh0, -rh1, 0.0, 0.0)
    # speed_limit
    if len(x) == 2:
        return (0.0, -2.0 * x[1])
    return (0.0, 0.0, -2.0 * x[2], -2.0 * x[3])


def eval_h(constraint: BarrierConstraint, state: PlantState) -> float:
    """Barrier value; h >= 0 iff the state is in the constraint's safe set."""
    return _h(constraint, _coords(constraint, state))


def eval_grad_h(constraint: BarrierConstraint, state: PlantState) -> tuple[float, ...]:
    """Gradient of h with respect to the state vector, a tuple of floats."""
    return _grad(constraint, _coords(constraint, state))


def cbf_row(constraint: BarrierConstraint, model: PlantModel, state: PlantState) -> tuple[tuple[float, ...], float]:
    """Reduce the constraint to the linear row a . u >= b at this state.

    The admissible set {u : a.u >= b} is the strengthened barrier condition
    hdot + gamma*h >= 0 under the model's control-affine dynamics. a, a tuple
    of floats, and b depend only on the state, never on u.
    """
    x = _coords(constraint, state, model)
    gamma_h = constraint.gamma * _h(constraint, x)
    grad = _grad(constraint, x)
    return actuation_row(model, grad), -drift_term(model, grad, x) - gamma_h


def sampled_row(
    constraint: BarrierConstraint, model: PlantModel, state: PlantState, dt: float
) -> tuple[tuple[float, ...], float] | None:
    """The sampled-data row a . u >= b for a command held over one period dt.

    It enforces h(x_{k+1}(u)) >= (1 - gamma*dt) * h(x_k), where x_{k+1}(u) is
    the undisturbed zero-order-hold step (dynamics.hold_map), which is the
    condition the sampled plant obeys (Agrawal & Sreenath, "Discrete Control
    Barrier Functions", RSS 2017). It complements cbf_row's row and never
    replaces it.

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

    A row returned is a float row as cbf_row's, with authority (a != 0).
    """
    if not dt > 0:
        raise InvalidConfig(f"dt must be > 0, got {dt}")
    if constraint.kind == SPEED_LIMIT:
        return None
    x = _coords(constraint, state, model)
    free, k_p, k_v = hold_map(model, x, dt)
    p = constraint.params
    u_max = p["u_max"]
    decay = 1.0 - constraint.gamma * dt
    if constraint.kind == GEOFENCE_1D:
        h_k = _h(constraint, x)
        # With s = v_{k+1} = v_free + k_v u, p_{k+1} = p_free + rho (s - v_free)
        # and h(x_{k+1}) = p_limit - p_free + rho v_free - rho s - s|s|/(2 u_max),
        # which falls on decay * h_k at the root s of rho s + s|s|/(2 u_max) = k.
        p_free, v_free = free
        rho = k_p / k_v
        k = p["p_limit"] - p_free + rho * v_free - decay * h_k
        s = 2.0 * k / (rho + math.sqrt(rho * rho + 2.0 * abs(k) / u_max))
        return (-1.0,), -(s - v_free) / k_v
    p0, p1, v0, v1 = x
    cx, cy = p["center"]
    speed = math.hypot(v0, v1)
    reach = speed / (2.0 * u_max)
    hs_k = p["radius"] - math.hypot(p0 + v0 * reach - cx, p1 + v1 * reach - cy)
    if speed >= u_max * dt:
        # full braking along -v holds the stopping point through the step
        ub0, ub1 = -u_max * v0 / speed, -u_max * v1 / speed
    else:
        # the command that stops the plant within the period
        ub0, ub1 = -v0 / dt, -v1 / dt
    # the braked step, and its stopping point relative to the center
    bp0, bp1 = free[0] + k_p * ub0, free[1] + k_p * ub1
    bv0, bv1 = free[2] + k_v * ub0, free[3] + k_v * ub1
    b_speed = math.hypot(bv0, bv1)
    reach = b_speed / (2.0 * u_max)
    q0, q1 = bp0 + bv0 * reach - cx, bp1 + bv1 * reach - cy
    dist = math.hypot(q0, q1)
    if dist == 0.0:
        return None
    hs_b = p["radius"] - dist
    demand = min(decay * hs_k, hs_b) - hs_b
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
    return (a0, a1), demand + a0 * ub0 + a1 * ub1


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


def check_bounds_consistency(constraint: BarrierConstraint, model: PlantModel) -> None:
    """Verify that a u_max baked into h equals the plant's per-axis bound
    magnitude. A mismatch means the braking-distance derivation does not
    describe the actual actuation authority, so it is a configuration error.
    """
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
