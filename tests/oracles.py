"""Independent oracles used by the test suite.

These deliberately avoid the library's solution paths: the QP oracle is a
brute-force grid scan, the integration oracle is the closed-form transition
of the double integrator, the plant reference is its drift and actuation
matrix as numpy arrays, and the least-max-violation reference is the
filter's earlier one-candidate-at-a-time enumerator, kept to test the
filter's own enumeration against. Both solve crossings by Cramer's rule and
price points with the filter's scalar sum (row_violations), so they agree
bit for bit. The trace writer reference formats one cell at a time, as
write_trace did before it worked on whole rows. The filter's scaled
feasibility tolerance and a step's deviation, RK4's stages, the
disturbance's norm and scaling and the adversarial command's saturation
have the generic per-axis loops they had before they were written out for
one axis and for two, and the MLP reference takes each layer's product as
w @ v. The barrier reference
composes each row from h and the whole gradient, evaluated together, with
a = grad . g on the plant reference's g and the drift term as an exactly
rounded sum, as the barrier module did before its entry points became
per-kind kernels; its sampled-data row writes out the held-command step
itself, and the adversarial command reads the reference's gradient.
"""

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from asifkit.asif import _FEAS_TOL
from asifkit.barrier import GEOFENCE_1D, GEOFENCE_2D_CIRCLE, SPEED_LIMIT
from asifkit.errors import InvalidConfig, InvalidState, SingularGradient
from asifkit.harness import _STATUS_NAMES, trace_header

_GRID_CACHE = {}


def qp_arrays(qp):
    """A filter problem's rows and box as the arrays the numpy oracles read:
    (rows_a of shape (m, d), rows_b, lo, hi)."""
    d = qp.control_dim
    rows = np.array(qp.rows, dtype=float).reshape(-1, d + 1)
    box = np.array(qp.box, dtype=float)
    return rows[:, :d], rows[:, d], box[:, 0], box[:, 1]


def _grid(box_key, points, dtype):
    key = (box_key, points, dtype)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    (lo0, hi0), (lo1, hi1) = box_key
    a0 = np.linspace(lo0, hi0, points, dtype=dtype)
    a1 = np.linspace(lo1, hi1, points, dtype=dtype)
    g0, g1 = np.meshgrid(a0, a1, indexing="ij")
    grid = (g0.ravel(), g1.ravel())
    _GRID_CACHE[key] = grid
    return grid


def grid_oracle(qp, points=2001, precise=False):
    """Brute-force minimum deviation over a per-axis grid of the box.

    Returns (deviation at the best feasible grid point, feasible?) where
    feasible means at least one grid point satisfies every row. The default
    single-precision scan is accurate to ~1e-7, far inside the grid pitch;
    `precise` re-runs in double precision for boundary disagreements.
    """
    d = qp.control_dim
    rows_a, rows_b, lo, hi = qp_arrays(qp)
    if d == 1:
        axis = np.linspace(lo[0], hi[0], points)
        mask = np.ones(points, dtype=bool)
        for i in range(rows_a.shape[0]):
            mask &= axis * rows_a[i, 0] >= rows_b[i]
        if not mask.any():
            return None, False
        dev = np.abs(axis[mask] - qp.u_des[0])
        return float(dev.min()), True

    dtype = np.float64 if precise else np.float32
    box_key = ((lo[0], hi[0]), (lo[1], hi[1]))
    g0, g1 = _grid(box_key, points, dtype)
    rows_a = rows_a.astype(dtype)
    rows_b = rows_b.astype(dtype)
    ud0 = dtype(qp.u_des[0])
    ud1 = dtype(qp.u_des[1])
    n = g0.shape[0]
    best = np.inf
    feasible = False
    chunk = 1 << 15  # keep per-chunk temporaries cache-resident
    for start in range(0, n, chunk):
        c0 = g0[start : start + chunk]
        c1 = g1[start : start + chunk]
        mask = np.ones(c0.shape[0], dtype=bool)
        for i in range(rows_a.shape[0]):
            mask &= c0 * rows_a[i, 0] + c1 * rows_a[i, 1] >= rows_b[i]
        if not mask.any():
            continue
        feasible = True
        d0 = c0 - ud0
        d1 = c1 - ud1
        dev2 = d0 * d0 + d1 * d1
        best = min(best, float(np.min(np.where(mask, dev2, np.inf))))
    if not feasible:
        return None, False
    return float(np.sqrt(best)), True


def eval_dynamics(model, state):
    """Drift f(x) and actuation matrix g of a double-integrator model as
    numpy arrays, f of length state_dim and g of shape (state_dim,
    control_dim): f = (velocities, 0) and g = (0; I)."""
    x = state.x
    d = model.control_dim
    return np.concatenate([x[d:], np.zeros(d)]), np.vstack([np.zeros((d, d)), np.eye(d)])


def grad_times_g(model, state, grad):
    """a = grad . g on eval_dynamics' g, as a tuple of floats: per control,
    numpy's sum over the state of grad times g's column, in which an entry
    where g is zero adds 0.0 (a NaN or infinite gradient entry times that
    zero would give NaN, which g's zeros do not carry into a). The state's
    entries may be NaN or infinite: it is read without the public
    PlantState checks."""
    g = eval_dynamics(model, state)[1]
    terms = np.where(g != 0.0, np.array(grad, dtype=float)[:, None], 0.0) * g
    return tuple(terms.sum(axis=0).tolist())


def closed_form_step(x, u, w, dt):
    """Exact transition of the disturbed double integrator (any dimension)."""
    x = np.asarray(x, float)
    half = x.shape[0] // 2
    p, v = x[:half], x[half:]
    wp, wv = np.asarray(w, float)[:half], np.asarray(w, float)[half:]
    a = np.asarray(u, float) + wv
    p1 = p + (v + wp) * dt + 0.5 * a * dt * dt
    v1 = v + a * dt
    return np.concatenate([p1, v1])


def rk4_stages(model, xs, us, ws, dt):
    """step_rk4's new state, as a list, from the state, command and
    disturbance floats by the per-axis loop: each axis's stage derivatives
    k1 = v + w_p, k2 = k3 = v + dt/2 a + w_p and k4 = v + dt a + w_p, with
    a = u + w_v, summed k1 + 2 k2 + 2 k3 + k4 left to right."""
    half = model.state_dim // 2
    half_dt = 0.5 * dt
    sixth_dt = dt / 6.0
    x1 = list(xs)
    for j in range(half):
        p = xs[j]
        v = xs[half + j]
        wp = ws[j]
        acc = us[j] + ws[half + j]
        k1p = v + wp
        k2p = v + half_dt * acc + wp
        k3p = k2p
        k4p = v + dt * acc + wp
        x1[j] = p + sixth_dt * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        x1[half + j] = v + dt * acc
    return x1


def sample_disturbance(model, gen):
    """sample_disturbance's draw from the Generator gen by the generic loop:
    the same two draws, the squared norm summed from 0.0 in axis order, and
    each coordinate scaled by magnitude / norm, or divided by the norm
    first when that scale overflows."""
    if model.disturbance_bound == 0.0:
        return (0.0,) * model.state_dim
    direction = gen.standard_normal(model.state_dim).tolist()
    magnitude = model.disturbance_bound * gen.random()
    square = 0.0
    for c in direction:
        square += c * c
    norm = math.sqrt(square)
    if norm == 0.0:
        return (0.0,) * model.state_dim
    scale = magnitude / norm
    if scale == math.inf:
        return tuple([c / norm * magnitude for c in direction])
    return tuple([c * scale for c in direction])


def adversarial_command(constraint, model, state):
    """The adversarial controller's command for constraint: full magnitude
    against the sign of a = grad_h . g (or, where a is zero, of the position
    gradient), zero clamped into the box where an entry of a is zero,
    saturated axis by axis in one comprehension."""
    grad = barrier_eval_grad_h(constraint, state)
    a = grad_times_g(model, state, grad)
    if not any(a):
        a = grad[: model.control_dim]  # grad . (df/dx) g, df/dx = (0 I; 0 0)
    return tuple([
        hi if aj < 0.0 else (lo if aj > 0.0 else min(max(0.0, lo), hi))
        for aj, (lo, hi) in zip(a, model._box)
    ])


def mlp_forward(spec, x):
    """An MLP's output with each layer's affine map as w @ v + b."""
    v = np.asarray(x, dtype=float)
    for w, b, act in zip(spec.weights, spec.biases, spec.activations):
        v = w @ v + b
        if act == "tanh":
            v = np.tanh(v)
        elif act == "relu":
            v = np.maximum(v, 0.0)
    return v


def least_max_violation_candidates(rows_a, rows_b, lo, hi):
    """The earlier enumerator's candidate points, in its order: box corners,
    pairwise equal-value lines crossed with box faces, and (2-D) crossings of
    two such lines."""
    d = lo.shape[0]
    m = rows_a.shape[0]
    candidates = []
    if d == 1:
        candidates.extend([np.array([lo[0]]), np.array([hi[0]])])
        for i, j in combinations(range(m), 2):
            da = rows_a[i, 0] - rows_a[j, 0]
            if da != 0.0:
                u = (rows_b[i] - rows_b[j]) / da
                if lo[0] <= u <= hi[0]:
                    candidates.append(np.array([u]))
    else:
        for cx in (lo[0], hi[0]):
            for cy in (lo[1], hi[1]):
                candidates.append(np.array([cx, cy]))
        # pair equal-value line crossed with each box face
        for i, j in combinations(range(m), 2):
            da = rows_a[i] - rows_a[j]
            db = rows_b[i] - rows_b[j]
            for axis in (0, 1):
                other = 1 - axis
                if da[other] == 0.0:
                    continue
                for fixed in (lo[axis], hi[axis]):
                    val = (db - da[axis] * fixed) / da[other]
                    if lo[other] <= val <= hi[other]:
                        u = np.empty(2)
                        u[axis] = fixed
                        u[other] = val
                        candidates.append(u)
        # triples: two pair equal-value lines
        for i, j, k in combinations(range(m), 3):
            A2 = np.array([rows_a[i] - rows_a[j], rows_a[i] - rows_a[k]])
            b2 = np.array([rows_b[i] - rows_b[j], rows_b[i] - rows_b[k]])
            det = A2[0, 0] * A2[1, 1] - A2[0, 1] * A2[1, 0]
            if abs(det) < 1e-14:
                continue
            # Cramer's rule; the determinant test keeps it off a zero divisor
            u = np.array([b2[0] * A2[1, 1] - A2[0, 1] * b2[1], A2[0, 0] * b2[1] - b2[0] * A2[1, 0]]) / det
            if np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12):
                candidates.append(np.clip(u, lo, hi))
    return candidates


def row_violations(rows_a, rows_b, u):
    """b - a . u for each row at the point u, on Python floats: b - a*u0 on
    one axis, b - (a0*u0 + a1*u1) on two, each operation rounded once."""
    u = [float(v) for v in u]
    if len(u) == 1:
        return [b - a * u[0] for (a,), b in zip(rows_a.tolist(), rows_b.tolist())]
    return [b - (a0 * u[0] + a1 * u[1]) for (a0, a1), b in zip(rows_a.tolist(), rows_b.tolist())]


def least_max_violation(qp, rows_a, rows_b, lo, hi):
    """The earlier least-max-violation point: each candidate priced on its
    own, the least key (max violation, distance to u_des, coordinates) kept.
    Ties are broken among the candidates only."""
    best = None
    for u in least_max_violation_candidates(rows_a, rows_b, lo, hi):
        phi = max(row_violations(rows_a, rows_b, u))
        dev = float(np.linalg.norm(u - qp.u_des))
        key = (phi, dev, tuple(u))
        if best is None or key < best[0]:
            best = (key, u)
    return best[1]


def feas_tol(qp):
    """The scaled feasibility tolerance: _FEAS_TOL * (1 + the largest |b| or
    |box bound| + the sum of |u_des|)."""
    rows = qp.rows
    box = qp.box
    top = abs(box[0][0])
    for row in rows:
        v = abs(row[-1])
        if v > top:
            top = v
    for lo, hi in box:
        v = abs(lo)
        if v > top:
            top = v
        v = abs(hi)
        if v > top:
            top = v
    scale = 1.0 + top
    for v in qp.u_des:
        scale += abs(v)
    return _FEAS_TOL * scale


def command_deviation(u, u_des):
    """Euclidean distance between two commands, their squared differences
    summed in axis order from 0.0."""
    square = 0.0
    for ui, di in zip(u, u_des):
        square += (ui - di) * (ui - di)
    return math.sqrt(square)


def write_trace_per_cell(trace, path):
    """A trace's CSV written one numpy scalar at a time: the reference that
    write_trace's bytes are compared against."""
    lines = [f"# config_hash: {trace.config_hash}"]
    lines.append("# config: " + json.dumps(trace.config.raw, sort_keys=True, separators=(",", ":")))
    if trace.aborted:
        lines.append(f"# aborted: {trace.abort_reason}")
    lines.append(trace_header(trace.config, trace.constraint_ids))
    for k in range(trace.n_steps):
        cells = [repr(float(trace.t[k]))]
        cells += [repr(float(v)) for v in trace.states[k]]
        cells += [repr(float(v)) for v in trace.u_des[k]]
        cells += [repr(float(v)) for v in trace.u_out[k]]
        cells += [repr(float(v)) for v in trace.h[k]]
        cells.append("1" if trace.intervened[k] else "0")
        cells.append(_STATUS_NAMES[int(trace.status[k])])
        cells.append(repr(float(trace.solve_time[k])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---- barrier reference ----

_BARRIER_STATE_DIMS = {GEOFENCE_1D: (2,), GEOFENCE_2D_CIRCLE: (4,), SPEED_LIMIT: (2, 4)}


def _barrier_coords(constraint, state, model=None):
    """The state's float tuple, after the barrier entry points' dimension
    checks, with their messages."""
    xs = state.xs
    dims = _BARRIER_STATE_DIMS[constraint.kind]
    if len(xs) not in dims:
        raise InvalidState(f"constraint '{constraint.id}' expects a {'- or '.join(map(str, dims))}-dim state, got {len(xs)}")
    if model is not None and len(xs) != model.state_dim:
        raise InvalidState(f"state dim {len(xs)} does not match model {model.kind}")
    return xs


def barrier_terms(constraint, x):
    """h and its gradient at the state coordinates x, from one dispatch on
    the kind. The gradient is None where it is singular, at a circle's
    center."""
    p = constraint.params
    kind = constraint.kind
    if kind == GEOFENCE_1D:
        pos, vel = x
        u_max = p["u_max"]
        speed = abs(vel)
        return p["p_limit"] - pos - vel * speed / (2.0 * u_max), (-1.0, -speed / u_max)
    if kind == GEOFENCE_2D_CIRCLE:
        cx, cy = p["center"]
        u_max = p["u_max"]
        p0, p1, v0, v1 = x
        r0 = p0 - cx
        r1 = p1 - cy
        d = math.hypot(r0, r1)
        v_r = (r0 * v0 + r1 * v1) / d if d > 0.0 else 0.0
        out = max(0.0, v_r)
        h = p["radius"] - d - out * out / (2.0 * u_max)
        if d == 0.0:
            return h, None
        rh0, rh1 = r0 / d, r1 / d
        v_r = rh0 * v0 + rh1 * v1
        if v_r > 0.0:
            c = v_r / u_max
            return h, (
                -rh0 - c * (v0 - v_r * rh0) / d,
                -rh1 - c * (v1 - v_r * rh1) / d,
                -c * rh0,
                -c * rh1,
            )
        return h, (-rh0, -rh1, 0.0, 0.0)
    if len(x) == 2:
        v = x[1]
        return p["v_max"] ** 2 - v * v, (0.0, -2.0 * v)
    v0, v1 = x[2], x[3]
    return p["v_max"] ** 2 - v0 * v0 - v1 * v1, (0.0, 0.0, -2.0 * v0, -2.0 * v1)


def exact_drift(grad, x, d):
    """grad . f with f = (velocities, 0) on d axes: the rounded products of
    the gradient's position block and the velocities, summed exactly and
    rounded once, so a zero sum is a positive zero. Where a product is not
    finite there is no exact sum, and the products are added as floats."""
    products = [g * v for g, v in zip(grad[:d], x[d:])]
    if not all(map(math.isfinite, products)):
        return sum(products, 0.0)
    total = sum(map(Fraction, products))
    try:
        return float(total)
    except OverflowError:  # the rounded sum lies beyond the float range
        return math.inf if total > 0 else -math.inf


def barrier_eval_h(constraint, state):
    return barrier_terms(constraint, _barrier_coords(constraint, state))[0]


def barrier_eval_grad_h(constraint, state):
    grad = barrier_terms(constraint, _barrier_coords(constraint, state))[1]
    if grad is None:
        raise SingularGradient(constraint.id)
    return grad


def barrier_cbf_row(constraint, model, state):
    """a = grad . g and b = -grad . f - gamma h from h and the whole
    gradient."""
    x = _barrier_coords(constraint, state, model)
    h, grad = barrier_terms(constraint, x)
    if grad is None:
        raise SingularGradient(constraint.id)
    gamma_h = constraint.gamma * h
    return grad_times_g(model, state, grad), -exact_drift(grad, x, model.control_dim) - gamma_h


def barrier_sampled_row(constraint, model, state, dt):
    """The sampled-data row as barrier.filter_rows derives it, as (a, b), on
    the constraint's params mapping."""
    if not (dt > 0.0 and 0.0 < 0.5 * dt * dt < math.inf):
        raise InvalidConfig(f"bad period {dt}")
    if constraint.kind == SPEED_LIMIT:
        return None
    x = _barrier_coords(constraint, state, model)
    d = model.control_dim
    # the zero-order-hold step: per axis, position p + v dt + k_p u and
    # velocity v + k_v u under a command u held over dt
    free = [p + v * dt for p, v in zip(x[:d], x[d:])] + list(x[d:])
    k_p, k_v = 0.5 * dt * dt, dt
    p = constraint.params
    u_max = p["u_max"]
    decay = 1.0 - constraint.gamma * dt
    if constraint.kind == GEOFENCE_1D:
        h_k = barrier_terms(constraint, x)[0]
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
    if speed >= u_max * dt and speed > 0.0:  # at rest, u_max * dt may underflow to 0
        ub0, ub1 = -u_max * v0 / speed, -u_max * v1 / speed
    else:
        ub0, ub1 = -v0 / dt, -v1 / dt
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
    beta = k_v * reach
    c = k_p + beta
    a0, a1 = -c * n0, -c * n1
    square = b_speed * b_speed
    if square > 0.0:
        k = beta * (bv0 * n0 + bv1 * n1) / square
        a0 -= k * bv0
        a1 -= k * bv1
    return (a0, a1), demand + a0 * ub0 + a1 * ub1
