"""Independent oracles used by the test suite.

These deliberately avoid the library's solution paths: the QP oracle is a
brute-force grid scan, the integration oracle is the closed-form transition
of the double integrator, the plant reference is its drift and actuation
matrix as numpy arrays, and the least-max-violation reference is the
filter's earlier one-candidate-at-a-time enumerator, kept to test the
filter's own enumeration against. Both solve crossings by Cramer's rule and
price points with the filter's scalar sum (row_violations), so they agree
bit for bit. The trace writer reference formats one cell at a time, as
write_trace did before it worked on whole rows.
"""

import json
from itertools import combinations

import numpy as np

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
