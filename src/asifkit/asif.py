"""Minimal-deviation quadratic-program safety filter.

Each control step assembles one linear row per barrier constraint (and,
given the control period dt, each constraint's sampled-data row after it)
plus the actuation box, then solves

    minimize   0.5 * ||u - u_des||^2
    subject to A u >= b,  u_min <= u <= u_max

exactly with a primal active-set iteration (Hessian = identity, so every
equality-constrained subproblem is a projection). Safe commands pass through
bitwise unchanged; unsafe commands are minimally modified. If the rows and
box admit no feasible point the filter falls back to the box point nearest
u_des among those that minimize the maximum row violation, and says so
loudly in the result status.

A row with no control authority (a = 0) that demands b > 0 cannot be met by
any command. Without a sampled row for its constraint, that is structural
infeasibility: StructurallyInfeasible is raised and the harness aborts the
episode. When the constraint's sampled row is in the problem it can still
act, so the step is solved over the rows that have authority and reported
as infeasible_fallback, with the constraint named first among the active
rows. Such a step's command is the minimal-deviation point over those rows
(u_des itself, with deviation 0, when it meets them all), not the
least-max-violation point the same status names otherwise.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .barrier import BarrierConstraint, cbf_row, sampled_row
from .dynamics import ControlInput, PlantModel, PlantState
from .errors import SolverStall, StructurallyInfeasible

PASSTHROUGH = "passthrough"
MODIFIED = "modified"
INFEASIBLE_FALLBACK = "infeasible_fallback"

_DEP_TOL = 1e-12  # rank test for adding a row to the working set
_FEAS_TOL = 1e-11  # violation considered zero inside the iteration


class QpProblem(NamedTuple):
    """Assembled filter problem: rows mean a . u >= b."""

    u_des: np.ndarray
    rows_a: np.ndarray  # shape (m, control_dim)
    rows_b: np.ndarray  # shape (m,)
    row_ids: tuple[str, ...]
    box: np.ndarray  # shape (control_dim, 2)
    # constraints with a row no command can meet (a = 0, b > 0) whose other
    # rows are in the problem; a step that has any is a flagged fallback
    unmet_ids: tuple[str, ...] = ()

    @property
    def control_dim(self) -> int:
        return self.u_des.shape[0]


class FilterResult(NamedTuple):
    u_out: ControlInput
    intervened: bool
    deviation: float
    active_row_ids: tuple[str, ...]
    status: str
    solve_time: float


def assemble_qp(
    constraints: list[BarrierConstraint],
    model: PlantModel,
    state: PlantState,
    u_des: ControlInput,
    dt: float | None = None,
) -> QpProblem:
    """One row per constraint via cbf_row; box from the model bounds. Given
    the control period dt, each constraint's sampled_row, where it has one,
    follows its continuous row.

    Rows with a = 0 are insensitive to control: vacuous when b <= 0 (dropped).
    When b > 0 no command can meet the row. The constraint is then
    structurally infeasible (raised) unless it has a sampled row, which
    always has authority; it is then listed in unmet_ids.
    """
    rows_a = []
    rows_b = []
    row_ids = []
    unmet = []
    for constraint in constraints:
        a, b = cbf_row(constraint, model, state)
        a = a.tolist()
        sampled = None if dt is None else sampled_row(constraint, model, state, dt)
        if any(a):
            rows_a.append(a)
            rows_b.append(b)
            row_ids.append(constraint.id)
        elif b > 0.0:
            if sampled is None:
                raise StructurallyInfeasible(constraint.id)
            unmet.append(constraint.id)
        if sampled is not None:
            rows_a.append(sampled[0].tolist())
            rows_b.append(sampled[1])
            row_ids.append(constraint.id)
    return QpProblem(
        np.asarray(u_des.u, dtype=float),
        np.array(rows_a, dtype=float) if rows_a else np.empty((0, model.control_dim)),
        np.array(rows_b, dtype=float),
        tuple(row_ids),
        model.control_bounds,
        tuple(unmet),
    )


def solve_qp(qp: QpProblem) -> tuple[np.ndarray, tuple[int, ...], str]:
    """Exact minimizer of 0.5||u - u_des||^2 under rows and box.

    Returns (u_star, active row indices into qp.rows_a, status). Starts from
    the box-clamped u_des; if that already satisfies every row it is optimal
    (passthrough when it equals u_des bitwise). Otherwise iterates an active
    set, adding the most-violated constraint (lowest index on ties) and
    dropping negative-multiplier members, each subproblem solved by
    projection. An empty feasible set yields the least-max-violation box
    point nearest u_des with status infeasible_fallback.
    """
    d = qp.control_dim
    m = qp.rows_a.shape[0]

    if d == 1:
        ((lo0, hi0),) = qp.box.tolist()
        (ud,) = qp.u_des.tolist()
        u0 = lo0 if ud < lo0 else (hi0 if ud > hi0 else ud)
        rows = [(a, b) for (a,), b in zip(qp.rows_a.tolist(), qp.rows_b.tolist())]
        violated = False
        active = []
        for i, (a, b) in enumerate(rows):
            slack = b - a * u0
            if slack > 0.0:
                violated = True
                break
            if slack == 0.0:
                active.append(i)
        if not violated:
            if u0 == ud:
                return qp.u_des, (), PASSTHROUGH
            return np.array([u0]), tuple(active), MODIFIED
        return _solve_interval(qp, rows, ud, lo0, hi0)

    ud0, ud1 = qp.u_des.tolist()
    (lo0, hi0), (lo1, hi1) = qp.box.tolist()
    c0 = lo0 if ud0 < lo0 else (hi0 if ud0 > hi0 else ud0)
    c1 = lo1 if ud1 < lo1 else (hi1 if ud1 > hi1 else ud1)
    slack0 = (qp.rows_b - qp.rows_a @ np.array([c0, c1])).tolist()
    if max(slack0, default=0.0) <= 0.0:
        if c0 == ud0 and c1 == ud1:
            return qp.u_des, (), PASSTHROUGH
        active = tuple(i for i, s in enumerate(slack0) if s == 0.0)
        return np.array([c0, c1]), active, MODIFIED

    # Rows as scalar triples (a0, a1, b) meaning a0*u0 + a1*u1 >= b.
    col0, col1 = qp.rows_a.T.tolist()
    rows_b = qp.rows_b.tolist()
    rows = list(zip(col0, col1, rows_b))
    max_b = max(abs(lo0), abs(hi0), abs(lo1), abs(hi1), max(rows_b), -min(rows_b))
    # the general constraint list: rows first, then box faces, so row
    # indices stay stable for reporting
    cons = rows + [(1.0, 0.0, lo0), (-1.0, -0.0, -hi0), (0.0, 1.0, lo1), (-0.0, -1.0, -hi1)]
    feas_tol = _FEAS_TOL * (1.0 + max_b + abs(ud0) + abs(ud1))
    cap = (d + m + 8) ** 2
    working: list[int] = []
    if c0 == ud0 and c1 == ud1:
        # The first iteration projects onto no constraint and scans u_des
        # itself, where every box face holds: take its entering row from the
        # rows' violations there.
        violation = [b - a0 * ud0 - a1 * ud1 for a0, a1, b in rows]
        top = max(violation)
        j = violation.index(top)
        if top > feas_tol and _independent2(cons, working, j, d):
            working.append(j)
            cap -= 1

    for _ in range(cap):
        u0c, u1c, lam = _project2(ud0, ud1, cons, working)
        if lam and min(lam) < -feas_tol:
            worst = min(range(len(lam)), key=lambda k: lam[k])
            working.pop(worst)
            continue
        # the most violated constraint outside the working set, lowest
        # index on ties (working members count as satisfied); a box face's
        # violation b - a . u reduces to a difference
        violation = [b - a0 * u0c - a1 * u1c for a0, a1, b in rows]
        violation += (lo0 - u0c, u0c - hi0, lo1 - u1c, u1c - hi1)
        for i in working:
            violation[i] = 0.0
        worst_violation = max(violation)
        if worst_violation <= feas_tol:
            active = tuple(sorted(filter(m.__gt__, working)))
            return np.array([u0c, u1c]), active, MODIFIED
        j = violation.index(worst_violation)
        # Make room for the entering row j: while its normal lies in the span
        # of the working set, a member must leave (dual step) or the problem
        # is infeasible in this direction. j stays the entering candidate
        # through the drops, otherwise the add/drop pair can cycle.
        infeasible = False
        while not _independent2(cons, working, j, d):
            drop = _dual_drop2(cons, working, lam, j)
            if drop is None:
                infeasible = True
                break
            working.pop(drop)
            _u0, _u1, lam = _project2(ud0, ud1, cons, working)
        if infeasible:
            return _fallback(qp, feas_tol)
        working.append(j)

    # Cap exhausted: certify feasibility exactly before declaring a bug.
    u_fb, active, status = _fallback(qp, feas_tol)
    worst = qp.rows_b - qp.rows_a @ u_fb
    if float(np.max(worst)) > feas_tol:
        return u_fb, active, status
    raise SolverStall(f"active-set iteration cap {cap} exceeded on a feasible problem")


def _solve_interval(
    qp: QpProblem, rows, u_des: float, lo: float, hi: float
) -> tuple[np.ndarray, tuple[int, ...], str]:
    """One control axis: the feasible set of halflines and box is an interval,
    so the minimizer is the direct projection of u_des onto it. Reached only
    when the clamped u_des violates some row, so the result is a genuine
    modification or a fallback. rows holds (a, b) pairs."""
    lower, lower_idx = lo, -1
    upper, upper_idx = hi, -1
    met = True  # False once a row without authority (a = 0) demands b > 0
    for i, (a, b) in enumerate(rows):
        if a > 0.0:
            bound = b / a
            if bound > lower:
                lower, lower_idx = bound, i
        elif a < 0.0:
            bound = b / a
            if bound < upper:
                upper, upper_idx = bound, i
        elif b > 0.0:
            met = False
    if met and lower <= upper:
        active = []
        if u_des <= lower:
            u_star = lower
            if lower_idx >= 0:
                active.append(lower_idx)
        else:
            u_star = upper
            if upper_idx >= 0:
                active.append(upper_idx)
        return np.array([u_star]), tuple(active), MODIFIED
    u_fb, worst = _least_max_violation(qp)
    top = float(np.max(worst))
    active = tuple(int(i) for i in np.nonzero(worst >= top - _FEAS_TOL * (1.0 + abs(top)))[0])
    return u_fb, active, INFEASIBLE_FALLBACK


def _project2(ud0, ud1, cons, working):
    """Two-axis projection of u_des onto the working-set equalities."""
    k = len(working)
    if k == 0:
        return ud0, ud1, []
    if k == 1:
        a0, a1, b = cons[working[0]]
        lam = (b - a0 * ud0 - a1 * ud1) / (a0 * a0 + a1 * a1)
        return ud0 + lam * a0, ud1 + lam * a1, [lam]
    p0, p1, pb = cons[working[0]]
    q0, q1, qb = cons[working[1]]
    g11 = p0 * p0 + p1 * p1
    g12 = p0 * q0 + p1 * q1
    g22 = q0 * q0 + q1 * q1
    det = g11 * g22 - g12 * g12
    r0 = pb - p0 * ud0 - p1 * ud1
    r1 = qb - q0 * ud0 - q1 * ud1
    l0 = (g22 * r0 - g12 * r1) / det
    l1 = (g11 * r1 - g12 * r0) / det
    return ud0 + l0 * p0 + l1 * q0, ud1 + l0 * p1 + l1 * q1, [l0, l1]


def _independent2(cons, working, j, control_dim) -> bool:
    a0, a1, _ = cons[j]
    norm = math.hypot(a0, a1)
    if not working:
        return norm > _DEP_TOL
    if len(working) >= control_dim:
        return False
    w0, w1, _ = cons[working[0]]
    cross = w0 * a1 - w1 * a0
    return abs(cross) > _DEP_TOL * max(1.0, norm) * math.hypot(w0, w1)


def _dual_drop2(cons, working, lam, j):
    """Pick the working-set member to drop so the violated (dependent) row can
    enter; None when no member helps, which certifies infeasibility."""
    if not working:
        return None  # j has no authority (a = 0) and is violated
    a0, a1, _ = cons[j]
    if len(working) == 1:
        w0, w1, _ = cons[working[0]]
        r = [(w0 * a0 + w1 * a1) / (w0 * w0 + w1 * w1)]
    else:
        p0, p1, _ = cons[working[0]]
        q0, q1, _ = cons[working[1]]
        g11 = p0 * p0 + p1 * p1
        g12 = p0 * q0 + p1 * q1
        g22 = q0 * q0 + q1 * q1
        det = g11 * g22 - g12 * g12
        c0 = p0 * a0 + p1 * a1
        c1 = q0 * a0 + q1 * a1
        r = [(g22 * c0 - g12 * c1) / det, (g11 * c1 - g12 * c0) / det]
    candidates = [(lam[k] / r[k], k) for k in range(len(working)) if r[k] > _DEP_TOL]
    if not candidates:
        return None
    return min(candidates, key=lambda t: (t[0], working[t[1]]))[1]


def _fallback(qp, feas_tol):
    u_fb, worst = _least_max_violation(qp)
    top = float(np.max(worst))
    active = tuple(int(i) for i in np.nonzero(worst >= top - feas_tol)[0])
    return u_fb, active, INFEASIBLE_FALLBACK


def _violations(rows_a, rows_b, coords, d):
    """b - A u for each point of the flat coordinate list (one point per row
    of the result). The stacked matrix-vector product rounds as rows_a @ u
    does for each point alone."""
    return rows_b - np.matmul(rows_a, np.array(coords).reshape(-1, d, 1))[..., 0]


def _least_max_violation(qp) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of max_i (b_i - a_i . u) over the box, with its row
    violations b - A u.

    The max of affine functions is piecewise linear and convex, so its
    minimum over the box is attained at a box corner, where a pairwise
    equal-value locus crosses a box face, or (2-D) where two such loci
    cross. Those candidates are built with scalar arithmetic, the crossings
    of two loci are solved in one stacked LAPACK call, and every candidate
    is priced in one batched evaluation. When distinct candidates tie at the
    least maximum violation, they span the set of least-max-violation
    points, and the point of their convex hull nearest u_des is returned
    (see _nearest_tied).
    """
    rows_a = qp.rows_a
    rows_b = qp.rows_b
    box = qp.box.tolist()
    a = rows_a.tolist()
    b = rows_b.tolist()
    m = len(b)
    d = len(box)
    if d == 1:
        ((lo0, hi0),) = box
        coords = [lo0, hi0]
        for i, j in combinations(range(m), 2):
            da = a[i][0] - a[j][0]
            if da != 0.0:
                u = (b[i] - b[j]) / da
                if lo0 <= u <= hi0:
                    coords.append(u)
    else:
        (lo0, hi0), (lo1, hi1) = box
        coords = [lo0, lo1, lo0, hi1, hi0, lo1, hi0, hi1]
        # each pair's equal-value line crossed with the box faces
        for i, j in combinations(range(m), 2):
            da0 = a[i][0] - a[j][0]
            da1 = a[i][1] - a[j][1]
            db = b[i] - b[j]
            if da1 != 0.0:
                for fixed in (lo0, hi0):
                    val = (db - da0 * fixed) / da1
                    if lo1 <= val <= hi1:
                        coords += (fixed, val)
            if da0 != 0.0:
                for fixed in (lo1, hi1):
                    val = (db - da1 * fixed) / da0
                    if lo0 <= val <= hi0:
                        coords += (val, fixed)
        # two pairs' equal-value lines crossed, accepted within 1e-12 of the
        # box and clamped into it
        systems = []
        rhs = []
        for i, j, k in combinations(range(m), 3):
            p0 = a[i][0] - a[j][0]
            p1 = a[i][1] - a[j][1]
            q0 = a[i][0] - a[k][0]
            q1 = a[i][1] - a[k][1]
            if abs(p0 * q1 - p1 * q0) >= 1e-14:
                systems += (p0, p1, q0, q1)
                rhs += (b[i] - b[j], b[i] - b[k])
        if systems:
            n = len(rhs) // 2
            crossings = np.linalg.solve(np.array(systems).reshape(n, 2, 2), np.array(rhs).reshape(n, 2, 1))
            flat = crossings.ravel().tolist()
            for u0, u1 in zip(flat[::2], flat[1::2]):
                if lo0 - 1e-12 <= u0 <= hi0 + 1e-12 and lo1 - 1e-12 <= u1 <= hi1 + 1e-12:
                    # bound first, so signed zeros clamp as np.clip does
                    coords += (min(hi0, max(lo0, u0)), min(hi1, max(lo1, u1)))

    violations = _violations(rows_a, rows_b, coords, d)
    phi = violations.max(axis=1).tolist()
    least = min(phi)
    tied = [coords[d * k : d * k + d] for k, v in enumerate(phi) if v == least]
    if all(u == tied[0] for u in tied):
        first = phi.index(least)
        return np.array(tied[0]), violations[first]
    return _nearest_tied(qp.u_des.tolist(), tied, rows_a, rows_b, box)


def _nearest_tied(u_des, tied, rows_a, rows_b, box) -> tuple[np.ndarray, np.ndarray]:
    """The point nearest u_des in the convex hull of the tied candidates.

    The tied candidates are the vertices of the optimal face of the linear
    program min t s.t. t >= b_i - a_i . u over the box, so their hull is the
    set of least-max-violation points. In 1-D that is u_des clamped into the
    tied interval. In 2-D the nearest point is u_des itself, a projection
    onto a segment between two vertices, or a vertex. A point counts only
    if it lies in the box and rounding leaves its maximum violation equal
    to the vertices'; the vertices always do, and among the points that
    count the one nearest u_des wins, coordinates breaking exact ties.
    """
    d = len(box)
    if d == 1:
        ends = [u for (u,) in tied]
        options = [[min(max(ends), max(min(ends), u_des[0]))]]
    else:
        options = [u_des]
        ud0, ud1 = u_des
        for (p0, p1), (q0, q1) in combinations(tied, 2):
            e0 = q0 - p0
            e1 = q1 - p1
            r0 = ud0 - p0
            r1 = ud1 - p1
            length2 = e0 * e0 + e1 * e1
            if 0.0 < r0 * e0 + r1 * e1 < length2:
                # step along the segment's normal only, so an axis-aligned
                # segment keeps u_des's coordinate along it exactly
                s = (r1 * e0 - r0 * e1) / length2
                options.append([ud0 + s * e1, ud1 - s * e0])
    points = tied + options
    violations = _violations(rows_a, rows_b, [v for u in points for v in u], d)
    phi = violations.max(axis=1).tolist()
    counted = [
        k
        for k, u in enumerate(points)
        if k < len(tied) or (phi[k] == phi[0] and all(lo <= v <= hi for v, (lo, hi) in zip(u, box)))
    ]
    k = min(counted, key=lambda k: (command_deviation(points[k], u_des), points[k]))
    return np.array(points[k]), violations[k]


def command_deviation(u, u_des) -> float:
    """Euclidean distance between two commands given as float sequences,
    summed in axis order: the one formula for a step's deviation, used by
    the filter and by read_trace."""
    square = 0.0
    for ui, di in zip(u, u_des):
        square += (ui - di) * (ui - di)
    return math.sqrt(square)


def filter_control(
    constraints: list[BarrierConstraint],
    model: PlantModel,
    state: PlantState,
    u_des: ControlInput,
    dt: float | None = None,
) -> FilterResult:
    """Assemble and solve the filter QP; never hides an infeasible fallback.

    dt is the period the command will be held for. Given it, the problem
    gains each constraint's sampled-data row, and a constraint that only its
    sampled row can still act on makes the step an infeasible_fallback
    instead of a StructurallyInfeasible abort. Without it the rows and the
    result are those of the continuous-time condition alone.
    """
    start = time.perf_counter()
    qp = assemble_qp(constraints, model, state, u_des, dt)
    u_star, active_idx, status = solve_qp(qp)
    elapsed = time.perf_counter() - start
    if qp.unmet_ids:
        status = INFEASIBLE_FALLBACK
    elif status == PASSTHROUGH:
        return FilterResult(u_des, False, 0.0, (), PASSTHROUGH, elapsed)
    u = u_star.tolist()
    active_row_ids = qp.unmet_ids + tuple([qp.row_ids[i] for i in active_idx])
    if len(active_row_ids) > 1:
        # a constraint with two rows in the problem is named once
        active_row_ids = tuple(dict.fromkeys(active_row_ids))
    # the solution can leave the box by rounding: clip it back in
    clipped = [lo if v < lo else (hi if v > hi else v) for v, (lo, hi) in zip(u, model._box)]
    u_out = ControlInput._trusted(np.array(clipped), model.control_bounds)
    deviation = command_deviation(clipped, qp.u_des.tolist())
    return FilterResult(u_out, True, deviation, active_row_ids, status, elapsed)


def check_kkt(qp: QpProblem, u_star: np.ndarray, tol: float = 1e-8) -> dict:
    """Residuals of the KKT system at u_star for the full problem (rows plus
    box). Multipliers are recovered by nonnegative least squares on the
    active rows; used by tests and the solver's own validation evidence.
    """
    lo = qp.box[:, 0]
    hi = qp.box[:, 1]
    m = qp.rows_a.shape[0]
    d = qp.control_dim
    cons_a = np.zeros((m + 2 * d, d))
    cons_b = np.zeros(m + 2 * d)
    if m:
        cons_a[:m] = qp.rows_a
        cons_b[:m] = qp.rows_b
    for j in range(d):
        cons_a[m + 2 * j, j] = 1.0
        cons_b[m + 2 * j] = lo[j]
        cons_a[m + 2 * j + 1, j] = -1.0
        cons_b[m + 2 * j + 1] = -hi[j]
    slack = cons_a @ u_star - cons_b
    primal = float(max(0.0, -np.min(slack))) if slack.size else 0.0
    active = np.nonzero(slack <= tol * 10)[0]
    grad = u_star - qp.u_des
    if active.size:
        A = cons_a[active]
        lam, *_ = np.linalg.lstsq(A.T, grad, rcond=None)
        lam = np.maximum(lam, 0.0)
        stationarity = float(np.linalg.norm(grad - A.T @ lam))
        comp = float(np.max(np.abs(lam * slack[active]))) if lam.size else 0.0
    else:
        stationarity = float(np.linalg.norm(grad))
        comp = 0.0
    return {"stationarity": stationarity, "primal": primal, "complementarity": comp}
