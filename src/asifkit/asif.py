"""Minimal-deviation quadratic-program safety filter.

Each control step assembles one linear row per barrier constraint (and,
given the control period dt, each constraint's sampled-data row after it)
plus the actuation box, then solves

    minimize   0.5 * ||u - u_des||^2
    subject to A u >= b,  u_min <= u <= u_max

exactly in closed form: the Hessian is the identity and there are at most
two control axes, so the minimizer is the projection of u_des onto one
constraint or the vertex of two, found by a finite enumeration (see
solve_qp). Safe commands pass through bitwise unchanged; unsafe commands
are minimally modified. If the rows and box admit no feasible point the
filter falls back to the box point nearest u_des among those that minimize
the maximum row violation, and says so loudly in the result status.

A row with no control authority (a = 0) that demands b > 0 cannot be met by
any command. Without a sampled row for its constraint, that is structural
infeasibility: StructurallyInfeasible is raised and the harness aborts the
episode. When the constraint's sampled row is in the problem it can still
act, so the step is solved over the rows that have authority and reported
as infeasible_fallback, with the constraint named first among the active
rows. Such a step's command is the minimal-deviation point over those rows
(u_des itself, with deviation 0, when it meets them all), not the
least-max-violation point the same status names otherwise.

Tolerance contract, on one axis and on two: a row has control authority iff
the norm of its a exceeds _DEP_TOL. A row without it is met iff b <= feas_tol
(_feas_tol); any other row is met at a point iff b - a.u <= feas_tol there.
A solved point meets every row so; it is passthrough iff it equals u_des,
else modified. A problem with no such point is an infeasible_fallback. Its
command comes from the same contract: phase I finds the least maximum
violation t over the box; where candidates within feas_tol of t lie more
than feas_tol apart, phase II solves the rows shifted to b - t, which gives
the point nearest u_des whose maximum violation is within feas_tol of t
(Boyd & Vandenberghe, Convex Optimization, 2004, section 11.4).

Rounding: the filter computes in Python floats from the barrier rows
(cbf_row, sampled_row) to the command, the solve and fallback in one fixed
order with no numpy call, so its bits match on every machine. It reads u_des
as the command's float tuple (ControlInput.us), and filter_control wraps the
solved tuple as the filtered command without building an array.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .barrier import BarrierConstraint, cbf_row, sampled_row
from .dynamics import ControlInput, PlantModel, PlantState
from .errors import StructurallyInfeasible

PASSTHROUGH = "passthrough"
MODIFIED = "modified"
INFEASIBLE_FALLBACK = "infeasible_fallback"

_DEP_TOL = 1e-12  # rank test for a constraint's normal and for a pair of normals
_FEAS_TOL = 1e-11  # violation counted as zero, before scaling by the problem size


class QpProblem(NamedTuple):
    """Assembled filter problem in Python floats. Each row is an (a_0, b)
    pair on one axis and an (a_0, a_1, b) triple on two, and means
    a . u >= b; box holds the (lo, hi) pair of each axis."""

    u_des: tuple[float, ...]
    rows: tuple[tuple[float, ...], ...]
    row_ids: tuple[str, ...]
    box: tuple[tuple[float, float], ...]
    # constraints with a row no command can meet (a = 0, b > 0) whose other
    # rows are in the problem; a step that has any is a flagged fallback
    unmet_ids: tuple[str, ...] = ()

    @property
    def control_dim(self) -> int:
        return len(self.u_des)


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
    rows = []
    row_ids = []
    unmet = []
    for constraint in constraints:
        a, b = cbf_row(constraint, model, state)
        sampled = None if dt is None else sampled_row(constraint, model, state, dt)
        if any(a):
            rows.append((*a, b))
            row_ids.append(constraint.id)
        elif b > 0.0:
            if sampled is None:
                raise StructurallyInfeasible(constraint.id)
            unmet.append(constraint.id)
        if sampled is not None:
            rows.append((*sampled[0], sampled[1]))
            row_ids.append(constraint.id)
    return QpProblem(u_des.us, tuple(rows), tuple(row_ids), model._box, tuple(unmet))


def solve_qp(qp: QpProblem) -> tuple[tuple[float, ...], tuple[int, ...], str]:
    """Exact minimizer of 0.5||u - u_des||^2 under rows and box.

    Returns (u_star, active row indices into qp.rows, status), u_star a
    tuple of floats. Starts from the box-clamped u_des; if that already
    satisfies every row it is optimal (passthrough when it equals u_des
    bitwise, and u_star is then qp.u_des). Otherwise the minimizer is the
    projection of u_des onto at most d of the constraints (the rows and the
    box faces). One axis projects onto the interval the constraints leave
    (_solve_interval). Two axes try the projection onto the violated
    constraint farthest from u_des, then the vertices of two constraints
    that can be optimal, nearest first. Both decide under the tolerance
    contract of the module docstring. When no point meets the rows, the
    fallback's least-max-violation point (_least_max_violation) is returned
    with status infeasible_fallback; the fallback is decided here alone, so
    it never recurses.
    """
    clamped = _clamped(qp.u_des, qp.box)
    slack = _row_violations(qp.rows, clamped)
    if max(slack, default=0.0) > 0.0:
        feas_tol = _feas_tol(qp)
        return _solve(qp, feas_tol) or _fallback(qp, feas_tol)
    if clamped == qp.u_des:
        return qp.u_des, (), PASSTHROUGH
    return clamped, tuple(i for i, s in enumerate(slack) if s == 0.0), MODIFIED


def _clamped(u, box) -> tuple[float, ...]:
    return tuple([lo if v < lo else (hi if v > hi else v) for v, (lo, hi) in zip(u, box)])


def _feas_tol(qp: QpProblem) -> float:
    """The scaled feasibility tolerance: _FEAS_TOL * (1 + the largest |b| or
    |box bound| + the sum of |u_des|)."""
    values = [row[-1] for row in qp.rows]
    for pair in qp.box:
        values += pair
    scale = 1.0 + max(map(abs, values))
    for v in qp.u_des:
        scale += abs(v)
    return _FEAS_TOL * scale


def _solve(qp: QpProblem, feas_tol: float) -> tuple[tuple[float, ...], tuple[int, ...], str] | None:
    """The minimizer under the tolerance contract, as solve_qp's result, or
    None when no point meets every row."""
    return _solve_interval(qp, feas_tol) if qp.control_dim == 1 else _solve_plane(qp, feas_tol)


def _solve_plane(qp: QpProblem, feas_tol: float) -> tuple[tuple[float, ...], tuple[int, ...], str] | None:
    """Two control axes: the minimizer is the projection of u_des onto one
    constraint or the vertex of two, found in two closed-form stages, or
    None. Reached when the clamped u_des violates some row, and for the
    fallback's phase II. A point feasible within feas_tol may leave the box
    by as much, so it is returned clipped."""
    rows = list(qp.rows)
    m = len(rows)
    ud0, ud1 = qp.u_des
    (lo0, hi0), (lo1, hi1) = qp.box
    # A row without authority is met everywhere or nowhere: it leaves no
    # feasible point, or it takes no further part as the empty row 0 >= 0.
    dep2 = _DEP_TOL * _DEP_TOL
    for i, (a0, a1, b) in enumerate(rows):
        if a0 * a0 + a1 * a1 <= dep2:
            if b > feas_tol:
                return None
            rows[i] = (0.0, 0.0, 0.0)
    # the general constraint list: rows first, then box faces, so row
    # indices stay stable for reporting
    cons = rows + [(1.0, 0.0, lo0), (-1.0, -0.0, -hi0), (0.0, 1.0, lo1), (-0.0, -1.0, -hi1)]
    r_des = [b - a0 * ud0 - a1 * ud1 for a0, a1, b in cons]

    # Stage 1. Every feasible point lies across the hyperplane of the violated
    # constraint farthest from u_des (the first on ties), so the projection
    # onto it is optimal if it is feasible, and no other single projection
    # can be.
    violated = [i for i, r in enumerate(r_des) if r > feas_tol]
    if not violated:
        return _solved(qp, (ud0, ud1), ())
    k = -1
    far = 0.0
    for i in violated:
        a0, a1, _ = cons[i]
        dist2 = r_des[i] * r_des[i] / (a0 * a0 + a1 * a1)
        if dist2 > far:
            k = i
            far = dist2
    a0, a1, _ = cons[k]
    lam = r_des[k] / (a0 * a0 + a1 * a1)
    s0 = ud0 + lam * a0
    s1 = ud1 + lam * a1
    r_s = [b - a0 * s0 - a1 * s1 for a0, a1, b in cons]
    r_s[k] = 0.0
    if max(r_s) <= feas_tol:
        return _solved(qp, (s0, s1), (k,) if k < m else ())

    # Stage 2. The optimum is the vertex of two independent constraints with
    # both multipliers nonnegative. One of them is violated at s, or s would
    # be a point of their polyhedron at least as near u_des; one is violated
    # at u_des, or u_des would be in it. Every feasible point is at least as
    # far from u_des as the optimum, so the nearest feasible such vertex is
    # the optimum, and with none feasible the problem has no feasible point.
    # (For nearly parallel normals the multiplier test below passes almost
    # any pair; the order by distance still finds the optimum.)
    violated_at_des = [i for i, r in enumerate(r_des) if r > 0.0]
    vertices = []
    for p, r in enumerate(r_s):
        if r <= 0.0:
            continue
        p0, p1, pb = cons[p]
        g_pp = p0 * p0 + p1 * p1
        r_p = r_des[p]
        for q in range(len(cons)) if r_p > 0.0 else violated_at_des:
            if q == p or (q < p and r_s[q] > 0.0):
                continue  # not a pair, or a pair already taken
            q0, q1, qb = cons[q]
            g_qq = q0 * q0 + q1 * q1
            cross = q0 * p1 - q1 * p0
            if not cross * cross > dep2 * max(1.0, g_pp) * g_qq:
                continue  # dependent normals, or a test an overflow left NaN
            # the multipliers times cross^2 must be nonnegative; tol bounds
            # the rounding of the violations at u_des they are built from
            g_pq = p0 * q0 + p1 * q1
            r_q = r_des[q]
            tol = feas_tol * (g_pp + g_qq + abs(g_pq)) * max(1.0, g_pp, g_qq)
            if g_qq * r_p - g_pq * r_q < -tol or g_pp * r_q - g_pq * r_p < -tol:
                continue
            v0 = (qb * p1 - pb * q1) / cross
            v1 = (q0 * pb - p0 * qb) / cross
            if lo0 - v0 <= feas_tol and v0 - hi0 <= feas_tol and lo1 - v1 <= feas_tol and v1 - hi1 <= feas_tol:
                vertices.append(((v0 - ud0) * (v0 - ud0) + (v1 - ud1) * (v1 - ud1), v0, v1, q, p))
    # Vertices outside the box were dropped above. A vertex is checked
    # against its own rows too: the closer to parallel they are, the less
    # exactly it lies on them.
    for _, v0, v1, q, p in sorted(vertices):
        if all(b - a0 * v0 - a1 * v1 <= feas_tol for a0, a1, b in rows):
            return _solved(qp, (v0, v1), tuple(sorted(i for i in (p, q) if i < m)))
    return None


def _solve_interval(qp: QpProblem, feas_tol: float) -> tuple[tuple[float, ...], tuple[int, ...], str] | None:
    """One control axis: the minimizer is u_des clamped into the interval
    [lower, upper] the rows and box leave, or None when that is empty. This is the one-axis case of the
    two-axis first stage (u_des if it meets every constraint, else the
    farthest bound it violates), kept apart because b / a rounds once, where
    that stage's u_des + (b - a u_des) / a^2 * a would move the last bit of
    about half of all one-axis results."""
    (u_des,) = qp.u_des
    ((lo, hi),) = qp.box
    lower, lower_idx = lo, -1
    upper, upper_idx = hi, -1
    near = lo - u_des <= feas_tol and u_des - hi <= feas_tol  # u_des meets every constraint
    dep2 = _DEP_TOL * _DEP_TOL
    for i, (a, b) in enumerate(qp.rows):
        if a * a <= dep2:  # no authority, as on two axes
            if b > feas_tol:
                return None
            continue
        near = near and b - a * u_des <= feas_tol
        bound = b / a
        if a > 0.0:
            if bound > lower:
                lower, lower_idx = bound, i
        elif bound < upper:
            upper, upper_idx = bound, i
    if near:
        return _solved(qp, (u_des,), ())
    if lower > upper:
        return None
    # u_des lies outside [lower, upper]: inside, it would meet every row. The
    # bound taken meets its own row and every looser one to a few ulps of b,
    # far inside feas_tol.
    u_star, k = (lower, lower_idx) if u_des < lower else (upper, upper_idx)
    return (u_star,), (k,) if k >= 0 else (), MODIFIED


def _solved(qp: QpProblem, u, active) -> tuple[tuple[float, ...], tuple[int, ...], str]:
    """The result for a solved point, which meets every row under the
    tolerance contract: clipped into the box, passthrough when that equals
    u_des (the command is then u_des itself), else modified."""
    u = _clamped(u, qp.box)
    if u == qp.u_des:
        return qp.u_des, (), PASSTHROUGH
    return u, active, MODIFIED


def _fallback(qp, feas_tol):
    u_fb, worst = _least_max_violation(qp, feas_tol)
    top = max(worst)
    active = tuple(i for i, w in enumerate(worst) if w >= top - feas_tol)
    return u_fb, active, INFEASIBLE_FALLBACK


def _row_violations(rows, u) -> list[float]:
    """b - a*u0 for (a, b) pairs, b - (a0*u0 + a1*u1) for (a0, a1, b)
    triples, at the point u: the one pricing of the clamp test and the
    fallback."""
    if len(u) == 1:
        (u0,) = u
        return [b - a * u0 for a, b in rows]
    u0, u1 = u
    return [b - (a0 * u0 + a1 * u1) for a0, a1, b in rows]


def _least_max_violation(qp, feas_tol) -> tuple[tuple[float, ...], list[float]]:
    """Exact minimizer of max_i (b_i - a_i . u) over the box, with its row
    violations b - A u.

    The max of affine functions is piecewise linear and convex, so its
    minimum over the box is attained at a box corner, where a pairwise
    equal-value locus crosses a box face, or (2-D) where two such loci
    cross: the vertices of the linear program min t s.t. t >= b_i - a_i . u
    over the box (Seidel, 1991). Crossings of two loci come from Cramer's
    rule, accepted within 1e-12 of the box and clamped into it, and every
    candidate is priced by _row_violations. Candidates whose maximum
    violation is within feas_tol of the least one are tied. When they all
    lie within feas_tol of the first least one, that candidate is returned.
    Otherwise they span a face of least-max-violation points, and the point
    of it nearest u_des is the solve of the rows shifted by the least
    violation (phase II); should that solve find no point, the candidate is
    kept.
    """
    rows = qp.rows
    box = qp.box
    if len(box) == 1:
        ((lo0, hi0),) = box
        points = [(lo0,), (hi0,)]
        for (ai, bi), (aj, bj) in combinations(rows, 2):
            da = ai - aj
            if da != 0.0:
                u = (bi - bj) / da
                if lo0 <= u <= hi0:
                    points.append((u,))
    else:
        (lo0, hi0), (lo1, hi1) = box
        points = [(lo0, lo1), (lo0, hi1), (hi0, lo1), (hi0, hi1)]
        # each pair's equal-value line crossed with the box faces
        for (ai0, ai1, bi), (aj0, aj1, bj) in combinations(rows, 2):
            da0 = ai0 - aj0
            da1 = ai1 - aj1
            db = bi - bj
            if da1 != 0.0:
                for fixed in (lo0, hi0):
                    val = (db - da0 * fixed) / da1
                    if lo1 <= val <= hi1:
                        points.append((fixed, val))
            if da0 != 0.0:
                for fixed in (lo1, hi1):
                    val = (db - da1 * fixed) / da0
                    if lo0 <= val <= hi0:
                        points.append((val, fixed))
        # two pairs' equal-value lines crossed; the determinant test keeps
        # Cramer's rule off a zero divisor
        for (ai0, ai1, bi), (aj0, aj1, bj), (ak0, ak1, bk) in combinations(rows, 3):
            p0 = ai0 - aj0
            p1 = ai1 - aj1
            q0 = ai0 - ak0
            q1 = ai1 - ak1
            det = p0 * q1 - p1 * q0
            if abs(det) >= 1e-14:
                r0 = bi - bj
                r1 = bi - bk
                u0 = (r0 * q1 - p1 * r1) / det
                u1 = (p0 * r1 - r0 * q0) / det
                if lo0 - 1e-12 <= u0 <= hi0 + 1e-12 and lo1 - 1e-12 <= u1 <= hi1 + 1e-12:
                    # bound first, so signed zeros clamp as np.clip does
                    points.append((min(hi0, max(lo0, u0)), min(hi1, max(lo1, u1))))

    phi = [max(_row_violations(rows, u)) for u in points]
    least = min(phi)
    best = points[phi.index(least)]
    if all(command_deviation(u, best) <= feas_tol for u, v in zip(points, phi) if v <= least + feas_tol):
        return best, _row_violations(rows, best)
    # phase II: the face the tied candidates span is the feasible set of the
    # rows shifted by the least violation
    shifted = qp._replace(rows=tuple([(*row[:-1], row[-1] - least) for row in rows]))
    solved = _solve(shifted, feas_tol)
    u = best if solved is None else solved[0]
    return u, _row_violations(rows, u)


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
    active_row_ids = qp.unmet_ids + tuple([qp.row_ids[i] for i in active_idx])
    if len(active_row_ids) > 1:
        # a constraint with two rows in the problem is named once
        active_row_ids = tuple(dict.fromkeys(active_row_ids))
    u_out = ControlInput._trusted(u_star)
    deviation = command_deviation(u_star, qp.u_des)
    return FilterResult(u_out, True, deviation, active_row_ids, status, elapsed)


def check_kkt(qp: QpProblem, u_star, tol: float = 1e-8) -> dict:
    """Residuals of the KKT system at u_star, any float sequence, for the
    full problem (rows plus box). Multipliers are recovered by nonnegative
    least squares on the active constraints; used by tests and the solver's
    own validation evidence. The point of the active normals' cone nearest
    the gradient lies on a face spanned by at most d of them, so the least
    squares runs over every set of at most d active constraints; of the fits
    with nonnegative multipliers, the one with the smallest larger residual
    (stationarity or complementarity) is reported. The fits use normals
    scaled to a largest entry of 1, so a multiplier stays in range for a
    row of any scale; the residuals do not depend on the scaling.
    """
    u_star = np.asarray(u_star, dtype=float)
    m = len(qp.rows)
    d = qp.control_dim
    cons_a = np.zeros((m + 2 * d, d))
    cons_b = np.zeros(m + 2 * d)
    for i, row in enumerate(qp.rows):
        cons_a[i] = row[:d]
        cons_b[i] = row[d]
    for j, (lo, hi) in enumerate(qp.box):
        cons_a[m + 2 * j, j] = 1.0
        cons_b[m + 2 * j] = lo
        cons_a[m + 2 * j + 1, j] = -1.0
        cons_b[m + 2 * j + 1] = -hi
    slack = cons_a @ u_star - cons_b
    primal = float(max(0.0, -np.min(slack))) if slack.size else 0.0
    active = np.nonzero(slack <= tol * 10)[0]
    grad = u_star - np.array(qp.u_des)
    scales = np.max(np.abs(cons_a), axis=1)
    scales[scales == 0.0] = 1.0
    normals = cons_a / scales[:, None]
    stationarity = float(np.linalg.norm(grad))
    comp = 0.0
    for k in range(1, d + 1):
        for face in combinations(active.tolist(), k):
            face = list(face)
            A = normals[face]
            lam, *_ = np.linalg.lstsq(A.T, grad, rcond=None)
            if np.all(lam >= 0.0):
                fit = float(np.linalg.norm(grad - A.T @ lam)), float(np.max(np.abs(lam * slack[face] / scales[face])))
                if max(fit) < max(stationarity, comp):
                    stationarity, comp = fit
    return {"stationarity": stationarity, "primal": primal, "complementarity": comp}
