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
the maximum row violation, and says so loudly in the result status. The
common cases are decided on scalars, with no per-call table: the clamp
test that passes a safe command, and on two axes stage 1 and the pair step
of _solve_plane; the tables of stage 2 are built only once both fail.

A row with no control authority (a = 0) that demands b > 0 cannot be met by
any command. Without a sampled row for its constraint, that is structural
infeasibility: StructurallyInfeasible is raised and the harness aborts the
episode. When the constraint's sampled row is in the problem it can still
act, so the step is solved over the rows that have authority and reported
as infeasible_fallback, with the constraint named first among the active
rows. Such a step's command is the minimal-deviation point over those rows
(u_des itself, with deviation 0, when it meets them all), not the
least-max-violation point the same status names otherwise.

Tolerance contract, on one axis and on two, for a problem whose every entry
is finite (solve_qp raises otherwise, NonFiniteRow naming a row's
constraint): a row has control authority iff the norm of its a exceeds
_DEP_TOL. A row without it is met iff b <= feas_tol (_feas_tol); any other
row is met at a point iff b - a.u <= feas_tol there. A solved point meets
every row so; it is passthrough iff it equals u_des, else modified. A
problem with no such point is an infeasible_fallback, and so, on two axes,
is one whose constraints violated at u_des all have a squared distance that
underflows to zero, which leaves no projection to rank. On two axes one
row that no point near the box meets ends most fallbacks early (the box
check of _solve_plane; Boyd & Vandenberghe, 2004, section 5.8). Its
command comes from the same contract: phase I finds the least maximum
violation t over the box by enumerating candidate points, pricing each only
until a row shows its maximum above the least so far plus feas_tol, which
drops exactly the candidates that can be neither least nor tied (see
_least_max_violation); where candidates within feas_tol of t lie more
than feas_tol apart, phase II solves the rows shifted to b - t, which gives
the point nearest u_des whose maximum violation is within feas_tol of t
(Boyd & Vandenberghe, Convex Optimization, 2004, section 11.4).

Rounding: the filter computes in Python floats from the barrier rows
(cbf_row without a period, filter_rows with one, one call per constraint
either way) to the command, the solve and fallback in one fixed order with
no numpy call, so its bits match on every machine. It reads u_des
as the command's float tuple (ControlInput.us), and filter_control wraps the
solved tuple as the filtered command without building an array. The fixed
cost of a call is kept to its arithmetic: the problem and the result are
built as plain tuples of their classes, the finiteness precondition is
checked on the clamp test's own comparisons, the scaled tolerance and the
deviation are written out for one axis and for two, and the fallback prices each candidate point as it draws it.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .barrier import BarrierConstraint, cbf_row, filter_rows
from .dynamics import ControlInput, PlantModel, PlantState
from .errors import InvalidConfig, NonFiniteCommand, NonFiniteRow, StructurallyInfeasible

PASSTHROUGH = "passthrough"
MODIFIED = "modified"
INFEASIBLE_FALLBACK = "infeasible_fallback"

_DEP_TOL = 1e-12  # rank test for a constraint's normal and for a pair of normals
_FEAS_TOL = 1e-11  # violation counted as zero, before scaling by the problem size
_INF, _NEG_INF = math.inf, -math.inf

# QpProblem and FilterResult are built on every call. tuple.__new__ makes the
# same instances from all their fields, without the Python frame of the
# __new__ that NamedTuple generates.
_new = tuple.__new__


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
    the control period dt, one filter_rows call per constraint gives its
    continuous row, the same as cbf_row's, and its sampled row, where it has
    one, which follows the continuous row.

    Rows with a = 0 are insensitive to control: vacuous when b <= 0 (dropped).
    When b > 0 no command can meet the row. The constraint is then
    structurally infeasible (raised) unless it has a sampled row, which
    always has authority; it is then listed in unmet_ids.
    """
    rows = []
    row_ids = []
    unmet = []
    if dt is None:
        for constraint in constraints:
            a, b = cbf_row(constraint, model, state)
            if any(a):
                rows.append(a + (b,))
                row_ids.append(constraint.id)
            elif b > 0.0:
                raise StructurallyInfeasible(constraint.id)
    else:
        for constraint in constraints:
            row, sampled = filter_rows(constraint, model, state, dt)
            if row[0] or row[-2]:  # a != 0: row[-2] is a_1 on two axes, a_0 on one
                rows.append(row)
                row_ids.append(constraint.id)
            elif row[-1] > 0.0:
                if sampled is None:
                    raise StructurallyInfeasible(constraint.id)
                unmet.append(constraint.id)
            if sampled is not None:
                rows.append(sampled)
                row_ids.append(constraint.id)
    return _new(QpProblem, (u_des.us, tuple(rows), tuple(row_ids), model._box, tuple(unmet)))


def solve_qp(qp: QpProblem) -> tuple[tuple[float, ...], tuple[int, ...], str]:
    """Exact minimizer of 0.5||u - u_des||^2 under rows and box, whose every
    entry, and u_des's, must be finite.

    Returns (u_star, active row indices into qp.rows, status), u_star a
    tuple of floats. Starts from the box-clamped u_des; if that already
    satisfies every row it is optimal (passthrough when it equals u_des
    bitwise, and u_star is then qp.u_des). The clamp test prices every row
    at the clamped point, on scalars, and a row whose slack is positive is
    violated there. It also enforces the precondition: where its box test
    fails or a slack is not finite, _require_finite raises, or finds every
    entry finite and lets the overflow stand. Otherwise the minimizer is
    the projection of u_des onto at most d of the constraints (the rows and the box faces). One axis projects
    onto the interval the constraints leave (_solve_interval). Two axes try
    the projection onto the violated constraint farthest from u_des, then
    the vertices of two constraints that can be optimal, nearest first
    (_solve_plane). Both decide under the tolerance contract of the module
    docstring. When no point meets the rows, the fallback's least-max-violation point
    (_least_max_violation) is returned with status infeasible_fallback; the
    fallback is decided here alone, so it never recurses.
    """
    u_des = qp.u_des
    rows = qp.rows
    clamped = u_des
    violated = False
    if len(u_des) == 1:
        (c0,), ((lo0, hi0),) = u_des, qp.box
        if not _NEG_INF < lo0 <= c0 <= hi0 < _INF:
            _require_finite(qp)
            (c0,) = clamped = _clamped(u_des, qp.box)
        for a, b in rows:
            w = b - a * c0
            if not _NEG_INF < w < _INF:
                _require_finite(qp)
            if w > 0.0:
                violated = True
    else:
        (c0, c1), ((lo0, hi0), (lo1, hi1)) = u_des, qp.box
        if not (_NEG_INF < lo0 <= c0 <= hi0 < _INF and _NEG_INF < lo1 <= c1 <= hi1 < _INF):
            _require_finite(qp)
            c0, c1 = clamped = _clamped(u_des, qp.box)
        for a0, a1, b in rows:
            w = b - (a0 * c0 + a1 * c1)
            if not _NEG_INF < w < _INF:
                _require_finite(qp)
            if w > 0.0:
                violated = True
    if violated:
        feas_tol = _feas_tol(qp)
        return (_solve_interval if len(u_des) == 1 else _solve_plane)(qp, feas_tol) or _fallback(qp, feas_tol)
    if clamped is u_des:
        return u_des, (), PASSTHROUGH
    return clamped, tuple(i for i, s in enumerate(_row_violations(rows, clamped)) if s == 0.0), MODIFIED


def _require_finite(qp: QpProblem) -> None:
    """Raise for the first non-finite entry of qp: NonFiniteCommand for
    u_des, InvalidConfig for the box, NonFiniteRow naming the constraint
    of a row, checked in that order. Returns when every entry is finite."""
    if not all(map(math.isfinite, qp.u_des)):
        raise NonFiniteCommand(f"command {list(qp.u_des)} is not finite")
    if not all(math.isfinite(v) for pair in qp.box for v in pair):
        raise InvalidConfig(f"control bounds {[list(pair) for pair in qp.box]} are not finite")
    for i, row in enumerate(qp.rows):
        if not all(map(math.isfinite, row)):
            raise NonFiniteRow(qp.row_ids[i], f"row {i} {row} of constraint '{qp.row_ids[i]}' is not finite")


def _clamped(u, box) -> tuple[float, ...]:
    """u clipped into the box, on one axis or two."""
    if len(u) == 1:
        (v,), ((lo, hi),) = u, box
        return (lo if v < lo else (hi if v > hi else v),)
    (v0, v1), ((lo0, hi0), (lo1, hi1)) = u, box
    return (lo0 if v0 < lo0 else (hi0 if v0 > hi0 else v0), lo1 if v1 < lo1 else (hi1 if v1 > hi1 else v1))


def _feas_tol(qp: QpProblem) -> float:
    """The scaled feasibility tolerance: _FEAS_TOL * (1 + the largest |b| or
    |box bound| + the sum of |u_des|)."""
    rows = qp.rows
    if len(qp.u_des) == 1:
        (u0,), ((lo0, hi0),) = qp.u_des, qp.box
        top = abs(lo0)
        for _, b in rows:
            v = abs(b)
            if v > top:
                top = v
        v = abs(hi0)
        if v > top:
            top = v
        return _FEAS_TOL * (1.0 + top + abs(u0))
    (u0, u1), ((lo0, hi0), (lo1, hi1)) = qp.u_des, qp.box
    top = abs(lo0)
    for _, _, b in rows:
        v = abs(b)
        if v > top:
            top = v
    v = abs(hi0)
    if v > top:
        top = v
    v = abs(lo1)
    if v > top:
        top = v
    v = abs(hi1)
    if v > top:
        top = v
    return _FEAS_TOL * (1.0 + top + abs(u0) + abs(u1))


def _solve_plane(qp: QpProblem, feas_tol: float) -> tuple[tuple[float, ...], tuple[int, ...], str] | None:
    """Two control axes: the minimizer is the projection of u_des onto one
    constraint or the vertex of two, found by stage 1, the box check, the
    pair step and stage 2, in that order, or None. Reached when the clamped
    u_des violates some row, and for the fallback's phase II, so qp has a
    row. A solved point, feasible within feas_tol, is returned clipped.

    The constraints are the rows, then the box faces u0 >= lo0, -u0 >=
    -hi0, u1 >= lo1, -u1 >= -hi1, in that order (their indices after the
    rows). Stage 1 runs on scalars: one pass over the rows and the four
    faces, written out, picks the violated constraint k farthest from
    u_des, and checks the projection s onto it against every constraint;
    j is the first that rejects s. A violated row whose squared distance
    underflows to zero cannot be ranked; when no violated constraint can
    be, there is no projection to try and no point is returned.

    Between the stages a box check ends the solve with None when one row
    alone cannot be met: b - top > 2 * feas_tol * (1 + |a0| + |a1|), top
    the largest a.u over the box. Stage 2 accepts only vertices within
    feas_tol of the box, where a.u exceeds top by at most feas_tol * (|a0|
    + |a1|) (the contract's box slack, the |a| term), so such a row is
    violated there by more than feas_tol, the factor 2 covering the
    rounding of both evaluations, as feas_tol >= 1e-11 * (1 + |b| + the
    largest |box bound|). The check is exact: stage 2 would find no point
    either, so every result keeps its bits. A product that overflows leaves
    the comparison false (inf or NaN) or certifies a row that the solve's
    own evaluations could not meet.

    Stage 2 returns the feasible vertex of least (dist^2, v0, v1, q, p),
    dist^2 its squared distance from u_des and q, p the indices of its two
    constraints; the rows among them are its active rows.

    The pair step (skipped when a row is scaled or emptied) returns the
    vertex v of j and k, computed as stage 2 computes it with p = j and q =
    k, when v passes stage 2's tests (both mu = multiplier * cross^2 above
    tol, v in the box and on rows j and k within feas_tol) and every other
    constraint i clears it: b_i - a_i.v < -(feas_tol + rho * (|a_i0| +
    |a_i1|)), rho^2 = 2 * feas_tol * (mu_j + mu_k) / cross^2. With l = mu
    / cross^2, v - u_des = l_j a_j + l_k a_k, so any w has |w - u_des|^2 =
    |v - u_des|^2 + |w - v|^2 - 2 l_j viol_j(w) - 2 l_k viol_k(w), viol = b
    - a.w (KKT sufficiency; Boyd & Vandenberghe, 2004, section 5.5.3). A
    vertex w that stage 2 accepts has viol_j, viol_k <= feas_tol, so it is
    as near u_des as v only if |w - v| <= rho, and then the constraint i
    other than j and k that it lies on clears it by more than feas_tol,
    more than a vertex's rounding but for nearly parallel normals.

    Each constraint's squared norm is computed once per stage. A row whose
    squared norm overflows (entries above about 1.3e154) takes part in the
    geometry scaled by a power of two (_scaled_down); points are still
    accepted against the rows as given, under the tolerance contract."""
    rows = qp.rows
    m = len(rows)
    ud0, ud1 = qp.u_des
    (lo0, hi0), (lo1, hi1) = qp.box
    dep2 = _DEP_TOL * _DEP_TOL

    # Stage 1. Every feasible point lies across the hyperplane of the violated
    # constraint farthest from u_des (the first on ties), so the projection
    # onto it is optimal if it is feasible, and no other single projection
    # can be. k is that constraint, (ka0, ka1) its normal and lam the step
    # along it; far is its squared distance.
    k = -1
    far = 0.0
    meets = True  # u_des meets every constraint
    scaled = False  # some row's squared norm overflows
    for i, (a0, a1, b) in enumerate(qp.rows):
        norm = a0 * a0 + a1 * a1
        if norm <= dep2:
            # A row without authority is met everywhere or nowhere: it leaves
            # no feasible point, or it takes no further part as the empty row
            # 0 >= 0.
            if b > feas_tol:
                return None
            if rows is qp.rows:
                rows = list(rows)
            rows[i] = (0.0, 0.0, 0.0)
            continue
        if norm == _INF:
            scaled = True
        r = b - a0 * ud0 - a1 * ud1
        if r > feas_tol:
            meets = False
            if norm == _INF:
                a0, a1, b, norm = _scaled_down(a0, a1, b)
                r = b - a0 * ud0 - a1 * ud1
            dist2 = r * r / norm
            if dist2 > far:
                k, far, ka0, ka1, lam = i, dist2, a0, a1, r / norm
    # The faces' violations are the rows (1, 0, lo0), (-1, -0, -hi0), (0, 1,
    # lo1) and (-0, -1, -hi1) evaluated as rows are, with each product by 1
    # or -1 folded and each product by 0 dropped, which leaves a violation
    # above feas_tol as it is. A face's squared norm is 1.
    r = lo0 - ud0
    if r > feas_tol:
        meets = False
        if r * r > far:
            k, far, ka0, ka1, lam = m, r * r, 1.0, 0.0, r
    r = -hi0 + ud0
    if r > feas_tol:
        meets = False
        if r * r > far:
            k, far, ka0, ka1, lam = m + 1, r * r, -1.0, -0.0, r
    r = lo1 - ud1
    if r > feas_tol:
        meets = False
        if r * r > far:
            k, far, ka0, ka1, lam = m + 2, r * r, 0.0, 1.0, r
    r = -hi1 + ud1
    if r > feas_tol:
        meets = False
        if r * r > far:
            k, far, ka0, ka1, lam = m + 3, r * r, -0.0, -1.0, r
    if meets:
        return _solved(qp, (ud0, ud1), ())
    if k < 0:
        return None  # no violated constraint can be ranked (see the docstring)
    s0 = ud0 + lam * ka0
    s1 = ud1 + lam * ka1
    # s is accepted when none of its violations exceeds feas_tol. s lies on
    # constraint k, whose violation is taken as 0.0 unless a row is scaled
    # (a scaled row k is checked as it is). j is the first that rejects s.
    on_k = -1 if scaled else k
    for j, (p0, p1, pb) in enumerate(rows):
        if j != on_k and pb - p0 * s0 - p1 * s1 > feas_tol:
            break
    else:
        if lo0 - s0 > feas_tol and on_k != m:
            j, p0, p1, pb = m, 1.0, 0.0, lo0
        elif -hi0 + s0 > feas_tol and on_k != m + 1:
            j, p0, p1, pb = m + 1, -1.0, -0.0, -hi0
        elif lo1 - s1 > feas_tol and on_k != m + 2:
            j, p0, p1, pb = m + 2, 0.0, 1.0, lo1
        elif -hi1 + s1 > feas_tol and on_k != m + 3:
            j, p0, p1, pb = m + 3, -0.0, -1.0, -hi1
        else:
            return _solved(qp, (s0, s1), (k,) if k < m else ())

    # Box check: one row that no point near the box meets ends the solve
    # (the docstring gives the margin).
    tol2 = 2.0 * feas_tol
    for a0, a1, b in rows:
        top = a0 * (hi0 if a0 > 0.0 else lo0) + a1 * (hi1 if a1 > 0.0 else lo1)
        if b - top > tol2 * (1.0 + abs(a0) + abs(a1)):
            return None

    if not scaled and rows is qp.rows:  # the pair step (see the docstring)
        q0, q1, qb = rows[k] if k < m else (ka0, ka1, (lo0, -hi0, lo1, -hi1)[k - m])
        g_pp = p0 * p0 + p1 * p1
        g_qq = q0 * q0 + q1 * q1
        big_p = g_pp if g_pp > 1.0 else 1.0
        cross = q0 * p1 - q1 * p0
        if cross * cross > dep2 * big_p * g_qq:
            v0 = (qb * p1 - pb * q1) / cross
            v1 = (q0 * pb - p0 * qb) / cross
            if lo0 - v0 <= feas_tol and v0 - hi0 <= feas_tol and lo1 - v1 <= feas_tol and v1 - hi1 <= feas_tol:
                reach = _INF  # the largest rho that the other rows allow
                for i, (a0, a1, b) in enumerate(rows):
                    w = b - a0 * v0 - a1 * v1
                    if not w <= feas_tol:
                        break
                    if i != j and i != k:
                        room = (-feas_tol - w) / (abs(a0) + abs(a1))
                        if room < reach:
                            reach = room
                else:
                    g_pq = p0 * q0 + p1 * q1
                    r_p = pb - p0 * ud0 - p1 * ud1
                    r_q = qb - q0 * ud0 - q1 * ud1
                    tol = feas_tol * (g_pp + g_qq + abs(g_pq)) * (g_qq if g_qq > big_p else big_p)
                    mu_p = g_qq * r_p - g_pq * r_q
                    mu_q = g_pp * r_q - g_pq * r_p
                    if mu_p > tol and mu_q > tol:
                        rho = math.sqrt(2.0 * feas_tol * (mu_p + mu_q) / (cross * cross))
                        if (
                            rho < reach
                            and (lo0 - v0 < -feas_tol - rho or j == m or k == m)
                            and (v0 - hi0 < -feas_tol - rho or j == m + 1 or k == m + 1)
                            and (lo1 - v1 < -feas_tol - rho or j == m + 2 or k == m + 2)
                            and (v1 - hi1 < -feas_tol - rho or j == m + 3 or k == m + 3)
                        ):
                            i, i2 = (j, k) if j < k else (k, j)
                            return _solved(qp, (v0, v1), (i, i2) if i2 < m else ((i,) if i < m else ()))

    # The tables of stage 2: the general constraint list, rows first, so row
    # indices stay stable for reporting; each constraint's squared norm;
    # geo, the constraints the geometry is computed on (cons, but for the
    # rows scaled as in stage 1, which keeps their lines and the signs of
    # their violations), with the violations of u_des; the violations of s.
    # Points are accepted against cons and rows alone.
    cons = [*rows, (1.0, 0.0, lo0), (-1.0, -0.0, -hi0), (0.0, 1.0, lo1), (-0.0, -1.0, -hi1)]
    norms = []
    r_s = []
    r_geo = []
    for a0, a1, b in cons:
        norms.append(a0 * a0 + a1 * a1)
        r_s.append(b - a0 * s0 - a1 * s1)
        r_geo.append(b - a0 * ud0 - a1 * ud1)
    if scaled:
        geo, r_geo = _rescaled(cons, norms, qp.u_des)
    else:
        geo = cons
        r_s[k] = 0.0

    # Stage 2. The optimum is the vertex of two independent constraints with
    # both multipliers nonnegative. One of them is violated at s, or s would
    # be a point of their polyhedron at least as near u_des; one is violated
    # at u_des, or u_des would be in it. Every feasible point is at least as
    # far from u_des as the optimum, so the nearest feasible such vertex is
    # the optimum, and with none feasible the problem has no feasible point.
    # (For nearly parallel normals the multiplier test below passes almost
    # any pair; the order by distance still finds the optimum.)
    violated_at_des = [i for i, r in enumerate(r_geo) if r > 0.0]
    best = None  # the least key of a feasible vertex so far
    for p, r in enumerate(r_s):
        if r <= 0.0:
            continue
        p0, p1, pb = geo[p]
        g_pp = norms[p]
        big_p = g_pp if g_pp > 1.0 else 1.0
        dep_p = dep2 * big_p
        r_p = r_geo[p]
        for q in range(len(cons)) if r_p > 0.0 else violated_at_des:
            if q == p or (q < p and r_s[q] > 0.0):
                continue  # not a pair, or a pair already taken
            q0, q1, qb = geo[q]
            g_qq = norms[q]
            cross = q0 * p1 - q1 * p0
            if not cross * cross > dep_p * g_qq:
                continue  # dependent normals
            # the multipliers times cross^2 must be nonnegative; tol bounds
            # the rounding of the violations at u_des they are built from
            g_pq = p0 * q0 + p1 * q1
            r_q = r_geo[q]
            tol = feas_tol * (g_pp + g_qq + abs(g_pq)) * (g_qq if g_qq > big_p else big_p)
            if g_qq * r_p - g_pq * r_q < -tol or g_pp * r_q - g_pq * r_p < -tol:
                continue
            v0 = (qb * p1 - pb * q1) / cross
            v1 = (q0 * pb - p0 * qb) / cross
            # A vertex outside the box is dropped, one in it checked against
            # every row, its own too: the closer to parallel they are, the less
            # exactly it lies on them. The keys' (q, p) are distinct, so the
            # order is total.
            if lo0 - v0 <= feas_tol and v0 - hi0 <= feas_tol and lo1 - v1 <= feas_tol and v1 - hi1 <= feas_tol:
                key = ((v0 - ud0) * (v0 - ud0) + (v1 - ud1) * (v1 - ud1), v0, v1, q, p)
                if best is None or key < best:
                    for a0, a1, b in rows:
                        if not b - a0 * v0 - a1 * v1 <= feas_tol:
                            break  # violated
                    else:
                        best = key
    if best is None:
        return None
    _, v0, v1, q, p = best
    i, j = (p, q) if p < q else (q, p)
    return _solved(qp, (v0, v1), (i, j) if j < m else ((i,) if i < m else ()))


def _rescaled(cons, norms, u_des):
    """cons and the violations of u_des with every row whose squared norm
    overflowed scaled down (_scaled_down), norms updated to match."""
    ud0, ud1 = u_des
    geo = list(cons)
    for i, (a0, a1, b) in enumerate(cons):
        if norms[i] == _INF:
            a0, a1, b, norms[i] = _scaled_down(a0, a1, b)
            geo[i] = (a0, a1, b)
    return geo, [b - a0 * ud0 - a1 * ud1 for a0, a1, b in geo]


def _scaled_down(a0, a1, b):
    """The row divided by the power of two that brings its largest |a| into
    [0.5, 1), with its squared norm. The scaling is exact unless an entry
    underflows, so the row keeps its line."""
    e = -math.frexp(max(abs(a0), abs(a1)))[1]
    a0, a1 = math.ldexp(a0, e), math.ldexp(a1, e)
    return a0, a1, math.ldexp(b, e), a0 * a0 + a1 * a1


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
    floor = max(worst) - feas_tol
    return u_fb, tuple([i for i, w in enumerate(worst) if w >= floor]), INFEASIBLE_FALLBACK


def _row_violations(rows, u) -> list[float]:
    """b - a*u0 for (a, b) pairs, b - (a0*u0 + a1*u1) for (a0, a1, b)
    triples, at the point u: the slacks that give a clamped u_des its active
    rows, and the fallback's row violations. The clamp test in solve_qp and
    the candidate pricing in _least_max_violation write the same
    expressions out row by row."""
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
    rule, accepted within 1e-12 of the box and clamped into it. Candidates
    whose maximum violation is within feas_tol of the least one are tied.
    When they all lie within feas_tol of the first least one, that candidate
    is returned. Otherwise they span a face of least-max-violation points,
    and the point of it nearest u_des is the solve of the rows shifted by
    the least violation (phase II); should that solve find no point, the
    candidate is kept.

    The candidates are drawn one at a time (_candidates), each priced as it
    is drawn, row by row, with _row_violations' expression, so no list of
    them is built; a candidate's pricing stops at its first row whose
    violation exceeds the least maximum so far plus feas_tol. That is exact:
    its own maximum is larger still, and so larger than the final least plus
    feas_tol, so it can be neither the least, nor the first candidate to
    reach it, nor tied with it, and the least, that candidate, the tie set
    and phase II are those of pricing every candidate in full.
    """
    rows = qp.rows
    box = qp.box
    # top is a candidate's running maximum; bound is the least maximum so far
    # plus feas_tol
    priced = []  # (candidate, maximum violation) of each candidate priced to the end
    best = least = None
    bound = _INF
    if len(box) == 1:
        for u in _candidates(rows, box):
            (u0,) = u
            top = _NEG_INF
            for a, b in rows:
                w = b - a * u0
                if w > top:
                    top = w
                    if w > bound:
                        break
            else:
                priced.append((u, top))
                if best is None or top < least:
                    best, least, bound = u, top, top + feas_tol
    else:
        for u in _candidates(rows, box):
            u0, u1 = u
            top = _NEG_INF
            for a0, a1, b in rows:
                w = b - (a0 * u0 + a1 * u1)
                if w > top:
                    top = w
                    if w > bound:
                        break
            else:
                priced.append((u, top))
                if best is None or top < least:
                    best, least, bound = u, top, top + feas_tol
    if all(u is best or command_deviation(u, best) <= feas_tol for u, v in priced if v <= bound):
        return best, _row_violations(rows, best)
    # phase II: the face the tied candidates span is the feasible set of the
    # rows shifted by the least violation
    shifted = qp._replace(rows=tuple([(*row[:-1], row[-1] - least) for row in rows]))
    solved = (_solve_interval if len(box) == 1 else _solve_plane)(shifted, feas_tol)
    u = best if solved is None else solved[0]
    return u, _row_violations(rows, u)


def _candidates(rows, box):
    """The candidate points of _least_max_violation, drawn one at a time in
    a fixed order: the box corners, each pair's equal-value locus crossed
    with the box faces, then (2-D) two pairs' loci crossed."""
    if len(box) == 1:
        ((lo0, hi0),) = box
        yield (lo0,)
        yield (hi0,)
        for (ai, bi), (aj, bj) in combinations(rows, 2):
            da = ai - aj
            if da != 0.0:
                u = (bi - bj) / da
                if lo0 <= u <= hi0:
                    yield (u,)
        return
    (lo0, hi0), (lo1, hi1) = box
    yield (lo0, lo1)
    yield (lo0, hi1)
    yield (hi0, lo1)
    yield (hi0, hi1)
    # each pair's equal-value line crossed with the box faces
    for (ai0, ai1, bi), (aj0, aj1, bj) in combinations(rows, 2):
        da0 = ai0 - aj0
        da1 = ai1 - aj1
        db = bi - bj
        if da1 != 0.0:
            for fixed in (lo0, hi0):
                val = (db - da0 * fixed) / da1
                if lo1 <= val <= hi1:
                    yield (fixed, val)
        if da0 != 0.0:
            for fixed in (lo1, hi1):
                val = (db - da1 * fixed) / da0
                if lo0 <= val <= hi0:
                    yield (val, fixed)
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
                yield (min(hi0, max(lo0, u0)), min(hi1, max(lo1, u1)))


def command_deviation(u, u_des) -> float:
    """Euclidean distance between two commands given as float sequences of
    one or two entries, summed in axis order: the one formula for a step's
    deviation, used by the filter; read_trace applies the same operations
    to whole columns (harness._deviations)."""
    if len(u) == 1:
        (u0,), (d0,) = u, u_des
        return math.sqrt((u0 - d0) * (u0 - d0))
    (u0, u1), (d0, d1) = u, u_des
    return math.sqrt((u0 - d0) * (u0 - d0) + (u1 - d1) * (u1 - d1))


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
        return _new(FilterResult, (u_des, False, 0.0, (), PASSTHROUGH, elapsed))
    if len(active_idx) == 1 and not qp.unmet_ids:
        active_row_ids = (qp.row_ids[active_idx[0]],)
    elif len(active_idx) == 2 and not qp.unmet_ids:
        # two rows of one constraint (its continuous and sampled rows) name it once
        first, second = qp.row_ids[active_idx[0]], qp.row_ids[active_idx[1]]
        active_row_ids = (first,) if first == second else (first, second)
    else:
        active_row_ids = qp.unmet_ids + tuple([qp.row_ids[i] for i in active_idx])
        if len(active_row_ids) > 1:
            # a constraint with two rows in the problem is named once
            active_row_ids = tuple(dict.fromkeys(active_row_ids))
    u_out = ControlInput._trusted(u_star)
    deviation = command_deviation(u_star, qp.u_des)
    return _new(FilterResult, (u_out, True, deviation, active_row_ids, status, elapsed))


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
