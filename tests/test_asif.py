import math
import struct
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asifkit import (
    GEOFENCE_2D_CIRCLE,
    INFEASIBLE_FALLBACK,
    MODIFIED,
    PASSTHROUGH,
    BarrierConstraint,
    ControlInput,
    FilterResult,
    InvalidConfig,
    NonFiniteCommand,
    NonFiniteRow,
    PlantState,
    QpProblem,
    StructurallyInfeasible,
    asif,
    assemble_qp,
    barrier,
    cbf_row,
    check_kkt,
    filter_control,
    filter_rows,
    harness,
    solve_qp,
)


from tests import oracles
from tests.conftest import same_floats
from tests.oracles import grid_oracle, least_max_violation, qp_arrays, row_violations
from tests.test_least_max_violation import random_problem


def make_qp(u_des, rows_a, rows_b, box):
    m = len(rows_b)
    d = len(u_des)
    rows_a = np.asarray(rows_a, float).reshape(m, d).tolist()
    return QpProblem(
        u_des=tuple(np.asarray(u_des, float).tolist()),
        rows=tuple((*a, b) for a, b in zip(rows_a, np.asarray(rows_b, float).tolist())),
        row_ids=tuple(f"r{i}" for i in range(m)),
        box=tuple(map(tuple, np.asarray(box, float).reshape(d, 2).tolist())),
    )


# ---- assemble_qp ----


def test_assemble_empty_constraints(model_1d):
    u = ControlInput([0.4], model_1d.control_bounds)
    qp = assemble_qp([], model_1d, PlantState([0.0, 0.0]), u)
    rows_a, _, _, _ = qp_arrays(qp)
    assert rows_a.shape == (0, 1)
    u_star, active, status = solve_qp(qp)
    assert status == PASSTHROUGH and np.array_equal(u_star, [0.4]) and active == ()


def test_assemble_composes_hand_row(fence, model_1d):
    u = ControlInput([1.0], model_1d.control_bounds)
    qp = assemble_qp([fence], model_1d, PlantState([0.0, 1.0]), u)
    rows_a, rows_b, _, _ = qp_arrays(qp)
    assert np.allclose(rows_a, [[-1.0]])
    assert rows_b[0] == pytest.approx(0.5, abs=1e-15)
    assert qp.row_ids == ("fence",)
    assert np.array_equal(qp.box, [[-1.0, 1.0]])


def test_assemble_drops_vacuous_row(fence, model_1d):
    u = ControlInput([1.0], model_1d.control_bounds)
    qp = assemble_qp([fence], model_1d, PlantState([0.0, 0.0]), u)  # a=0, b=-1
    rows_a, _, _, _ = qp_arrays(qp)
    assert rows_a.shape[0] == 0


def test_assemble_raises_structural(fence, model_1d):
    # v = 0 and h < 0: no command has any effect yet the row demands b > 0
    u = ControlInput([0.0], model_1d.control_bounds)
    with pytest.raises(StructurallyInfeasible) as err:
        assemble_qp([fence], model_1d, PlantState([2.0, 0.0]), u)
    assert err.value.constraint_id == "fence"


def test_assemble_with_a_period_raises_structural_without_a_sampled_row(model_2d):
    """Given dt, a row with no authority that demands b > 0 is still
    structurally infeasible where the constraint has no sampled row: here
    outside a circle, heading straight in at a speed whose braked stop is
    the centre exactly, where the sampled row is undefined."""
    circle = BarrierConstraint("circle", GEOFENCE_2D_CIRCLE, {"center": (0.0, 0.0), "radius": 1.0, "u_max": 1.0}, gamma=3.0)
    state = PlantState([2.0, 0.0, -2.0, 0.0])
    assert filter_rows(circle, model_2d, state, 0.5) == ((0.0, 0.0, 1.0), None)
    with pytest.raises(StructurallyInfeasible, match="^constraint 'circle' is structurally infeasible at this state$"):
        assemble_qp([circle], model_2d, state, ControlInput([0.0, 0.0], model_2d.control_bounds), 0.5)


def _stacked_cbf_rows(constraints, model, state):
    rows = [cbf_row(c, model, state) for c in constraints]
    return [(np.asarray(a).tobytes(), b) for a, b in rows if any(a)]


def test_rows_unchanged_without_period(fence, circle, speed, model_1d, model_2d):
    """Without dt the problem holds exactly cbf_row's rows; with dt they are
    all still there, each followed by its constraint's sampled row."""
    rng = np.random.default_rng(22)
    cases = [([fence], model_1d, 2), ([circle, speed], model_2d, 4)]
    for constraints, model, dim in cases:
        for _ in range(200):
            state = PlantState(rng.uniform(-0.9, 0.9, size=dim))
            u = ControlInput(rng.uniform(-1, 1, size=dim // 2), model.control_bounds)
            plain = assemble_qp(constraints, model, state, u)
            continuous = _stacked_cbf_rows(constraints, model, state)
            rows_a, rows_b, _, _ = qp_arrays(plain)
            assert [(a.tobytes(), b) for a, b in zip(rows_a, rows_b.tolist())] == continuous
            assert plain.unmet_ids == ()
            sampled = assemble_qp(constraints, model, state, u, dt=0.01)
            rows_a, rows_b, _, _ = qp_arrays(sampled)
            sampled_rows = [(a.tobytes(), b) for a, b in zip(rows_a, rows_b.tolist())]
            assert all(row in sampled_rows for row in continuous)
            assert len(sampled_rows) > len(continuous)


@pytest.mark.parametrize(
    "fixture, x",
    [("fence", [2.0, 0.0]), ("circle", [1.05, 0.0, -0.01, 0.0])],
)
def test_sampled_row_turns_structural_abort_into_flagged_fallback(fixture, x, request):
    """Outside the set with no authority left in the continuous row: an abort
    without the period, a flagged fallback with it, because the sampled row
    can still act."""
    constraint = request.getfixturevalue(fixture)
    model = request.getfixturevalue("model_1d" if len(x) == 2 else "model_2d")
    state = PlantState(x)
    u = ControlInput([0.0] * (len(x) // 2), model.control_bounds)
    with pytest.raises(StructurallyInfeasible):
        filter_control([constraint], model, state, u)
    qp = assemble_qp([constraint], model, state, u, dt=0.01)
    assert qp.unmet_ids == (constraint.id,) and qp.row_ids == (constraint.id,)
    res = filter_control([constraint], model, state, u, dt=0.01)
    assert res.status == INFEASIBLE_FALLBACK and res.intervened
    assert res.active_row_ids[0] == constraint.id and len(set(res.active_row_ids)) == len(res.active_row_ids)
    assert np.all(np.abs(res.u_out.u) <= 1.0)


# ---- solve_qp hand examples ----


def test_solve_single_row_kkt_closed_form():
    qp = make_qp([1.0], [[-1.0]], [0.5], [[-1.0, 1.0]])
    u_star, active, status = solve_qp(qp)
    assert abs(u_star[0] - (-0.5)) <= 1e-9
    assert status == MODIFIED and active == (0,)


@pytest.mark.parametrize(
    "u_des, rows_a, rows_b, u_expected, active_expected",
    [
        # the row is met at u_des but bounds the optimum with the box face u0 <= 1
        ([2.0, 0.0], [[1.0, 1.0]], [1.5], [1.0, 0.5], (0,)),
        # row 1 is met at u_des but bounds the optimum with row 0
        ([0.0, 0.0], [[0.0, 1.0], [1.0, -2.0]], [1.0, -1.5], [0.5, 1.0], (0, 1)),
        # both rows lie exactly 0.5 from u_des; the first one's projection
        # violates the second
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 2.0]], [0.5, 1.0], [0.5, 0.5], (0, 1)),
    ],
)
def test_solve_vertex_closed_form(u_des, rows_a, rows_b, u_expected, active_expected):
    """Optima at the vertex of two constraints that the farthest violated
    constraint's projection misses."""
    qp = make_qp(u_des, rows_a, rows_b, [[-2.0, 1.0], [-2.0, 2.0]])
    u_star, active, status = solve_qp(qp)
    assert status == MODIFIED and active == active_expected
    assert np.allclose(u_star, u_expected, rtol=0.0, atol=1e-15)
    assert max(check_kkt(qp, u_star).values()) <= 1e-12


@pytest.mark.parametrize(
    "rows_a, rows_b, expected",
    [
        # stage 1 projects onto row 0; rows 1 and 2 give the same vertex with it
        ([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], [0.6, 0.5, 0.5], "((0.6, 0.5), (0, 1), 'modified')"),
        # the duplicates are rows 0 and 2, around the row stage 1 projects onto
        ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0.5, 0.6, 0.5], "((0.6, 0.5), (0, 1), 'modified')"),
        # row 0 is met; rows 1 and 3 are duplicates, and each meets row 2 there
        ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [-0.9, 0.6, 0.5, 0.6], "((0.6, 0.5), (1, 2), 'modified')"),
        # rows 0 and 1 are duplicates; stage 2 finds row 1's vertex with row 2
        # before row 0's, and the least (q, p), not the order found, names row 0
        ([[2.0, 1.0], [2.0, 1.0], [0.0, 1.0]], [1.5, 1.5, 0.5], "((0.5, 0.5), (0, 2), 'modified')"),
    ],
)
def test_duplicated_row_at_the_optimal_vertex(rows_a, rows_b, expected):
    """A duplicated row makes two vertices with equal (dist^2, v0, v1); the
    least (q, p) names the active rows."""
    assert repr(solve_qp(make_qp([0.0, 0.0], rows_a, rows_b, [[-1.0, 1.0], [-1.0, 1.0]]))) == expected


# At u_des = (0.9, 0.9) stage 1 projects onto row 1, the farther violated
# row, and row 0 rejects the projection; their vertex, with both multipliers
# positive, is the optimum. Each result below is the parent revision's (its
# stage 2 alone), bit for bit.
PAIR_ROWS = ((-1.0, -0.2, -0.6), (-0.3, -1.0, -0.5))
PAIR_VERTEX = (0.5319148936170213, 0.34042553191489366)


def _solve_with_path(monkeypatch, rows, marks=None):
    """solve_qp's result on rows at u_des (0.9, 0.9) in the box [-1, 1]^2,
    and the step of _solve_plane that returned it: 'stage 1', 'pair step'
    or 'stage 2', told apart by the locals each has set by then. Where
    marks is a list, the pair step's skip mark (dropped) and stage 1's k
    are appended to it."""
    paths = []
    solved = asif._solved

    def recording(*args):
        names = sys._getframe(1).f_locals
        paths.append("stage 2" if "best" in names else ("pair step" if "rho" in names else "stage 1"))
        if marks is not None:
            marks.append((names["dropped"], names["k"]))
        return solved(*args)

    monkeypatch.setattr(asif, "_solved", recording)
    qp = QpProblem((0.9, 0.9), rows, tuple(f"r{i}" for i in range(len(rows))), ((-1.0, 1.0), (-1.0, 1.0)))
    result = solve_qp(qp)
    assert len(paths) == 1
    return result, paths[0]


def test_the_pair_step_answers_the_vertex_of_the_blocking_pair(monkeypatch):
    """Every box face clears the vertex of rows 0 and 1, so the pair step
    returns it, with both rows active."""
    assert _solve_with_path(monkeypatch, PAIR_ROWS) == ((PAIR_VERTEX, (0, 1), MODIFIED), "pair step")


@pytest.mark.parametrize("offset, path", [(0.0, "stage 2"), (1e-9, "stage 2"), (1e-3, "pair step")])
def test_a_row_within_the_clearance_of_the_pair_vertex_leaves_it_to_stage_2(monkeypatch, offset, path):
    """A third row with normal (-0.8, 0.6) met at the vertex with offset to
    spare. Through the vertex (0) or 1e-9 inside it, more than feas_tol
    (3.8e-11) but less than the multipliers' term (about 1e-5), the pair
    step cannot rule out a nearer vertex on it, and stage 2 decides; 1e-3
    inside, the pair step answers. The result is the same vertex each
    time. The pair step does not drop the vertex (the mark stays -1), so
    stage 2, where it decides, computes it again."""
    b = -0.8 * PAIR_VERTEX[0] + 0.6 * PAIR_VERTEX[1]
    rows = (*PAIR_ROWS, (-0.8, 0.6, b - offset))
    marks = []
    assert _solve_with_path(monkeypatch, rows, marks) == ((PAIR_VERTEX, (0, 1), MODIFIED), path)
    assert marks == [(-1, 1)]


def test_a_row_that_cuts_off_the_pair_vertex_sends_stage_2_to_another(monkeypatch):
    """A third row violated by 0.05 at the vertex of rows 0 and 1: the pair
    step drops that vertex and marks its pair (dropped = j = 0, k = 1), so
    stage 2 skips it, and finds the optimum at the vertex of rows 1 and 2."""
    b = -0.8 * PAIR_VERTEX[0] + 0.6 * PAIR_VERTEX[1] + 0.05
    rows = (*PAIR_ROWS, (-0.8, 0.6, b))
    expected = ((0.48089448545375596, 0.3557316543638732), (1, 2), MODIFIED)
    marks = []
    assert _solve_with_path(monkeypatch, rows, marks) == (expected, "stage 2")
    assert marks == [(0, 1)]


@pytest.mark.parametrize(
    "u_des, rows, face, expected",
    [
        # u0 <= 1 is violated by 2, the row u0 + u1 <= 1.2 by 2.3 / sqrt(2)
        ((3.0, 0.5), ((-1.0, -1.0, -1.2),), 1, ((1.0, 0.19999999999999996), (0,), MODIFIED)),
        # u1 >= -1 is violated by 3, the row u0 >= 0.8 by 0.3
        ((0.5, -4.0), ((-1.0, -1.0, -1.2), (1.0, 0.0, 0.8)), 2, ((0.8, -1.0), (1,), MODIFIED)),
    ],
)
def test_a_box_face_is_the_farthest_violated_constraint(monkeypatch, u_des, rows, face, expected):
    """A u_des outside the box [-1, 1]^2 (which filter_control never
    passes) violates a face, here farther from it than any row: stage 1
    projects onto that face, a row rejects the projection, and the pair
    step answers the vertex of the two, naming the row alone active."""
    seen = []
    solved = asif._solved

    def recording(*args):
        names = sys._getframe(1).f_locals
        seen.append((names["k"] - names["m"], "rho" in names))
        return solved(*args)

    monkeypatch.setattr(asif, "_solved", recording)
    qp = QpProblem(u_des, rows, tuple(f"r{i}" for i in range(len(rows))), ((-1.0, 1.0), (-1.0, 1.0)))
    assert solve_qp(qp) == expected
    assert seen == [(face, True)]  # k is the face (m + face), answered by the pair step


def test_solve_infeasible_box_corner():
    qp = make_qp([0.0], [[-1.0]], [2.0], [[-1.0, 1.0]])  # u <= -2 impossible in box
    u_star, active, status = solve_qp(qp)
    assert status == INFEASIBLE_FALLBACK
    assert u_star[0] == -1.0


def test_solve_rows_without_authority():
    """A hand-built row with a = 0 is vacuous when b <= 0 and unmeetable when
    b > 0, on either axis count."""
    box1 = [[-1.0, 1.0]]
    u_star, active, status = solve_qp(make_qp([0.5], [[0.0], [-1.0]], [-0.3, 0.0], box1))
    assert status == MODIFIED and u_star[0] == 0.0 and active == (1,)
    u_star, active, status = solve_qp(make_qp([0.5], [[0.0], [-1.0]], [0.3, 0.0], box1))
    assert status == INFEASIBLE_FALLBACK and 0 in active
    box2 = [[-1.0, 1.0]] * 2
    u_star, active, status = solve_qp(make_qp([0.5, 0.2], [[0.0, 0.0], [-1.0, 0.0]], [-0.3, 0.0], box2))
    assert status == MODIFIED and np.asarray(u_star).tolist() == [0.0, 0.2] and active == (1,)
    for rows_a in ([[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]):
        rows_b = [0.3, 0.0] if rows_a[0] == [0.0, 0.0] else [0.0, 0.3]
        u_star, active, status = solve_qp(make_qp([0.5, 0.2], rows_a, rows_b, box2))
        assert status == INFEASIBLE_FALLBACK and np.all(np.abs(u_star) <= 1.0)


@pytest.mark.parametrize(
    "rows_a, rows_b",
    [
        ([[1.0, 1.0]], [0.0]),  # stage 1: the projection onto the row
        ([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.25]),  # stage 2: the vertex of both rows
        ([[1.0, -1.0], [1.0, 0.0]], [0.0, -0.5]),  # stage 1, the other row met
    ],
)
def test_rows_whose_squared_norms_overflow_solve_as_scaled_down(rows_a, rows_b):
    """Multiplying the first row by 2**600 overflows its squared norm but
    leaves its line and the tolerance as they are: the solve gives the
    unscaled problem's result bit for bit, a modified point."""
    u_des, box = [-0.5, -0.25], [[-1.0, 1.0]] * 2
    small = solve_qp(make_qp(u_des, rows_a, rows_b, box))
    rows_a[0] = [2.0**600 * a for a in rows_a[0]]
    big = solve_qp(make_qp(u_des, rows_a, rows_b, box))
    assert small[2] == MODIFIED
    assert (np.asarray(big[0]).tobytes(), big[1], big[2]) == (np.asarray(small[0]).tobytes(), small[1], small[2])


def test_violated_rows_without_a_distance_leave_stage_1_no_projection():
    """The row 1e154 * u0 >= 1e-10 is violated at u_des = (0, 0) by more
    than feas_tol, but its squared distance, 1e-20 / 1e308, underflows to
    zero, so stage 1 cannot rank it. With no other violated constraint there
    is no projection to try and the solve ends in the fallback, at (1, 0).
    Rows with an infinite entry, whose distances are NaN, raise before it."""
    box = ((-1.0, 1.0), (-1.0, 1.0))
    qp = QpProblem((0.0, 0.0), ((1e154, 0.0, 1e-10),), ("r0",), box)
    assert asif._solve_plane(qp, asif._feas_tol(qp)) is None
    assert solve_qp(qp) == ((1.0, 0.0), (0,), INFEASIBLE_FALLBACK)
    inf = float("inf")
    rows = ((1.4400167254152394, -inf, -0.17774654927545933), (-1.4400167254152394, -0.0, -0.35962177380234306))
    with pytest.raises(NonFiniteRow) as err:
        solve_qp(QpProblem((-0.3200678697410273, 0.35018383322100277), rows, ("r0", "r1"), box))
    assert err.value.constraint_id == "r0"
    rows = ((0.0, 0.7, -1.4), (0.1, inf, -0.2), (0.9, 1.2, -1.0), (2.1, 0.0, -0.2))
    with pytest.raises(NonFiniteRow) as err:
        solve_qp(QpProblem((0.7191385815769427, -0.864028746677254), rows, ("r0", "r1", "r2", "r3"), box))
    assert err.value.constraint_id == "r1"


def test_a_non_finite_row_raises_in_either_order():
    """A row with a NaN or infinite entry raises NonFiniteRow naming its
    constraint, wherever it stands, so its place cannot decide the result:
    the rows (NaN, 0, 0) and (1, 0, 0.5) at u_des = (0, 0) must not pass
    (0, 0), which violates the second row, and the row inf * u0 >= 0, NaN
    at the projection (0, 0.25) of u_des = (-0.5, 0.25), must not reject it
    in one order and accept it in the other."""
    nan, inf = math.nan, math.inf
    box = ((-1.0, 1.0), (-1.0, 1.0))
    for u_des, bad, good in [((0.0, 0.0), (nan, 0.0, 0.0), (1.0, 0.0, 0.5)), ((-0.5, 0.25), (inf, 0.0, 0.0), (1.0, 0.0, 0.0))]:
        for rows, ids in [((bad, good), ("bad", "good")), ((good, bad), ("good", "bad"))]:
            with pytest.raises(NonFiniteRow) as err:
                solve_qp(QpProblem(u_des, rows, ids, box))
            assert err.value.constraint_id == "bad"
    # one axis
    for rows in [((nan, 0.0), (1.0, 0.5)), ((1.0, 0.5), (1.0, -inf))]:
        with pytest.raises(NonFiniteRow):
            solve_qp(QpProblem((0.0,), rows, ("r0", "r1"), ((-1.0, 1.0),)))


@pytest.mark.parametrize(
    "u_des, box",
    [
        ((math.nan,), ((-1.0, 1.0),)),
        ((math.inf,), ((-1.0, 1.0),)),
        ((0.0, math.nan), ((-1.0, 1.0), (-1.0, 1.0))),
        ((-math.inf, 0.0), ((-math.inf, 1.0), (-1.0, 1.0))),
        ((0.0,), ((-1.0, math.inf),)),
        ((0.0, 0.0), ((-1.0, 1.0), (math.nan, 1.0))),
        ((0.0, 0.0), ((-1.0, 1.0), (-1.0, math.inf))),
    ],
)
def test_a_non_finite_command_or_box_raises(u_des, box):
    """u_des and the box are checked as the rows are, with no row to price
    and with one that u_des meets: a NaN or infinite command entry raises
    NonFiniteCommand, a NaN or infinite bound InvalidConfig."""
    error = NonFiniteCommand if not all(map(math.isfinite, u_des)) else InvalidConfig
    d = len(u_des)
    for rows in [(), ((*[0.0] * (d - 1), 1.0, -5.0),)]:
        with pytest.raises(error):
            solve_qp(QpProblem(u_des, rows, ("r0",)[: len(rows)], box))


def test_an_overflowed_slack_is_not_a_non_finite_entry():
    """The finite row 1e300 * u0 >= 0 in the box [-1e10, 1e10]^2 has a clamp
    slack that overflows: -inf at u_des = (1e10, 0), where the row is met,
    and +inf at (-1e10, 0), where it is violated. Neither raises. A slack
    that overflows to NaN (inf - inf, at (1e10, -1e10) for the row (1e300,
    1e300, 0)) counts as met, and does not hide the rows after it."""
    big = ((-1e10, 1e10), (-1e10, 1e10))
    row, other = (1e300, 0.0, 0.0), (0.0, 1.0, 2.0)
    assert solve_qp(QpProblem((1e10, 0.0), (row,), ("r0",), big)) == ((1e10, 0.0), (), PASSTHROUGH)
    assert solve_qp(QpProblem((1e10, 0.0), (row, other), ("r0", "r1"), big)) == ((1e10, 2.0), (1,), MODIFIED)
    assert solve_qp(QpProblem((-1e10, 0.0), (row,), ("r0",), big)) == ((0.0, 0.0), (0,), MODIFIED)
    assert solve_qp(QpProblem((-1e10, 0.0), (other, row), ("r0", "r1"), big)) == ((0.0, 2.0), (0, 1), MODIFIED)
    assert solve_qp(QpProblem((-1e10, 3.0), (other, row), ("r0", "r1"), big)) == ((0.0, 3.0), (1,), MODIFIED)
    nan_slack, met = (1e300, 1e300, 0.0), (0.0, 1.0, 0.5)
    for rows, active in [((nan_slack, met), (1,)), ((met, nan_slack), (0,))]:
        assert solve_qp(QpProblem((1e10, -1e10), rows, ("r0", "r1"), big)) == ((1e10, 0.5), active, MODIFIED)


@pytest.mark.parametrize("a, b", [(1e-13, 5e-14), (5e-324, 5e-324), (1.0, 1e-13)])
def test_one_and_two_axes_decide_alike(a, b):
    """A row a * u0 >= b on box [-1, 1], u_des = 0, gets the same status, u0
    bits and active rows on one axis as on two with a zero second column.
    u_des meets each row under the tolerance contract (the first two rows
    have no authority and demand less than feas_tol), so each passes
    through."""
    one = solve_qp(make_qp([0.0], [[a]], [b], [[-1.0, 1.0]]))
    two = solve_qp(make_qp([0.0, 0.0], [[a, 0.0]], [b], [[-1.0, 1.0]] * 2))
    assert (np.asarray(one[0])[:1].tobytes(), one[1], one[2]) == (np.asarray(two[0])[:1].tobytes(), two[1], two[2])
    assert one[2] == PASSTHROUGH


def _margin_qp(misses):
    """Rows 2u0 + 2u1 >= 4 + delta and 10(u1 - u0) >= 0 in box [-1, 1]^2,
    where the first row's largest value over the box, 4, falls short of b by
    delta = misses * feas_tol. Their vertex is (1 + delta/4, 1 + delta/4).
    u_des projects onto the first row at the vertex plus (e, -e), e =
    feas_tol/10, which violates the second row by 2 feas_tol, so stage 1
    fails (for misses = 3 that projection leaves the box by 0.85 feas_tol).
    feas_tol is that of the problem with delta = 0 (6.6e-11); delta moves
    it by a relative 1e-9 at most."""
    feas_tol = 1e-11 * (1.0 + 4.0 + 0.8 + 0.8)
    delta = misses * feas_tol
    vertex = 1.0 + delta / 4.0
    e = feas_tol / 10.0
    u_des = [vertex - 0.2 + e, vertex - 0.2 - e]
    qp = make_qp(u_des, [[2.0, 2.0], [-10.0, 10.0]], [4.0 + delta, 0.0], [[-1.0, 1.0]] * 2)
    assert abs(asif._feas_tol(qp) - feas_tol) <= 1e-9 * feas_tol
    return qp


def test_row_missing_the_box_within_the_margin_stays_modified():
    """The first row misses the box by 3 feas_tol, less than feas_tol * (1 +
    |a0| + |a1|) = 5 feas_tol: its vertex with the second row lies within
    feas_tol of the box and meets both rows, so the box check must not end
    the solve. A margin without the |a| term (2 feas_tol) would."""
    qp = _margin_qp(3.0)
    u_star, active, status = solve_qp(qp)
    assert status == MODIFIED and np.asarray(u_star).tolist() == [1.0, 1.0] and active == (0, 1)


def test_row_beyond_the_margin_ends_in_the_fallback():
    """Missing the box by 12 feas_tol, beyond the box check's 10 feas_tol,
    the first row leaves no point: the fallback is the least-max-violation
    point, the corner (1, 1), bit for bit as after a full stage 2."""
    qp = _margin_qp(12.0)
    feas_tol = asif._feas_tol(qp)
    assert asif._solve_plane(qp, feas_tol) is None
    result = solve_qp(qp)
    assert result == asif._fallback(qp, feas_tol)
    u_star, active, status = result
    assert status == INFEASIBLE_FALLBACK and np.asarray(u_star).tolist() == [1.0, 1.0] and active == (0,)


def test_fallback_ties_take_the_nearest_least_max_violation_point():
    """When a whole face of the box attains the least maximum violation, the
    fallback is the point of that face nearest u_des, not the nearest of the
    enumerated corners and crossings."""
    box2 = [[-1.0, 1.0]] * 2
    # max violation max(0.3, u0) is least on u0 <= 0.3
    u_star, active, status = solve_qp(make_qp([0.5, 0.2], [[0.0, 0.0], [-1.0, 0.0]], [0.3, 0.0], box2))
    assert status == INFEASIBLE_FALLBACK and np.asarray(u_star).tolist() == [0.3, 0.2] and active == (0, 1)
    # max violation 2 - u0 is least on the face u0 = 1
    u_star, active, status = solve_qp(make_qp([0.5, 0.2], [[1.0, 0.0]], [2.0], box2))
    assert status == INFEASIBLE_FALLBACK and np.asarray(u_star).tolist() == [1.0, 0.2] and active == (0,)
    # one axis: u_des clamped into the tied interval [-1, 0.3]
    u_star, active, status = solve_qp(make_qp([0.0], [[0.0], [-1.0]], [0.3, 0.0], [[-1.0, 1.0]]))
    assert status == INFEASIBLE_FALLBACK and np.asarray(u_star).tolist() == [0.0] and active == (0,)


def test_clamped_slack_ties_decided_by_the_scalar_slack():
    """A row whose b is a0*c0 + a1*c1, summed in Python floats at the clamped
    command c, lies exactly on the boundary there: it is met and active, on
    every machine, although numpy's product may round it to either side."""
    rng = np.random.default_rng(23)
    for _ in range(500):
        rows_a = rng.normal(size=(2, 2))
        u_des = rng.uniform(-1.3, 1.3, 2)
        c = np.clip(u_des, -1.0, 1.0)
        c0, c1 = c.tolist()
        (a00, a01), (a10, a11) = rows_a.tolist()
        rows_b = [a00 * c0 + a01 * c1, a10 * c0 + a11 * c1 - 1.0]  # row 0 on the boundary, row 1 slack
        u_star, active, status = solve_qp(make_qp(u_des, rows_a, rows_b, [[-1.0, 1.0]] * 2))
        if np.array_equal(c, u_des):
            assert status == PASSTHROUGH
        else:
            assert status == MODIFIED and np.array_equal(u_star, c) and active == (0,)


def test_filter_hand_example(fence, model_1d):
    res = filter_control([fence], model_1d, PlantState([0.0, 1.0]), ControlInput([1.0], model_1d.control_bounds))
    assert abs(res.u_out.u[0] - (-0.5)) <= 1e-9
    assert res.intervened and res.status == MODIFIED
    assert res.deviation == pytest.approx(1.5, abs=1e-9)
    assert res.active_row_ids == ("fence",)


def test_filter_safe_command_passthrough(fence, model_1d):
    u = ControlInput([0.0], model_1d.control_bounds)
    res = filter_control([fence], model_1d, PlantState([0.0, -1.0]), u)
    assert res.u_out.u.tobytes() == u.u.tobytes()
    assert not res.intervened and res.deviation == 0.0 and res.status == PASSTHROUGH


def test_filter_no_constraints_always_passthrough(model_2d):
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = ControlInput(rng.uniform(-1, 1, 2), model_2d.control_bounds)
        res = filter_control([], model_2d, PlantState(rng.uniform(-1, 1, 4)), u)
        assert res.status == PASSTHROUGH


def test_filter_determinism(fence, model_1d):
    state = PlantState([0.1, 0.9])
    u = ControlInput([1.0], model_1d.control_bounds)
    a = filter_control([fence], model_1d, state, u)
    b = filter_control([fence], model_1d, state, u)
    assert a.u_out.u.tobytes() == b.u_out.u.tobytes()
    assert a.deviation == b.deviation
    assert a.active_row_ids == b.active_row_ids
    assert a.status == b.status


# ---- call path and result types ----

ENTRY_POINTS = ("cbf_row", "filter_rows", "assemble_qp", "solve_qp")


@pytest.mark.parametrize("dt", [None, 0.05])
@pytest.mark.parametrize("u_des", [(0.0, 0.0), (1.0, 1.0), (-1.0, 0.5)])
def test_filter_calls_each_entry_point_through_the_module(monkeypatch, circle, speed, model_2d, dt, u_des):
    """filter_control reaches cbf_row without dt, and filter_rows given dt,
    once per constraint, and assemble_qp and solve_qp once per call, each
    through asif's module attribute, the binding a tracer wraps. Given dt,
    cbf_row is not called by any binding. Its result
    and the problem are exact instances of their classes, as the usual
    constructors build them."""
    calls = dict.fromkeys(ENTRY_POINTS + ("barrier.cbf_row",), 0)
    problems = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if name == "assemble_qp":
                problems.append(out)
            return out

        return wrapper

    for name in ENTRY_POINTS:
        monkeypatch.setattr(asif, name, counting(name, getattr(asif, name)))
    monkeypatch.setattr(barrier, "cbf_row", counting("barrier.cbf_row", barrier.cbf_row))
    constraints = [circle, speed]
    state = PlantState([0.5, 0.2, 0.3, -0.2])
    result = filter_control(constraints, model_2d, state, ControlInput(list(u_des), model_2d.control_bounds), dt)
    per_constraint = {"cbf_row": 2, "filter_rows": 0} if dt is None else {"cbf_row": 0, "filter_rows": 2}
    assert calls == {**per_constraint, "assemble_qp": 1, "solve_qp": 1, "barrier.cbf_row": 0}

    assert type(result) is FilterResult and result == FilterResult(*result)
    assert result._replace(solve_time=0.0) == FilterResult(*result)._replace(solve_time=0.0)
    assert type(result._replace(solve_time=0.0)) is FilterResult
    assert result.intervened == (result.status != PASSTHROUGH)
    (qp,) = problems
    assert type(qp) is QpProblem and qp == QpProblem(*qp)
    assert qp._replace(rows=()) == QpProblem(*qp)._replace(rows=()) and type(qp._replace(rows=())) is QpProblem
    assert qp.control_dim == 2 and qp.unmet_ids == () and len(qp) == len(QpProblem._fields)


def test_call_path_sees_every_status(circle, speed, model_2d):
    """The commands of the call-path test reach both result constructions:
    a passthrough and a filtered step."""
    state = PlantState([0.5, 0.2, 0.3, -0.2])
    statuses = {
        filter_control([circle, speed], model_2d, state, ControlInput(list(u), model_2d.control_bounds)).status
        for u in [(0.0, 0.0), (1.0, 1.0), (-1.0, 0.5)]
    }
    assert PASSTHROUGH in statuses and statuses - {PASSTHROUGH}


# ---- written-out helpers against their generic loops ----


def _bits(x):
    return struct.pack("<d", x)


def _huge_rows(d):
    """Problems whose rows hold a huge entry, in the first row's b for
    every third."""
    for seed, value in enumerate([1e300, -1e200, 1.7e308, -1e308] * 30):
        qp = random_problem(np.random.default_rng(seed), d)
        rows = [list(row) for row in qp.rows]
        rows[seed % len(rows)][seed % (d + 1)] = value
        rows[0][-1] = value if seed % 3 == 0 else rows[0][-1]
        yield qp._replace(rows=tuple(map(tuple, rows)))


@pytest.mark.parametrize("d", [1, 2])
def test_feas_tol_matches_the_generic_loop(d):
    problems = [random_problem(np.random.default_rng(seed), d) for seed in range(400)]
    problems += list(_huge_rows(d))
    problems += [qp._replace(rows=(), row_ids=()) for qp in problems[:20]]
    problems.append(QpProblem((1e308,) * d, ((*[1.0] * d, -1e308),), ("r0",), ((-1e308, 2.0),) * d))
    for qp in problems:
        assert _bits(asif._feas_tol(qp)) == _bits(oracles.feas_tol(qp)), qp


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.5, 1e308, -1e308, math.inf, -math.inf, math.nan]


def test_command_deviation_matches_the_generic_loop():
    """Equal bits, but for the sign and payload of a NaN."""
    pairs = [((u,), (v,)) for u in SPECIAL for v in SPECIAL]
    pairs += [((u0, u1), (v0, v1)) for u0 in SPECIAL for u1 in SPECIAL[::3] for v0 in SPECIAL[::2] for v1 in SPECIAL]
    rng = np.random.default_rng(3)
    pairs += [(tuple(rng.normal(size=d).tolist()), tuple(rng.normal(size=d).tolist())) for d in (1, 2) for _ in range(200)]
    for u, u_des in pairs:
        assert same_floats([asif.command_deviation(u, u_des)], [oracles.command_deviation(u, u_des)]), (u, u_des)
    # lists sliced out of a row of floats
    row = [0.25, -0.0, 5e-324, 1.0, -1e308, 1e308, math.inf, 0.5, -0.5]
    for start in range(len(row) - 3):
        for d in (1, 2):
            u, u_des = row[start : start + d], row[start + d : start + 2 * d]
            assert same_floats([asif.command_deviation(u, u_des)], [oracles.command_deviation(u, u_des)]), (u, u_des)


# ---- randomized oracle equivalence ----


def _random_qp(rng, d, max_rows=5):
    m = int(rng.integers(0, max_rows + 1))
    rows_a = []
    rows_b = []
    for _ in range(m):
        while True:
            a = rng.normal(size=d)
            if np.linalg.norm(a) > 0.2:
                break
        rows_a.append(a)
        rows_b.append(rng.uniform(-1.5, 1.5))
    u_des = rng.uniform(-2.0, 2.0, size=d)
    return make_qp(u_des, rows_a if m else np.empty((0, d)), rows_b, [[-1.0, 1.0]] * d)


# lighter sweep here; the acceptance gate runs the full 500-instance corpus
@pytest.mark.parametrize("d, count, seed", [(1, 200, 11), (2, 60, 12)])
def test_minimal_deviation_matches_grid_oracle(d, count, seed):
    rng = np.random.default_rng(seed)
    pitch = 2.0 / 2000.0
    for _ in range(count):
        qp = _random_qp(rng, d)
        u_star, _active, status = solve_qp(qp)
        u_star = np.asarray(u_star)
        rows_a, rows_b, lo, hi = qp_arrays(qp)
        oracle_dev, oracle_feasible = grid_oracle(qp)
        if oracle_feasible != (status != INFEASIBLE_FALLBACK):
            oracle_dev, oracle_feasible = grid_oracle(qp, precise=True)
        if status == INFEASIBLE_FALLBACK:
            assert not oracle_feasible
            assert np.all(u_star >= lo) and np.all(u_star <= hi)
            continue
        assert oracle_feasible
        dev = float(np.linalg.norm(u_star - qp.u_des))
        assert dev <= oracle_dev + pitch * np.sqrt(d)
        if rows_a.shape[0]:
            assert float(np.min(rows_a @ u_star - rows_b)) >= -1e-9
        kkt = check_kkt(qp, u_star)
        assert kkt["stationarity"] <= 1e-8
        assert kkt["primal"] <= 1e-8
        assert kkt["complementarity"] <= 1e-8


def test_passthrough_bitwise_on_safe_pairs(fence, model_1d):
    """Randomized safe (state, command) pairs pass through bitwise unchanged."""
    from asifkit import cbf_row

    rng = np.random.default_rng(21)
    checked = 0
    while checked < 1000:
        state = PlantState(rng.uniform(-2, 2, size=2))
        u_val = rng.uniform(-1, 1, size=1)
        a, b = cbf_row(fence, model_1d, state)
        if not any(a):
            if b > 0.0:
                continue  # structurally infeasible state, no QP to check
        elif float(a @ u_val) < b:
            continue  # not a safe pair
        res = filter_control([fence], model_1d, state, ControlInput(u_val, model_1d.control_bounds))
        assert res.u_out.u.tobytes() == u_val.tobytes()
        assert not res.intervened
        checked += 1


# ---- properties over hand-built problems ----


def _grid(low, high):
    """Multiples of 1/8 in [low, high]: values that can be parallel or tie
    exactly. Magnitudes like 1e-9, whose KKT multipliers of 1e9 leave a
    double-precision residual near 1e-7 at the exact optimum, stay out;
    the turned copies bring in the rank test's scale."""
    return st.integers(int(8 * low), int(8 * high)).map(lambda k: k / 8.0)


@st.composite
def hand_built_qp(draw):
    """One or two axes, a box, u_des inside or outside it, and up to six
    rows: free, zero, or a duplicate, a parallel copy or a copy turned by
    about the rank test's threshold of an earlier row."""
    d = draw(st.sampled_from([1, 2]))
    box = []
    for _ in range(d):
        lo = draw(_grid(-2.0, 1.0))
        box.append([lo, lo + draw(_grid(0.125, 3.0))])
    rows_a, rows_b = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "zero", "duplicate", "parallel", "near_parallel"]))
        if kind == "zero":
            a, b = [0.0] * d, draw(_grid(-3.0, 3.0))
        elif kind == "free" or not rows_a:
            a, b = [draw(_grid(-3.0, 3.0)) for _ in range(d)], draw(_grid(-3.0, 3.0))
        else:
            j = draw(st.integers(0, len(rows_a) - 1))
            a, b = rows_a[j], rows_b[j]
            if kind != "duplicate":
                scale = draw(st.sampled_from([-2.0, -1.0, 0.5, 3.0]))
                a, b = [scale * v for v in a], draw(st.sampled_from([scale * b, draw(_grid(-3.0, 3.0))]))
            if kind == "near_parallel" and d == 2:
                t = draw(st.sampled_from([0.5, 1.0, 2.0, 10.0])) * asif._DEP_TOL
                a = [a[0] - t * a[1], a[1] + t * a[0]]
        rows_a.append(a)
        rows_b.append(b)
    u_des = [draw(_grid(-4.0, 4.0)) for _ in range(d)]
    return make_qp(u_des, rows_a if rows_a else np.empty((0, d)), rows_b, box)


def _least_max_violation(qp, grid_points=None):
    """The least over the box of the largest row violation: from the
    reference enumeration, which does not involve the solve (the fallback's
    own point may come from a phase-II solve), or the least over a per-axis
    grid of the box."""
    rows_a, rows_b, lo, hi = qp_arrays(qp)
    if grid_points is None:
        return max(row_violations(rows_a, rows_b, least_max_violation(qp, rows_a, rows_b, lo, hi)), default=0.0)
    axes = [np.linspace(lo, hi, grid_points) for lo, hi in qp.box]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    return float(np.min(np.max(rows_b[:, None] - rows_a @ grid, axis=0)))


def _opposed_pair_active(qp, u):
    """Whether two constraints active at u (rows or box faces) have normals
    that are nearly, but not exactly, opposed. Their wedge's apex needs KKT
    multipliers near 1 / angle, up to 1e12, and no double-precision check
    resolves stationarity and complementarity below about 1e-16 times them."""
    rows_a, rows_b, _, _ = qp_arrays(qp)
    normals, offsets = list(rows_a), list(rows_b)
    for axis, (lo, hi) in zip(np.eye(qp.control_dim), qp.box):
        normals += [axis, -axis]
        offsets += [lo, -hi]
    active = [a for a, b in zip(normals, offsets) if a @ u - b <= 1e-7]
    for a, b in combinations(active, 2):
        cross = abs(a[0] * b[1] - a[1] * b[0]) if qp.control_dim == 2 else 0.0
        if a @ b < 0.0 and 0.0 < cross <= 1e-6 * np.linalg.norm(a) * np.linalg.norm(b):
            return True
    return False


@settings(max_examples=500, deadline=None)
@given(qp=hand_built_qp())
def test_solve_properties_on_hand_built_problems(qp):
    """solve_qp never raises and stays in the box. A modified result meets
    every row under the tolerance contract, with the solver's own feas_tol;
    where no point meets the rows exactly, the least maximum violation over
    the box is at most that feas_tol, the contract's ground for modified.
    It is a KKT point wherever the problem has an exactly feasible point and
    the point is not the apex of a nearly opposed pair: a problem infeasible
    by less than the feasibility tolerance has no KKT point, and a point
    within that tolerance is all the solver can give. A fallback is only
    reported for a problem with no feasible point on a grid of the box."""
    u_star, active, status = solve_qp(qp)
    u_star = np.asarray(u_star)
    rows_a, rows_b, lo, hi = qp_arrays(qp)
    assert np.all(u_star >= lo - 1e-12) and np.all(u_star <= hi + 1e-12)
    if status == MODIFIED:
        kkt = check_kkt(qp, u_star)
        assert kkt["primal"] <= 1e-8
        exactly_feasible = rows_a.shape[0] == 0 or _least_max_violation(qp) <= 0.0
        if rows_a.shape[0]:
            feas_tol = asif._feas_tol(qp)
            for a, b in zip(rows_a.tolist(), rows_b.tolist()):
                authority = sum(v * v for v in a) > asif._DEP_TOL * asif._DEP_TOL
                assert (b - sum(v * w for v, w in zip(a, u_star.tolist())) if authority else b) <= feas_tol
            assert exactly_feasible or _least_max_violation(qp) <= feas_tol
        if exactly_feasible and not _opposed_pair_active(qp, u_star):
            assert max(kkt.values()) <= 1e-8, kkt
    elif status == INFEASIBLE_FALLBACK:
        assert _least_max_violation(qp, 2001 if qp.control_dim == 1 else 201) > 0.0


# ---- active row ids ----


def test_active_row_ids_match_the_general_expression(tmp_path, monkeypatch):
    """filter_control names the active rows as tuple(dict.fromkeys(unmet
    ids + the active rows' ids)) names them, on every call of the
    benchmark's filter_multirow seed 1 and of one corpus_adversarial
    episode per cell, whose sampled rows repeat their constraint's id."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import bench_workloads

    multirow = bench_workloads.FilterMultirow(1, str(tmp_path))
    calls = [(constraints, multirow.model, state, u_des, None) for constraints, state, u_des in multirow.inputs]
    record = harness.filter_control

    def recording(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(harness, "filter_control", recording)
    for cfg in bench_workloads.CorpusAdversarial(1, str(tmp_path), 1).configs:
        harness.run_episode(harness.ScenarioConfig.from_dict(cfg))
    pairs = {True: 0, False: 0}
    for constraints, model, state, u_des, dt in calls:
        result = filter_control(constraints, model, state, u_des, dt)
        qp = assemble_qp(constraints, model, state, u_des, dt)
        _, active, status = solve_qp(qp)
        if status == PASSTHROUGH and not qp.unmet_ids:
            want = ()
        else:
            want = tuple(dict.fromkeys(qp.unmet_ids + tuple(qp.row_ids[i] for i in active)))
        assert result.active_row_ids == want, (state.xs, u_des.us, dt)
        if len(active) == 2 and not qp.unmet_ids:
            pairs[qp.row_ids[active[0]] == qp.row_ids[active[1]]] += 1
    assert len(calls) == 10000 and pairs[True] > 0 and pairs[False] > 300, pairs
