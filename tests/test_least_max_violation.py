"""The batched least-max-violation fallback against the earlier enumerator.

On problems where one candidate alone attains the least maximum violation,
solve_qp must return the reference's point bit for bit, with the same status
and active rows. Where distinct candidates tie, the new rule picks the point
of their hull nearest u_des: the maximum violation must equal the
reference's and the distance to u_des must be no larger. Independently of
the reference, the fallback's maximum violation must not exceed the least
one found on a grid over the box.
"""

import math

import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_2D_CIRCLE,
    INFEASIBLE_FALLBACK,
    SPEED_LIMIT,
    BarrierConstraint,
    ControlInput,
    PlantModel,
    PlantState,
    QpProblem,
    asif,
    assemble_qp,
    eval_h,
    solve_qp,
)
from tests import oracles


def _reference_least_max_violation(qp):
    """The earlier enumerator behind the new one's interface: the point and
    its row violations, computed as the earlier call sites did."""
    u = oracles.least_max_violation(qp, qp.rows_a, qp.rows_b, qp.box[:, 0], qp.box[:, 1])
    return u, qp.rows_b - qp.rows_a @ u


def random_problem(rng, d):
    """Rows drawn to include zero rows, rows along one axis, parallel rows
    and rounded coefficients, so both exact ties and near ties occur."""
    m = int(rng.integers(1, 6))
    rows_a = rng.normal(size=(m, d))
    for i in range(m):
        kind = rng.random()
        if kind < 0.1:
            rows_a[i] = 0.0
        elif kind < 0.25 and d == 2:
            rows_a[i, int(rng.integers(2))] = 0.0
        elif kind < 0.4 and i > 0:
            rows_a[i] = rows_a[int(rng.integers(i))] * rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0])
    rows_b = rng.normal(scale=1.5, size=m)
    if rng.random() < 0.2:
        rows_a = np.round(rows_a, 1)
        rows_b = np.round(rows_b, 1)
    return QpProblem(
        rng.uniform(-1.5, 1.5, size=d), rows_a, rows_b, tuple(f"r{i}" for i in range(m)), np.array([[-1.0, 1.0]] * d)
    )


def multirow_fallback_problems(rng, count):
    """Fallback problems of the filter on three overlapping circle geofences
    and a speed limit: safe states near a circle's boundary, full-magnitude
    commands in random directions."""
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1.0, 1.0], [-1.0, 1.0]])
    problems = []
    while len(problems) < count:
        circles = [
            BarrierConstraint(
                f"circle{i}",
                GEOFENCE_2D_CIRCLE,
                {"center": tuple(rng.uniform(-0.25, 0.25, 2)), "radius": float(rng.uniform(0.5, 0.8)), "u_max": 1.0},
                gamma=float(rng.choice([0.5, 1.0, 2.0])),
            )
            for i in range(3)
        ]
        constraints = circles + [BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 0.8}, gamma=1.0)]
        for _ in range(200):
            x = np.concatenate([rng.uniform(-0.8, 0.8, 2), rng.uniform(-0.8, 0.8, 2)])
            dists = [math.hypot(x[0] - c.params["center"][0], x[1] - c.params["center"][1]) for c in circles]
            if min(dists) < 0.05 or any(r > c.params["radius"] for r, c in zip(dists, circles)):
                continue
            if math.hypot(x[2], x[3]) > 0.8:
                continue
            state = PlantState(x)
            hs = [eval_h(c, state) for c in constraints]
            if min(hs) < 0.0 or min(hs[:3]) >= 0.1:
                continue
            angle = rng.uniform(0.0, 2.0 * math.pi)
            u_des = ControlInput(np.clip(1.5 * np.array([math.cos(angle), math.sin(angle)]), -1.0, 1.0), model.control_bounds)
            qp = assemble_qp(constraints, model, state, u_des)
            if solve_qp(qp)[2] == INFEASIBLE_FALLBACK:
                problems.append(qp)
    return problems[:count]


def box_grid(box, points):
    """Per-axis grid of the box, one point per column."""
    axes = [np.linspace(lo, hi, points) for lo, hi in box]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _tied(qp):
    """Whether distinct reference candidates share the least maximum violation."""
    candidates = oracles.least_max_violation_candidates(qp.rows_a, qp.rows_b, qp.box[:, 0], qp.box[:, 1])
    phi = [float(np.max(qp.rows_b - qp.rows_a @ u)) for u in candidates]
    return len({tuple(u.tolist()) for u, p in zip(candidates, phi) if p == min(phi)}) > 1


def _distance(u, qp):
    return asif.command_deviation(u.tolist(), qp.u_des.tolist())


def compare(problems, monkeypatch):
    """Check every problem against the reference. Returns the number of
    fallbacks and of problems on which the tie rule moved the point."""
    with monkeypatch.context() as patch:
        patch.setattr(asif, "_least_max_violation", _reference_least_max_violation)
        reference = [(solve_qp(qp), _reference_least_max_violation(qp)[0]) for qp in problems]
    grids = {1: box_grid([[-1.0, 1.0]], 2001), 2: box_grid([[-1.0, 1.0]] * 2, 101)}
    fallbacks = moved = 0
    for qp, ((ref_u, ref_active, ref_status), ref_point) in zip(problems, reference):
        u, active, status = solve_qp(qp)
        point, worst = asif._least_max_violation(qp)
        assert worst.tobytes() == (qp.rows_b - qp.rows_a @ point).tobytes()
        fallbacks += status == INFEASIBLE_FALLBACK
        if point.tobytes() != ref_point.tobytes():
            moved += 1
            assert _tied(qp), (qp, point, ref_point)
            assert float(np.max(worst)) == float(np.max(qp.rows_b - qp.rows_a @ ref_point))
            assert _distance(point, qp) <= _distance(ref_point, qp)
        if status != INFEASIBLE_FALLBACK or point.tobytes() == ref_point.tobytes():
            assert (u.tobytes(), active, status) == (ref_u.tobytes(), ref_active, ref_status)
        assert qp.box.tolist() == [[-1.0, 1.0]] * qp.control_dim
        grid_least = np.min(np.max(qp.rows_b[:, None] - qp.rows_a @ grids[qp.control_dim], axis=0))
        assert float(np.max(worst)) <= float(grid_least) + 1e-9
    return fallbacks, moved


def test_matches_reference_on_filter_fallbacks(monkeypatch):
    problems = multirow_fallback_problems(np.random.default_rng(31), 200)
    fallbacks, moved = compare(problems, monkeypatch)
    assert fallbacks == 200 and moved == 0


@pytest.mark.parametrize("d", [1, 2])
def test_matches_reference_on_random_problems(d, monkeypatch):
    rng = np.random.default_rng(40 + d)
    fallbacks, moved = compare([random_problem(rng, d) for _ in range(5000)], monkeypatch)
    # the draws reach the fallback often, and the tie rule often moves the point
    assert fallbacks > 1000 and moved > 100
