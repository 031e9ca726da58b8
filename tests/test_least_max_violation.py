"""The least-max-violation fallback against the earlier enumerator.

On problems where one candidate alone attains the least maximum violation
within the solver's feasibility tolerance, solve_qp must return the
reference's point bit for bit, with the same status and active rows. Where
distinct candidates tie within that tolerance, the filter takes the point of
their face nearest u_des (a phase-II solve): the maximum violation must be
within the tolerance of the reference's and the distance to u_des no larger
than the reference's plus the tolerance. Independently of the reference, the
fallback's maximum violation must not exceed the least one found on a grid
over the box. A perturbation of b in its last bits must not move a fallback
command.
"""

import hashlib
import math
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    INFEASIBLE_FALLBACK,
    MODIFIED,
    PASSTHROUGH,
    SPEED_LIMIT,
    BarrierConstraint,
    ControlInput,
    PlantModel,
    PlantState,
    QpProblem,
    asif,
    assemble_qp,
    barrier,
    cbf_row,
    dynamics,
    eval_grad_h,
    eval_h,
    filter_rows,
    solve_qp,
)
from tests import oracles
from tests.conftest import Unreachable


def _reference_least_max_violation(qp, feas_tol=None):
    """The earlier enumerator behind the new one's interface: the point and
    its row violations, priced by the scalar sum. It breaks exact ties among
    its candidates and takes no tolerance, so feas_tol is unused."""
    rows_a, rows_b, lo, hi = oracles.qp_arrays(qp)
    u = oracles.least_max_violation(qp, rows_a, rows_b, lo, hi)
    return u, oracles.row_violations(rows_a, rows_b, u)


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
        tuple(rng.uniform(-1.5, 1.5, size=d).tolist()),
        tuple((*a, b) for a, b in zip(rows_a.tolist(), rows_b.tolist())),
        tuple(f"r{i}" for i in range(m)),
        ((-1.0, 1.0),) * d,
    )


def multirow_cases(rng):
    """Filter inputs (constraints, model, state, u_des) without end, on three
    overlapping circle geofences and a speed limit: safe states near a
    circle's boundary, full-magnitude commands in random directions."""
    model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1.0, 1.0], [-1.0, 1.0]])
    while True:
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
            yield constraints, model, state, u_des


def multirow_fallback_problems(rng, count):
    """The first count fallback problems of the filter on multirow_cases."""
    problems = (assemble_qp(*case) for case in multirow_cases(rng))
    return list(islice((qp for qp in problems if solve_qp(qp)[2] == INFEASIBLE_FALLBACK), count))


def box_grid(box, points):
    """Per-axis grid of the box, one point per column."""
    axes = [np.linspace(lo, hi, points) for lo, hi in box]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _tied(qp, feas_tol):
    """Whether distinct reference candidates lie within feas_tol of the least
    maximum violation."""
    rows_a, rows_b, lo, hi = oracles.qp_arrays(qp)
    candidates = oracles.least_max_violation_candidates(rows_a, rows_b, lo, hi)
    phi = [max(oracles.row_violations(rows_a, rows_b, u)) for u in candidates]
    return len({tuple(u.tolist()) for u, p in zip(candidates, phi) if p <= min(phi) + feas_tol}) > 1


def _distance(u, qp):
    return asif.command_deviation(u.tolist(), qp.u_des)


def compare(problems, monkeypatch):
    """Check every problem against the reference. Returns the number of
    fallbacks and of problems on which the tie rule moved the point."""
    with monkeypatch.context() as patch:
        patch.setattr(asif, "_least_max_violation", _reference_least_max_violation)
        reference = [(solve_qp(qp), _reference_least_max_violation(qp)[0]) for qp in problems]
    grids = {1: box_grid([[-1.0, 1.0]], 2001), 2: box_grid([[-1.0, 1.0]] * 2, 101)}
    fallbacks = moved = 0
    for qp, ((ref_u, ref_active, ref_status), ref_point) in zip(problems, reference):
        rows_a, rows_b, _, _ = oracles.qp_arrays(qp)
        u, active, status = solve_qp(qp)
        feas_tol = asif._feas_tol(qp)
        point, worst = asif._least_max_violation(qp, feas_tol)
        point = np.array(point)
        assert np.array(worst).tobytes() == np.array(oracles.row_violations(rows_a, rows_b, point)).tobytes()
        fallbacks += status == INFEASIBLE_FALLBACK
        if point.tobytes() != ref_point.tobytes():
            moved += 1
            assert _tied(qp, feas_tol), (qp, point, ref_point)
            assert max(worst) <= max(oracles.row_violations(rows_a, rows_b, ref_point)) + feas_tol
            assert _distance(point, qp) <= _distance(ref_point, qp) + feas_tol
        if status != INFEASIBLE_FALLBACK or point.tobytes() == ref_point.tobytes():
            assert (np.asarray(u).tobytes(), active, status) == (np.asarray(ref_u).tobytes(), ref_active, ref_status)
        assert np.asarray(qp.box).tolist() == [[-1.0, 1.0]] * qp.control_dim
        grid_least = np.min(np.max(rows_b[:, None] - rows_a @ grids[qp.control_dim], axis=0))
        assert float(np.max(worst)) <= float(grid_least) + 1e-9
    return fallbacks, moved


def test_matches_reference_on_filter_fallbacks(monkeypatch):
    problems = multirow_fallback_problems(np.random.default_rng(31), 200)
    fallbacks, moved = compare(problems, monkeypatch)
    assert fallbacks == 200 and moved == 0


def test_matches_reference_on_an_exactly_singular_crossing(monkeypatch):
    """Rows r, 3r, 9r and -r: a crossing system of two of their equal-value
    lines passes the determinant test by rounding yet is exactly singular.
    The reference skips it, as the filter does. The four parallel rows leave
    a segment of least-max-violation points, so the filter moves from the
    reference's candidate (0.515, 1.0) to the segment's point nearest u_des,
    about (-0.0034, 0.0018)."""
    r0, r1 = -2.3653039062769743, 1.228683719203421
    rows_a = [(r0, r1), (3.0 * r0, 3.0 * r1), (9.0 * r0, 9.0 * r1), (-r0, -r1)]
    rows_b = [0.33962000824864264, 0.42377135285334727, 0.37122741773625884, 0.3827571602707609]
    rows = tuple((*a, b) for a, b in zip(rows_a, rows_b))
    qp = QpProblem((0.0, 0.0), rows, ("r0", "r1", "r2", "r3"), ((-1.0, 1.0),) * 2)
    assert compare([qp], monkeypatch) == (1, 1)
    u, _, status = solve_qp(qp)
    assert status == INFEASIBLE_FALLBACK
    assert np.allclose(u, (-0.0034, 0.0018), rtol=0.0, atol=1e-4), u


@pytest.mark.parametrize("d", [1, 2])
def test_matches_reference_on_random_problems(d, monkeypatch):
    rng = np.random.default_rng(40 + d)
    fallbacks, moved = compare([random_problem(rng, d) for _ in range(5000)], monkeypatch)
    # the draws reach the fallback often, and the tie rule often moves the point
    assert fallbacks > 1000 and moved > 100


@pytest.mark.parametrize("d", [1, 2])
def test_fallback_is_stable_under_last_bit_changes_of_b(d):
    """Scaling each b by a factor within 4e-16 of 1 (a few ulps) moves no
    fallback command by more than 1e-9, though many of these problems have
    a segment or a face of least-max-violation points. Breaking ties only
    between candidates equal to the last bit moved 60 one-axis and 476
    two-axis commands here."""
    fallbacks = 0
    moved = []
    for seed in range(20000):
        rng = np.random.default_rng(seed)
        qp = random_problem(rng, d)
        u, _, status = solve_qp(qp)
        if status != INFEASIBLE_FALLBACK:
            continue
        fallbacks += 1
        factors = (1.0 + rng.uniform(-4e-16, 4e-16, len(qp.rows))).tolist()
        rows = tuple((*row[:-1], row[-1] * f) for row, f in zip(qp.rows, factors))
        u_perturbed = solve_qp(qp._replace(rows=rows))[0]
        if max(abs(v - w) for v, w in zip(u, u_perturbed)) > 1e-9:
            moved.append(seed)
    assert fallbacks == {1: 13634, 2: 11580}[d]
    assert moved == []


# The sha256 over solve_qp's results in order (status, each command entry's
# float.hex(), active indices), and the passthrough, modified and fallback
# counts, which show that fallbacks are covered. The solve computes on
# Python floats in a fixed order, so the bits are the same on every machine;
# a change that moves any result, a fallback's included, must re-pin it on
# purpose.
SOLVER_RESULTS = {
    "random_1d": ("f919283944c73d75559024eb622d507752964f72fe7aed4b0f6d9ba94ce073bf", (612, 985, 3403)),
    "random_2d": ("77f71a13e7c6c6161cdcef515cf5ed76c503261872031229fc1b334a2422d006", (411, 1634, 2955)),
    "multirow": ("2e7ab73df737435fbdb9172420dbda216e7d7a205c2220201f46aed42d54e965", (779, 834, 387)),
}


@pytest.mark.parametrize("name", sorted(SOLVER_RESULTS))
def test_solver_results_are_pinned(name):
    """Every bit of the command, the active rows and the status of solve_qp
    on random_problem seeds 0-4999 per axis count and on 2000 multirow_cases
    filter problems. compare() lets a tied fallback move; this does not."""
    if name == "multirow":
        problems = (assemble_qp(*case) for case in islice(multirow_cases(np.random.default_rng(5)), 2000))
    else:
        d = int(name[-2])
        problems = (random_problem(np.random.default_rng(seed), d) for seed in range(5000))
    digest = hashlib.sha256()
    statuses = Counter()
    for qp in problems:
        u, active, status = solve_qp(qp)
        digest.update(repr((status, [v.hex() for v in u], active)).encode())
        statuses[status] += 1
    counts = tuple(statuses[status] for status in (PASSTHROUGH, MODIFIED, INFEASIBLE_FALLBACK))
    assert (digest.hexdigest(), counts) == SOLVER_RESULTS[name]


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_solve_computes_without_numpy(monkeypatch):
    """A problem from assemble_qp holds only tuples, strings and Python
    floats, and solve_qp computes on them with numpy out of reach, on every
    status."""
    rng = np.random.default_rng(50)
    filter_problems = multirow_fallback_problems(np.random.default_rng(31), 50)
    for qp in filter_problems:
        assert {type(leaf) for leaf in _leaves(qp)} <= {str, float}, qp
    problems = filter_problems + [random_problem(rng, d) for d in (1, 2) for _ in range(500)]
    statuses = Counter()
    with monkeypatch.context() as patch:
        patch.setattr(asif, "np", Unreachable())
        for qp in problems:
            statuses[solve_qp(qp)[2]] += 1
    assert set(statuses) == {PASSTHROUGH, MODIFIED, INFEASIBLE_FALLBACK}, statuses


def test_rows_assemble_without_numpy(monkeypatch):
    """cbf_row, filter_rows and eval_grad_h return tuples of Python floats,
    and assemble_qp builds the problem with the period from them with numpy
    out of reach in asif, barrier and dynamics: on 1-D fence states, the
    vacuous and the unmeetable zero row among them, and on the multirow 2-D
    states."""
    model_1d = PlantModel(DOUBLE_INTEGRATOR_1D, [[-1.0, 1.0]])
    fence = BarrierConstraint("fence", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0})
    rng = np.random.default_rng(60)
    fence_states = [rng.uniform(-2.0, 2.0, 2) for _ in range(300)] + [[0.0, 0.0], [2.0, 0.0]]
    cases = [
        ([fence], model_1d, PlantState(x), ControlInput(rng.uniform(-1.0, 1.0, 1), model_1d.control_bounds))
        for x in fence_states
    ]
    cases += list(islice(multirow_cases(np.random.default_rng(31)), 300))
    unmet = 0
    with monkeypatch.context() as patch:
        for module in (asif, barrier, dynamics):
            patch.setattr(module, "np", Unreachable())
        for constraints, model, state, u_des in cases:
            qp = assemble_qp(constraints, model, state, u_des, dt=0.01)
            assert {type(leaf) for leaf in _leaves(qp)} <= {str, float}, qp
            unmet += len(qp.unmet_ids)
            for constraint in constraints:
                row, sampled = filter_rows(constraint, model, state, 0.01)
                outputs = [cbf_row(constraint, model, state), eval_grad_h(constraint, state), row]
                for out in outputs + ([] if sampled is None else [sampled]):
                    assert type(out) is tuple and {type(leaf) for leaf in _leaves(out)} == {float}, out
    assert unmet == 1
