import numpy as np
import pytest

from asifkit import (
    INFEASIBLE_FALLBACK,
    MODIFIED,
    PASSTHROUGH,
    ControlInput,
    PlantState,
    QpProblem,
    StructurallyInfeasible,
    assemble_qp,
    cbf_row,
    check_kkt,
    filter_control,
    solve_qp,
)


from tests.oracles import grid_oracle


def make_qp(u_des, rows_a, rows_b, box):
    m = len(rows_b)
    d = len(u_des)
    return QpProblem(
        u_des=np.asarray(u_des, float),
        rows_a=np.asarray(rows_a, float).reshape(m, d),
        rows_b=np.asarray(rows_b, float),
        row_ids=tuple(f"r{i}" for i in range(m)),
        box=np.asarray(box, float).reshape(d, 2),
    )


# ---- assemble_qp ----


def test_assemble_empty_constraints(model_1d):
    u = ControlInput([0.4], model_1d.control_bounds)
    qp = assemble_qp([], model_1d, PlantState([0.0, 0.0]), u)
    assert qp.rows_a.shape == (0, 1)
    u_star, active, status = solve_qp(qp)
    assert status == PASSTHROUGH and np.array_equal(u_star, [0.4]) and active == ()


def test_assemble_composes_hand_row(fence, model_1d):
    u = ControlInput([1.0], model_1d.control_bounds)
    qp = assemble_qp([fence], model_1d, PlantState([0.0, 1.0]), u)
    assert np.allclose(qp.rows_a, [[-1.0]])
    assert qp.rows_b[0] == pytest.approx(0.5, abs=1e-15)
    assert qp.row_ids == ("fence",)
    assert np.array_equal(qp.box, [[-1.0, 1.0]])


def test_assemble_drops_vacuous_row(fence, model_1d):
    u = ControlInput([1.0], model_1d.control_bounds)
    qp = assemble_qp([fence], model_1d, PlantState([0.0, 0.0]), u)  # a=0, b=-1
    assert qp.rows_a.shape[0] == 0


def test_assemble_raises_structural(fence, model_1d):
    # v = 0 and h < 0: no command has any effect yet the row demands b > 0
    u = ControlInput([0.0], model_1d.control_bounds)
    with pytest.raises(StructurallyInfeasible) as err:
        assemble_qp([fence], model_1d, PlantState([2.0, 0.0]), u)
    assert err.value.constraint_id == "fence"


def _stacked_cbf_rows(constraints, model, state):
    rows = [cbf_row(c, model, state) for c in constraints]
    return [(a.tobytes(), b) for a, b in rows if a.any()]


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
            assert [(a.tobytes(), b) for a, b in zip(plain.rows_a, plain.rows_b.tolist())] == continuous
            assert plain.unmet_ids == ()
            sampled = assemble_qp(constraints, model, state, u, dt=0.01)
            sampled_rows = [(a.tobytes(), b) for a, b in zip(sampled.rows_a, sampled.rows_b.tolist())]
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
    assert status == MODIFIED and u_star.tolist() == [0.0, 0.2] and active == (1,)
    for rows_a in ([[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]):
        rows_b = [0.3, 0.0] if rows_a[0] == [0.0, 0.0] else [0.0, 0.3]
        u_star, active, status = solve_qp(make_qp([0.5, 0.2], rows_a, rows_b, box2))
        assert status == INFEASIBLE_FALLBACK and np.all(np.abs(u_star) <= 1.0)


def test_fallback_ties_take_the_nearest_least_max_violation_point():
    """When a whole face of the box attains the least maximum violation, the
    fallback is the point of that face nearest u_des, not the nearest of the
    enumerated corners and crossings."""
    box2 = [[-1.0, 1.0]] * 2
    # max violation max(0.3, u0) is least on u0 <= 0.3
    u_star, active, status = solve_qp(make_qp([0.5, 0.2], [[0.0, 0.0], [-1.0, 0.0]], [0.3, 0.0], box2))
    assert status == INFEASIBLE_FALLBACK and u_star.tolist() == [0.3, 0.2] and active == (0, 1)
    # max violation 2 - u0 is least on the face u0 = 1
    u_star, active, status = solve_qp(make_qp([0.5, 0.2], [[1.0, 0.0]], [2.0], box2))
    assert status == INFEASIBLE_FALLBACK and u_star.tolist() == [1.0, 0.2] and active == (0,)
    # one axis: u_des clamped into the tied interval [-1, 0.3]
    u_star, active, status = solve_qp(make_qp([0.0], [[0.0], [-1.0]], [0.3, 0.0], [[-1.0, 1.0]]))
    assert status == INFEASIBLE_FALLBACK and u_star.tolist() == [0.0] and active == (0,)


def test_clamped_slack_ties_decided_by_matrix_product():
    """A row that numpy's product puts exactly on the boundary at the clamped
    command is met and active, although the scalar slack may round to either
    side of zero."""
    rng = np.random.default_rng(23)
    for _ in range(500):
        rows_a = rng.normal(size=(2, 2))
        u_des = rng.uniform(-1.3, 1.3, 2)
        c = np.clip(u_des, -1.0, 1.0)
        rows_b = rows_a @ c - np.array([0.0, 1.0])  # row 0 on the boundary, row 1 slack
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
        oracle_dev, oracle_feasible = grid_oracle(qp)
        if oracle_feasible != (status != INFEASIBLE_FALLBACK):
            oracle_dev, oracle_feasible = grid_oracle(qp, precise=True)
        if status == INFEASIBLE_FALLBACK:
            assert not oracle_feasible
            assert np.all(u_star >= qp.box[:, 0]) and np.all(u_star <= qp.box[:, 1])
            continue
        assert oracle_feasible
        dev = float(np.linalg.norm(u_star - qp.u_des))
        assert dev <= oracle_dev + pitch * np.sqrt(d)
        if qp.rows_a.shape[0]:
            assert float(np.min(qp.rows_a @ u_star - qp.rows_b)) >= -1e-9
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
        if not a.any():
            if b > 0.0:
                continue  # structurally infeasible state, no QP to check
        elif float(a @ u_val) < b:
            continue  # not a safe pair
        res = filter_control([fence], model_1d, state, ControlInput(u_val, model_1d.control_bounds))
        assert res.u_out.u.tobytes() == u_val.tobytes()
        assert not res.intervened
        checked += 1
