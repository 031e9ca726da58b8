"""Differential run of this tree against a git revision.

    python tools/differential.py --against REF [--sets NAME,...]
                                 [--size K] [--random N]

Imports the asifkit of ``git archive REF`` as asifkit_ref beside this
tree's, in one process (load_revision). Each set's inputs are built once, by
this tree's benchmark workloads and tests. Each side builds its own objects
from their plain fields with its own constructors (the builders, where a
public signature that differs between the trees is adapted), digests them,
catches their errors by its own package's classes and writes its files in
its own directory. One JSON line is printed per set: how many items are
equal, how many differ, the largest difference of a command entry between
the two over the items whose commands have the same shape (null when none
has), how many items' commands differ in shape (an episode that aborted at
another step, a solve that raised on one side), and on each side, this
tree's first, how many solves ended in infeasible_fallback (a solve per
item, or an episode's steps), which shows whether an identity claim covers
the fallback.

Sets:
  scenarios          the shipped scenarios/*.json traces as written by
                     write_trace, solve_time dropped
  corpus_adversarial the benchmark workload's episodes, seeds 1-3
  filter_multirow    status, command, active rows and deviation of every
                     benchmark filter_control call, seeds 1-3
  nn_nominal_batch   each batch call's metrics (solve time dropped) and its
                     episodes' traces, seed 1
  trace_roundtrip    read_trace(write_trace(trace)) of the benchmark
                     workload's traces, seed 1: every EpisodeTrace field
                     but solve_time, and `asifkit metrics`'s JSON on the
                     file, max_solve_time dropped
  trace_errors       read_trace of the benchmark workload's traces, seed
                     1, each with its solve_time cells set to 0.0 and then
                     changed by one of TRACE_EDITS: a row short or long, a
                     bad, padded or special float cell, a bad flag or
                     status, a disagreement (also in two rows, the first
                     of which must be named), a comment or blank line
                     between rows, an abort note after them, CRLF line
                     ends, no rows, a wrong hash, a missing or reordered
                     column; the error's type, message and line, or the
                     trace read
  random_1d          solve_qp on random_problem(default_rng(s), 1), s < N
  random_2d          the same on two axes
  margin_2d          solve_qp on random_problem(default_rng(s), 2), s < N,
                     with one row with authority moved to miss the box by
                     k * feas_tol * (1 + |a0| + |a1|), k cycling through
                     MARGINS, around the box check's 2
  degenerate_2d      solve_qp on random_problem(default_rng(s), 2), s < N,
                     with one more row inserted at a drawn place: for even
                     s a copy of a drawn row, for odd s a row with a drawn
                     normal through the float vertex of two drawn rows (a
                     copy where there is one row or they are parallel), so
                     that stage 2's vertices tie on (dist^2, v0, v1)
  near_vertex_2d     solve_qp on random_problem(default_rng(s), 2), s < N,
                     with one more row inserted at a drawn place: a drawn
                     normal (a0, a1) whose row is violated by
                     k * feas_tol * (1 + |a0| + |a1|) at the float vertex
                     of two drawn rows (of two drawn rows or box faces
                     where no two rows cross), k cycling through NEAR, so
                     that the row falls on both sides of the pair step's
                     clearance
  nonfinite          solve_qp on random_problem(default_rng(s), d), s < N,
                     on one axis and then on two, with one row entry, drawn
                     by the same generator, replaced by NONFINITE[s % 6]
  barrier            eval_h, eval_grad_h and cbf_row by repr (an error by
                     its type), and filter_rows at the case's period dt
                     and assemble_qp of the one constraint at dt with a
                     zero command by repr (an error by its type and
                     message), on
                     tests.test_barrier.barrier_cases(default_rng(0), N):
                     N cases for each of a 1-D fence, a circle and a speed
                     limit on each state size, with signed zeros, tiny,
                     huge and non-finite state entries
  plant              step_rk4, one or three draws of a seeded
                     disturbance_stream and desired_control by repr (an
                     error by its type and message) on
                     tests.test_dynamics.plant_cases(default_rng(0), N):
                     N cases for each on both state sizes, with
                     disturbances as lists, arrays or ints, wrong lengths,
                     NaN and inf entries, norms just above the bound,
                     commands outside the box, states that overflow, and
                     adversarial, PD and NN controllers

The solve sets, random_1d to nonfinite, digest an error that solve_qp
raises by its type and message, with no command.

--size K shrinks each workload to K items per seed (its benchmark size
argument); --random N sets the number of random problems per axis count,
of barrier cases per constraint kind and of plant cases per function. Both
must be at least 1. The exit status is 0 whether or not the trees differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {
    "corpus_adversarial": (1, 2, 3),
    "filter_multirow": (1, 2, 3),
    "nn_nominal_batch": (1,),
    "trace_roundtrip": (1,),
}
FALLBACK = "infeasible_fallback"
MARGINS = (0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
NEAR = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)
NONFINITE = (float("nan"), float("inf"), float("-inf"), 1e200, -1e200, 1e300)


def load_tree(src: Path, name: str):
    """Import the asifkit package under src as the top-level package name,
    in place of any package loaded under that name before."""
    for key in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, src / "asifkit" / "__init__.py", submodule_search_locations=[str(src / "asifkit")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_revision(ref: str, dest: Path):
    """The asifkit of the git revision ref, its tree written into dest,
    imported as asifkit_ref."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return load_tree(Path(dest) / "src", "asifkit_ref")


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- builders
# Each builds one input's objects in package from the plain fields of this
# tree's objects. shared maps an object's id to what it was built into, so
# that objects shared between inputs stay shared.


def _once(shared: dict, obj, build):
    if id(obj) not in shared:
        shared[id(obj)] = build()
    return shared[id(obj)]


def scenario(package, cfg: dict):
    return package.ScenarioConfig.from_dict(cfg)


def qp_problem(package, qp):
    return package.QpProblem(**qp._asdict())


def _constraint(package, c):
    return package.BarrierConstraint(c.id, c.kind, dict(c.params), c.gamma, c.hazard_id)


def _model(package, model, shared: dict):
    return _once(
        shared, model, lambda: package.PlantModel(model.kind, np.array(model.control_bounds), model.disturbance_bound)
    )


def rebuild(package, calls) -> list[tuple]:
    """Filter calls (constraints, model, state, u_des, dt) with every
    argument rebuilt by package's public constructors; constraint lists and
    models shared between calls stay shared."""
    shared = {}
    return [
        (
            _once(shared, constraints, lambda: [_constraint(package, c) for c in constraints]),
            _model(package, model, shared),
            package.PlantState(np.array(state.xs), state.t),
            package.ControlInput(np.array(u_des.us), model.control_bounds),
            dt,
        )
        for constraints, model, state, u_des, dt in calls
    ]


def barrier_case(package, case, shared: dict) -> tuple:
    """A barrier case (constraint, model, state, dt) in package; the state,
    whose entries may be special, is built without the public checks."""
    constraint, model, state, dt = case
    state = package.PlantState._trusted(state.xs, state.t)
    return _constraint(package, constraint), _model(package, model, shared), state, dt


def plant_case(package, case, shared: dict) -> tuple:
    """A plant case (function, args) as package's call: step_rk4 and
    desired_control by name, with states and commands built without the
    public checks, and a draw case (model, seed, n) as n draws from
    package's disturbance_stream(model, seed, n)."""
    function, args = case
    if function.__name__ == "step_rk4":
        model, state, u, w, dt = args
        state = package.PlantState._trusted(state.xs, state.t)
        return package.step_rk4, (_model(package, model, shared), state, package.ControlInput._trusted(u.us), w, dt)
    if function.__name__ == "desired_control":
        controller, state, model = args
        model = _model(package, model, shared)
        kind = type(controller).__name__
        if kind == "AdversarialController":
            target = _constraint(package, controller.constraint)
            controller = package.AdversarialController(target.id).bind(target)
        elif kind == "PdController":
            controller = package.PdController(controller.kp, controller.kd)
        else:
            spec = controller.spec
            controller = package.NnController(package.MlpSpec(spec.layer_sizes, spec.weights, spec.biases, spec.activations))
        return package.desired_control, (controller, package.PlantState._trusted(state.xs, state.t), model)
    model, seed, n = args
    model = _model(package, model, shared)
    stream = package.disturbance_stream(model, seed, n)
    return (lambda: tuple(package.sample_disturbance(model, stream) for _ in range(n))), ()


# ------------------------------------------------------------------- sets
# Each set is (inputs, digest): inputs(workdir, size, random_count) builds
# the inputs with this tree's code, and digest(package, inputs, workdir)
# returns one (digest, command entries, fallback count) item per input,
# writing its files in workdir.


def _trace_item(trace, digest):
    return digest, trace.u_out.ravel().tolist(), trace.status_names().count(FALLBACK)


def _scenario_configs(workdir, size, random_count):
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    return [(path.stem, json.loads(path.read_text(encoding="utf-8"))) for path in paths]


def _scenarios(package, inputs, workdir):
    harness = package.harness
    items = []
    for stem, cfg in inputs:
        trace = harness.run_episode(scenario(package, cfg))
        out = workdir / (stem + ".csv")
        harness.write_trace(trace, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        text = "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines)
        items.append(_trace_item(trace, _digest(text)))
    return items


def _corpus_configs(workdir, size, random_count):
    import bench_workloads

    seeds = SEEDS["corpus_adversarial"]
    return [cfg for seed in seeds for cfg in bench_workloads.CorpusAdversarial(seed, workdir, size).configs]


def _episodes(package, configs, workdir):
    import bench_workloads

    traces = (package.harness.run_episode(scenario(package, cfg)) for cfg in configs)
    return [_trace_item(trace, bench_workloads._trace_digest(trace)) for trace in traces]


def _filter_calls(workdir, size, random_count):
    import bench_workloads

    calls = []
    for seed in SEEDS["filter_multirow"]:
        workload = bench_workloads.FilterMultirow(seed, workdir, size)
        calls += [(constraints, workload.model, state, u_des, None) for constraints, state, u_des in workload.inputs]
    return calls


def _filtered(package, calls, workdir):
    items = []
    for args in rebuild(package, calls):
        result = package.filter_control(*args)
        u = result.u_out.u
        digest = _digest(result.status, u.tobytes(), result.active_row_ids, result.deviation)
        items.append((digest, u.tolist(), int(result.status == FALLBACK)))
    return items


def _batch_jobs(workdir, size, random_count):
    import bench_workloads

    return [job for seed in SEEDS["nn_nominal_batch"] for job in bench_workloads.NnNominalBatch(seed, workdir, size).jobs]


def _batches(package, jobs, workdir):
    import bench_workloads

    dispatch = importlib.import_module(package.__name__ + ".cli").dispatch
    items = []
    for argv, out_path, cfg, seed_base in jobs:
        out = str(workdir / Path(out_path).name)
        dispatch([out if arg == out_path else arg for arg in argv])
        with open(out, "r", encoding="utf-8") as fh:
            episodes = json.load(fh)["per_episode"]
        for episode in episodes:
            if episode["metrics"]:
                episode["metrics"].pop("max_solve_time")
        configs = [dict(cfg, seed=seed_base + i) for i in range(bench_workloads.NnNominalBatch.episodes)]
        traces = [package.harness.run_episode(scenario(package, c)) for c in configs]
        digest = _digest(episodes, *map(bench_workloads._trace_digest, traces))
        u = [v for trace in traces for v in trace.u_out.ravel().tolist()]
        items.append((digest, u, sum(trace.status_names().count(FALLBACK) for trace in traces)))
    return items


def _trace_configs(workdir, size, random_count):
    import bench_workloads

    items = [item for seed in SEEDS["trace_roundtrip"] for item in bench_workloads.TraceRoundtrip(seed, workdir, size).items]
    return [trace.config.raw for trace, _csv, _metrics in items]


def _written(package, configs, workdir):
    """Each config's episode run and written by package, as its csv path."""
    harness = package.harness
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(str(workdir / f"trace_{i}.csv"))
        harness.write_trace(harness.run_episode(scenario(package, cfg)), paths[-1])
    return paths


READ_BACK_FIELDS = ("t", "states", "u_des", "u_out", "h", "intervened", "status", "deviation", "final_state")


def _read_back_parts(back, fields=READ_BACK_FIELDS) -> list:
    """What a trace read back holds, for a digest: its config, flags and
    the named arrays by dtype, shape and bytes."""
    parts = [back.config.raw, back.config_hash, back.constraint_ids, back.final_t, back.aborted, back.abort_reason]
    for name in fields:
        value = getattr(back, name)
        parts += [name, value.dtype.str, value.shape, value.tobytes()]
    return parts


def _round_trips(package, configs, workdir):
    dispatch = importlib.import_module(package.__name__ + ".cli").dispatch
    items = []
    for csv_path in _written(package, configs, workdir):
        back = package.harness.read_trace(csv_path)
        metrics_path = csv_path + ".metrics.json"
        if dispatch(["metrics", "--trace", csv_path, "--out", metrics_path]) != 0:
            raise SystemExit(f"differential: asifkit metrics failed on {csv_path}")
        with open(metrics_path, "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        metrics.pop("max_solve_time")
        items.append(_trace_item(back, _digest(metrics, *_read_back_parts(back))))
    return items


def _cell(row: int, col: int, value):
    """An edit setting data row row's cell col to value, or to value(cell)
    where value is callable."""
    def edit(head, rows):
        cells = rows[row].split(",")
        cells[col] = value(cells[col]) if callable(value) else value
        rows[row] = ",".join(cells)

    return edit


def _short(row: int):
    """An edit dropping the last cell of data row row."""
    def edit(head, rows):
        rows[row] = rows[row].rsplit(",", 1)[0]

    return edit


def _insert(row: int, line: str):
    """An edit inserting line before data row row, or after the last row
    where row is None."""
    def edit(head, rows):
        rows.insert(len(rows) if row is None else row, line)

    return edit


def _header(old: str, new: str):
    def edit(head, rows):
        head[-1] = head[-1].replace(old, new)

    return edit


def _flip_flag(row: int):
    return _cell(row, -3, lambda cell: "0" if cell == "1" else "1")


def _long(head, rows):
    rows[5] += ",0.0"


def _no_rows(head, rows):
    rows.clear()


def _wrong_hash(head, rows):
    head[0] = "# config_hash: " + "0" * 64  # write_trace's first line


# the edits of each trace_errors variant, applied in order to a trace
# file's lines, (preamble and header, data rows), in place; a negative
# column counts from the row's end (-3 intervened, -2 status, -1
# solve_time)
TRACE_EDITS = {
    "short_row": [_short(5)],
    "long_row": [_long],
    "bad_float": [_cell(5, 1, "x")],
    "empty_float": [_cell(5, 0, "")],
    "padded_float": [_cell(5, 1, lambda cell: f" {cell}\t")],
    "nan_float": [_cell(5, 1, "nan")],
    "inf_command": [_cell(5, -4, "-inf")],
    "underscore_float": [_cell(5, 2, "1_000")],
    "bad_solve_time": [_cell(5, -1, "fast")],
    "bad_flag": [_cell(5, -3, "2")],
    "float_flag": [_cell(5, -3, "1.0")],
    "unknown_status": [_cell(5, -2, "paused")],
    "padded_status": [_cell(5, -2, lambda cell: f" {cell}")],
    "disagreement": [_flip_flag(5)],
    "disagreement_then_short_row": [_flip_flag(3), _short(8)],
    "short_row_then_bad_float": [_short(3), _cell(8, 1, "x")],
    "bad_status_then_disagreement": [_cell(3, -2, "?"), _flip_flag(8)],
    "comment_between_rows": [_insert(5, "# a note")],
    "comment_and_blank_before_bad_float": [_insert(3, "# a note"), _insert(3, ""), _cell(8, 1, "x")],
    "blank_between_rows": [_insert(5, " \t ")],
    "abort_after_rows": [_insert(None, "# aborted: a late note")],
    "no_rows": [_no_rows],
    "wrong_hash": [_wrong_hash],
    "missing_column": [_header(",status", "")],
    "reordered_columns": [_header("intervened,status", "status,intervened")],
}


def edited_traces(lines: list[str]) -> dict[str, str]:
    """The text of a written trace, given as its lines, under each of
    TRACE_EDITS and with CRLF line ends, its solve_time cells, a wall
    clock's, set to 0.0 first."""
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    head = lines[:first]
    rows = [line.rsplit(",", 1)[0] + ",0.0" for line in lines[first:]]
    texts = {}
    for name, edits in TRACE_EDITS.items():
        edited_head, edited_rows = list(head), list(rows)
        for edit in edits:
            edit(edited_head, edited_rows)
        texts[name] = "\n".join(edited_head + edited_rows) + "\n"
    texts["crlf"] = "\r\n".join(head + rows) + "\r\n"
    return texts


def _edited_reads(package, configs, workdir):
    items = []
    for csv_path in _written(package, configs, workdir):
        with open(csv_path, "r", encoding="utf-8") as fh:
            texts = edited_traces(fh.read().splitlines())
        for name, text in texts.items():
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                back = package.harness.read_trace(csv_path)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
                items.append((_digest(name, type(exc).__name__, str(exc), getattr(exc, "line", None)), [], 0))
            else:
                items.append(_trace_item(back, _digest(name, *_read_back_parts(back, (*READ_BACK_FIELDS, "solve_time")))))
    return items


def _solve_items(package, problems, workdir=None):
    """solve_qp's status, command bits and active rows for each problem, or
    the error it raised by type and message."""
    items = []
    for qp in problems:
        try:
            u, active, status = package.solve_qp(qp_problem(package, qp))
        except package.AsifKitError as exc:
            items.append((_digest(type(exc).__name__, str(exc)), [], 0))
        else:
            items.append((_digest(status, np.array(u, dtype=float).tobytes(), active), list(u), int(status == FALLBACK)))
    return items


def _problems(d, change=None):
    """The inputs of a solve set: random_problem(default_rng(s), d) for
    s < N, each changed by change(qp, rng, s) where given."""
    def problems(workdir, size, random_count):
        from tests.test_least_max_violation import random_problem

        out = []
        for seed in range(random_count):
            rng = np.random.default_rng(seed)
            qp = random_problem(rng, d)
            out.append(qp if change is None else change(qp, rng, seed))
        return out

    return problems


def _margin_problem(qp, k):
    """qp with the row of largest |a0| + |a1| moved to miss the box by
    k * feas_tol * (1 + |a0| + |a1|): its b becomes the row's largest a.u
    over the box plus that margin. feas_tol follows the solver's tolerance
    contract, 1e-11 * (1 + the largest |b| or |box bound| + the sum of
    |u_des|), and depends on the new b, so b is refined three times. A
    problem whose rows have no authority is returned as it is."""
    i = max(range(len(qp.rows)), key=lambda j: abs(qp.rows[j][0]) + abs(qp.rows[j][1]))
    a0, a1, b = qp.rows[i]
    if a0 * a0 + a1 * a1 <= 1e-24:
        return qp
    norm1 = abs(a0) + abs(a1)
    (lo0, hi0), (lo1, hi1) = qp.box
    top = a0 * (hi0 if a0 > 0.0 else lo0) + a1 * (hi1 if a1 > 0.0 else lo1)
    others = [abs(row[-1]) for j, row in enumerate(qp.rows) if j != i] + [abs(v) for pair in qp.box for v in pair]
    u_sum = sum(abs(v) for v in qp.u_des)
    for _ in range(3):
        feas_tol = 1e-11 * (1.0 + max(others + [abs(b)]) + u_sum)
        b = top + k * feas_tol * (1.0 + norm1)
    rows = list(qp.rows)
    rows[i] = (a0, a1, b)
    return qp._replace(rows=tuple(rows))


def _degenerate_problem(qp, rng, through_vertex):
    """qp with one more row, drawn by rng and inserted at a drawn place: a
    copy of a row, or, when through_vertex, a row with a drawn normal through
    the vertex of that row and another, as Cramer's rule gives it in floats
    (a copy where there is one row or the two are parallel)."""
    rows = list(qp.rows)
    i = int(rng.integers(len(rows)))
    extra = rows[i]
    if through_vertex and len(rows) > 1:
        j = int(rng.integers(len(rows) - 1))
        (p0, p1, pb), (q0, q1, qb) = rows[i], rows[j + (j >= i)]
        cross = q0 * p1 - q1 * p0
        if cross != 0.0:
            v0 = (qb * p1 - pb * q1) / cross
            v1 = (q0 * pb - p0 * qb) / cross
            a0, a1 = rng.normal(size=2).tolist()
            extra = (a0, a1, a0 * v0 + a1 * v1)
    rows.insert(int(rng.integers(len(rows) + 1)), extra)
    return qp._replace(rows=tuple(rows), row_ids=tuple(f"r{k}" for k in range(len(rows))))


def _near_vertex_problem(qp, rng, k):
    """qp with one more row, drawn by rng and inserted at a drawn place: a
    drawn normal (a0, a1) and b set so that the row's violation at the
    vertex of two drawn rows, as Cramer's rule gives it in floats, is
    k * feas_tol * (1 + |a0| + |a1|). Where there is one row or the two do
    not cross, two constraints are drawn among the rows and the box faces
    until they do; feas_tol is refined three times, as in _margin_problem."""
    rows = list(qp.rows)
    (lo0, hi0), (lo1, hi1) = qp.box
    cons = rows + [(1.0, 0.0, lo0), (-1.0, -0.0, -hi0), (0.0, 1.0, lo1), (-0.0, -1.0, -hi1)]
    cross = 0.0
    if len(rows) > 1:
        i, j = rng.choice(len(rows), size=2, replace=False).tolist()
        (p0, p1, pb), (q0, q1, qb) = rows[i], rows[j]
        cross = q0 * p1 - q1 * p0
    while cross == 0.0:
        i, j = rng.choice(len(cons), size=2, replace=False).tolist()
        (p0, p1, pb), (q0, q1, qb) = cons[i], cons[j]
        cross = q0 * p1 - q1 * p0
    v0 = (qb * p1 - pb * q1) / cross
    v1 = (q0 * pb - p0 * qb) / cross
    a0, a1 = rng.normal(size=2).tolist()
    top = a0 * v0 + a1 * v1
    others = [abs(row[-1]) for row in rows] + [abs(v) for pair in qp.box for v in pair]
    u_sum = sum(abs(v) for v in qp.u_des)
    b = top
    for _ in range(3):
        feas_tol = 1e-11 * (1.0 + max(others + [abs(b)]) + u_sum)
        b = top + k * feas_tol * (1.0 + abs(a0) + abs(a1))
    rows.insert(int(rng.integers(len(rows) + 1)), (a0, a1, b))
    return qp._replace(rows=tuple(rows), row_ids=tuple(f"r{n}" for n in range(len(rows))))


def _nonfinite_problem(qp, rng, value):
    """qp with one row entry, drawn by rng, replaced by value."""
    rows = list(qp.rows)
    i = int(rng.integers(len(rows)))
    row = list(rows[i])
    row[int(rng.integers(len(row)))] = value
    rows[i] = tuple(row)
    return qp._replace(rows=tuple(rows))


def _nonfinite(workdir, size, random_count):
    def change(qp, rng, seed):
        return _nonfinite_problem(qp, rng, NONFINITE[seed % len(NONFINITE)])

    return [qp for d in (1, 2) for qp in _problems(d, change)(workdir, size, random_count)]


def _barrier_cases(workdir, size, random_count):
    from tests.test_barrier import barrier_cases

    return barrier_cases(np.random.default_rng(0), random_count)


def _barrier(package, cases, workdir):
    from tests.test_barrier import barrier_outcomes

    entry_points = (package.eval_h, package.eval_grad_h, package.cbf_row, package.filter_rows)
    shared = {}
    items = []
    for case in cases:
        constraint, model, state, dt = barrier_case(package, case, shared)
        try:
            zero = package.ControlInput._trusted((0.0,) * model.control_dim)
            assembled = repr(package.assemble_qp([constraint], model, state, zero, dt))
        except Exception as exc:
            assembled = type(exc).__name__, str(exc)
        outcomes = barrier_outcomes(constraint, model, state, dt, entry_points, package.AsifKitError)
        items.append((_digest(*outcomes, assembled), [], 0))
    return items


def _plant_cases(workdir, size, random_count):
    from tests.test_dynamics import plant_cases

    return plant_cases(np.random.default_rng(0), random_count)


def _plant(package, cases, workdir):
    from tests.test_dynamics import plant_outcome

    shared = {}
    return [(_digest(plant_outcome(*plant_case(package, case, shared))), [], 0) for case in cases]


DIGESTS = {
    "scenarios": (_scenario_configs, _scenarios),
    "corpus_adversarial": (_corpus_configs, _episodes),
    "filter_multirow": (_filter_calls, _filtered),
    "nn_nominal_batch": (_batch_jobs, _batches),
    "trace_roundtrip": (_trace_configs, _round_trips),
    "trace_errors": (_trace_configs, _edited_reads),
    "random_1d": (_problems(1), _solve_items),
    "random_2d": (_problems(2), _solve_items),
    "margin_2d": (_problems(2, lambda qp, rng, seed: _margin_problem(qp, MARGINS[seed % len(MARGINS)])), _solve_items),
    "degenerate_2d": (_problems(2, lambda qp, rng, seed: _degenerate_problem(qp, rng, seed % 2 == 1)), _solve_items),
    "near_vertex_2d": (_problems(2, lambda qp, rng, seed: _near_vertex_problem(qp, rng, NEAR[seed % len(NEAR)])), _solve_items),
    "nonfinite": (_nonfinite, _solve_items),
    "barrier": (_barrier_cases, _barrier),
    "plant": (_plant_cases, _plant),
}
SETS = tuple(DIGESTS)


def compare(ours, theirs) -> dict:
    """Counts of equal and different items, the largest command difference
    over the items whose commands have the same shape, the count of items
    whose commands differ in shape, and each side's fallback count."""
    pairs = [(u, v) for (_, u, _), (_, v, _) in zip(ours, theirs)]
    same = [(u, v) for u, v in pairs if len(u) == len(v)]
    largest = max([0.0, *(abs(x - y) for u, v in same for x, y in zip(u, v))]) if same else None
    equal = sum(a[0] == b[0] for a, b in zip(ours, theirs))
    fallbacks = [sum(item[2] for item in side) for side in (ours, theirs)]
    return {
        "equal": equal,
        "different": max(len(ours), len(theirs)) - equal,
        "max_u_diff": largest,
        "shape_mismatches": len(pairs) - len(same),
        "fallbacks": fallbacks,
    }


def digest_sets(packages, sets, size, random_count, workdir) -> list[dict]:
    """Each set's comparison line: its inputs built once in workdir, then
    digested by each of the two packages in a directory of its own."""
    workdir = Path(workdir)
    dirs = [workdir / "inputs", workdir / "side0", workdir / "side1"]
    for path in dirs:
        path.mkdir(parents=True)
    lines = []
    for name in sets:
        inputs, digest = DIGESTS[name]
        built = inputs(dirs[0], size, random_count)
        sides = [digest(package, built, path) for package, path in zip(packages, dirs[1:])]
        lines.append({"set": name, **compare(*sides)})
    return lines


def run(ref: str, sets, size, random_count) -> list[dict]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "bench")]
    import asifkit

    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        packages = (asifkit, load_revision(ref, Path(tmp) / "ref"))
        return digest_sets(packages, sets, size, random_count, Path(tmp) / "work")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", required=True, help="git revision to compare this tree with")
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated sets (default: all)")
    parser.add_argument("--size", type=int, default=None, help="items per seed of each workload set")
    parser.add_argument("--random", type=int, default=20000, help="random problems per axis count, barrier cases per kind and plant cases per function")
    args = parser.parse_args(argv)
    sets = [name for name in args.sets.split(",") if name]
    unknown = sorted(set(sets) - set(SETS))
    if unknown:
        parser.error(f"unknown sets {unknown}; choose from {list(SETS)}")
    if args.random < 1 or (args.size is not None and args.size < 1):
        parser.error("--random and --size must be at least 1")
    for line in run(args.against, sets, args.size, args.random):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
