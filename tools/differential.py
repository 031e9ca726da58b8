"""Differential run of this tree against a git revision.

    python tools/differential.py --against REF [--sets NAME,...]
                                 [--size K] [--random N]

Extracts ``git archive REF`` into a temporary directory, then digests the
same inputs with this tree's asifkit and with REF's, each in its own
subprocess, and prints one JSON line per set: how many items are equal, how
many differ, the largest difference of a command entry between the two
over the items whose commands have the same shape (null when none has), how
many items' commands differ in shape (an episode that aborted at another
step, a solve that raised on one side), and on each side, this tree's
first, how many solves ended in infeasible_fallback (a solve per item, or
an episode's steps), which shows whether an identity claim covers the
fallback. The inputs are built by this tree's benchmark workloads and
tests, so both sides see the same ones.

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
  plant              step_rk4, sample_disturbance and desired_control by
                     repr (an error by its type and message) on
                     tests.test_dynamics.plant_cases(default_rng(0), N):
                     N cases for each function on both state sizes, with
                     disturbances as lists, arrays or ints, wrong lengths,
                     NaN and inf entries, norms just above the bound,
                     commands outside the box, states that overflow, one
                     or three draws of a seeded disturbance_stream, and
                     adversarial, PD and NN controllers

The solve sets, random_1d to nonfinite, digest an error that solve_qp
raises by its type and message, with no command.

--size K shrinks each workload to K items per seed (its benchmark size
argument); --random N sets the number of random problems per axis count,
of barrier cases per constraint kind and of plant cases per function. The exit status is 0 whether or
not the trees differ.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {
    "corpus_adversarial": (1, 2, 3),
    "filter_multirow": (1, 2, 3),
    "nn_nominal_batch": (1,),
    "trace_roundtrip": (1,),
}
FALLBACK = "infeasible_fallback"
SETS = (
    "scenarios",
    "corpus_adversarial",
    "filter_multirow",
    "nn_nominal_batch",
    "trace_roundtrip",
    "trace_errors",
    "random_1d",
    "random_2d",
    "margin_2d",
    "degenerate_2d",
    "near_vertex_2d",
    "nonfinite",
    "barrier",
    "plant",
)
MARGINS = (0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
NEAR = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)
NONFINITE = (float("nan"), float("inf"), float("-inf"), 1e200, -1e200, 1e300)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ worker


# Each digest function returns one (digest, command entries, fallback
# count) item per input.


def _trace_item(trace, digest):
    return digest, trace.u_out.ravel().tolist(), trace.status_names().count(FALLBACK)


def _scenarios(workdir, size, random_count):
    from asifkit import harness

    items = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        trace = harness.run_episode(harness.load_scenario(path))
        out = os.path.join(workdir, path.stem + ".csv")
        harness.write_trace(trace, out)
        with open(out, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        text = "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines)
        items.append(_trace_item(trace, _digest(text)))
    return items


def _corpus_adversarial(workdir, size, random_count):
    import bench_workloads
    from asifkit import harness

    items = []
    for seed in SEEDS["corpus_adversarial"]:
        for cfg in bench_workloads.CorpusAdversarial(seed, workdir, size).configs:
            trace = harness.run_episode(harness.ScenarioConfig.from_dict(cfg))
            items.append(_trace_item(trace, bench_workloads._trace_digest(trace)))
    return items


def _filter_multirow(workdir, size, random_count):
    import bench_workloads
    from asifkit import asif

    items = []
    for seed in SEEDS["filter_multirow"]:
        workload = bench_workloads.FilterMultirow(seed, workdir, size)
        for constraints, state, u_des in workload.inputs:
            result = asif.filter_control(constraints, workload.model, state, u_des)
            u = result.u_out.u
            digest = _digest(result.status, u.tobytes(), result.active_row_ids, result.deviation)
            items.append((digest, u.tolist(), int(result.status == FALLBACK)))
    return items


def _nn_nominal_batch(workdir, size, random_count):
    import bench_workloads
    from asifkit import cli, harness

    items = []
    for seed in SEEDS["nn_nominal_batch"]:
        workload = bench_workloads.NnNominalBatch(seed, workdir, size)
        for argv, out_path, cfg, seed_base in workload.jobs:
            cli.dispatch(argv)
            with open(out_path, "r", encoding="utf-8") as fh:
                episodes = json.load(fh)["per_episode"]
            for episode in episodes:
                if episode["metrics"]:
                    episode["metrics"].pop("max_solve_time")
            traces = [
                harness.run_episode(harness.ScenarioConfig.from_dict(dict(cfg, seed=seed_base + i)))
                for i in range(workload.episodes)
            ]
            digest = _digest(episodes, *map(bench_workloads._trace_digest, traces))
            u = [v for trace in traces for v in trace.u_out.ravel().tolist()]
            items.append((digest, u, sum(trace.status_names().count(FALLBACK) for trace in traces)))
    return items


READ_BACK_FIELDS = ("t", "states", "u_des", "u_out", "h", "intervened", "status", "deviation", "final_state")


def _read_back_parts(back, fields=READ_BACK_FIELDS) -> list:
    """What a trace read back holds, for a digest: its config, flags and
    the named arrays by dtype, shape and bytes."""
    parts = [back.config.raw, back.config_hash, back.constraint_ids, back.final_t, back.aborted, back.abort_reason]
    for name in fields:
        value = getattr(back, name)
        parts += [name, value.dtype.str, value.shape, value.tobytes()]
    return parts


def _trace_roundtrip(workdir, size, random_count):
    import bench_workloads
    from asifkit import cli, harness

    items = []
    for seed in SEEDS["trace_roundtrip"]:
        for trace, csv_path, metrics_path in bench_workloads.TraceRoundtrip(seed, workdir, size).items:
            harness.write_trace(trace, csv_path)
            back = harness.read_trace(csv_path)
            if cli.dispatch(["metrics", "--trace", csv_path, "--out", metrics_path]) != 0:
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


def _trace_errors(workdir, size, random_count):
    import bench_workloads
    from asifkit import harness

    items = []
    for seed in SEEDS["trace_roundtrip"]:
        for trace, csv_path, _metrics_path in bench_workloads.TraceRoundtrip(seed, workdir, size).items:
            harness.write_trace(trace, csv_path)
            with open(csv_path, "r", encoding="utf-8") as fh:
                texts = edited_traces(fh.read().splitlines())
            for name, text in texts.items():
                with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                try:
                    back = harness.read_trace(csv_path)
                except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
                    items.append((_digest(name, type(exc).__name__, str(exc), getattr(exc, "line", None)), [], 0))
                else:
                    items.append(_trace_item(back, _digest(name, *_read_back_parts(back, (*READ_BACK_FIELDS, "solve_time")))))
    return items


def _solve_items(problems):
    """solve_qp's status, command bits and active rows for each problem, or
    the error it raised by type and message."""
    import numpy as np

    from asifkit import AsifKitError, solve_qp

    items = []
    for qp in problems:
        try:
            u, active, status = solve_qp(qp)
        except AsifKitError as exc:
            items.append((_digest(type(exc).__name__, str(exc)), [], 0))
        else:
            items.append((_digest(status, np.array(u, dtype=float).tobytes(), active), list(u), int(status == FALLBACK)))
    return items


def _random(d):
    def digest_set(workdir, size, random_count):
        import numpy as np

        from tests.test_least_max_violation import random_problem

        return _solve_items(random_problem(np.random.default_rng(seed), d) for seed in range(random_count))

    return digest_set


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


def _margin_2d(workdir, size, random_count):
    import numpy as np

    from tests.test_least_max_violation import random_problem

    return _solve_items(
        _margin_problem(random_problem(np.random.default_rng(seed), 2), MARGINS[seed % len(MARGINS)])
        for seed in range(random_count)
    )


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


def _degenerate_2d(workdir, size, random_count):
    import numpy as np

    from tests.test_least_max_violation import random_problem

    problems = []
    for seed in range(random_count):
        rng = np.random.default_rng(seed)
        problems.append(_degenerate_problem(random_problem(rng, 2), rng, seed % 2 == 1))
    return _solve_items(problems)


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


def _near_vertex_2d(workdir, size, random_count):
    import numpy as np

    from tests.test_least_max_violation import random_problem

    problems = []
    for seed in range(random_count):
        rng = np.random.default_rng(seed)
        problems.append(_near_vertex_problem(random_problem(rng, 2), rng, NEAR[seed % len(NEAR)]))
    return _solve_items(problems)


def _nonfinite_problem(qp, rng, value):
    """qp with one row entry, drawn by rng, replaced by value."""
    rows = list(qp.rows)
    i = int(rng.integers(len(rows)))
    row = list(rows[i])
    row[int(rng.integers(len(row)))] = value
    rows[i] = tuple(row)
    return qp._replace(rows=tuple(rows))


def _nonfinite(workdir, size, random_count):
    import numpy as np

    from tests.test_least_max_violation import random_problem

    problems = []
    for d in (1, 2):
        for seed in range(random_count):
            rng = np.random.default_rng(seed)
            qp = random_problem(rng, d)
            problems.append(_nonfinite_problem(qp, rng, NONFINITE[seed % len(NONFINITE)]))
    return _solve_items(problems)


def _barrier(workdir, size, random_count):
    import numpy as np

    from asifkit import ControlInput, assemble_qp
    from tests.test_barrier import barrier_cases, barrier_outcomes

    def assembled(constraint, model, state, dt):
        try:
            return repr(assemble_qp([constraint], model, state, ControlInput._trusted((0.0,) * model.control_dim), dt))
        except Exception as exc:
            return type(exc).__name__, str(exc)

    return [
        (_digest(*barrier_outcomes(*case), assembled(*case)), [], 0)
        for case in barrier_cases(np.random.default_rng(0), random_count)
    ]


def _plant(workdir, size, random_count):
    import numpy as np

    from tests.test_dynamics import plant_cases, plant_outcome

    return [(_digest(plant_outcome(*case)), [], 0) for case in plant_cases(np.random.default_rng(0), random_count)]


DIGESTS = {
    "scenarios": _scenarios,
    "corpus_adversarial": _corpus_adversarial,
    "filter_multirow": _filter_multirow,
    "nn_nominal_batch": _nn_nominal_batch,
    "trace_roundtrip": _trace_roundtrip,
    "trace_errors": _trace_errors,
    "random_1d": _random(1),
    "random_2d": _random(2),
    "margin_2d": _margin_2d,
    "degenerate_2d": _degenerate_2d,
    "near_vertex_2d": _near_vertex_2d,
    "nonfinite": _nonfinite,
    "barrier": _barrier,
    "plant": _plant,
}


def work(tree: Path, sets, size, random_count) -> None:
    """Digest the sets with the asifkit under tree; print them as JSON."""
    sys.path[:0] = [str(tree / "src"), str(ROOT), str(ROOT / "bench")]
    import asifkit

    if Path(asifkit.__file__).resolve().parent != (tree / "src" / "asifkit").resolve():
        raise SystemExit(f"differential: asifkit imported from {asifkit.__file__}, not from {tree}")
    with tempfile.TemporaryDirectory(prefix="differential-") as workdir:
        out = {name: DIGESTS[name](workdir, size, random_count) for name in sets}
    json.dump(out, sys.stdout)


# ------------------------------------------------------------------ driver


def extract(ref: str, dest: Path) -> None:
    """Write the tree of the git revision ref into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


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


def run(ref: str, sets, size, random_count) -> list[dict]:
    args = ["--sets", ",".join(sets), "--random", str(random_count)] + ([] if size is None else ["--size", str(size)])
    with tempfile.TemporaryDirectory(prefix="differential-ref-") as tmp:
        ref_tree = Path(tmp)
        extract(ref, ref_tree)
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)  # each worker puts its own tree first
        procs = [
            subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), *args],
                stdout=subprocess.PIPE,
                env=env,
                cwd=tmp,
            )
            for tree in (ROOT, ref_tree)
        ]
        outputs = [proc.communicate()[0] for proc in procs]
    for proc in procs:
        if proc.returncode:
            raise SystemExit(f"differential: a digest process exited with {proc.returncode}")
    ours, theirs = (json.loads(out) for out in outputs)
    return [{"set": name, **compare(ours[name], theirs[name])} for name in sets]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="git revision to compare this tree with")
    parser.add_argument("--sets", default=",".join(SETS), help="comma-separated sets (default: all)")
    parser.add_argument("--size", type=int, default=None, help="items per seed of each workload set")
    parser.add_argument("--random", type=int, default=20000, help="random problems per axis count, barrier cases per kind and plant cases per function")
    parser.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sets = [name for name in args.sets.split(",") if name]
    unknown = sorted(set(sets) - set(SETS))
    if unknown:
        parser.error(f"unknown sets {unknown}; choose from {list(SETS)}")
    if args.worker:
        work(Path(args.worker), sets, args.size, args.random)
        return 0
    if not args.against:
        parser.error("--against REF is required")
    for line in run(args.against, sets, args.size, args.random):
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
