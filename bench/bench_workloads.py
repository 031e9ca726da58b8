"""The benchmark's workloads.

Each workload builds a fixed input set from its seed when constructed (the
set-up), runs one pass over that set in ``run_pass`` (the timed part), and
verifies the pass's outputs in ``check`` (outside the timed part). A run
repeats whole passes, so every pass does identical work: deterministic
outcomes and traced counts are per pass and must repeat exactly.

The program is always reached through the module attribute its own callers
look up (``harness.run_episode``, ``asif.filter_control``, ``cli.dispatch``),
so the span wrappers of bench_trace apply when a traced run installs them.
See NOTES.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from asifkit import asif, cli, harness
from asifkit.asif import INFEASIBLE_FALLBACK, MODIFIED, PASSTHROUGH, assemble_qp, check_kkt
from asifkit.barrier import GEOFENCE_2D_CIRCLE, SPEED_LIMIT, BarrierConstraint, cbf_row, eval_h
from asifkit.dynamics import DOUBLE_INTEGRATOR_2D, ControlInput, PlantModel, PlantState

STATUS_NAMES = (PASSTHROUGH, MODIFIED, INFEASIBLE_FALLBACK, harness.UNFILTERED)

# A modified command may sit outside a row by the solver's own feasibility
# tolerance (1e-11 scaled) plus the final clip into the box.
ROW_TOL = 1e-9
KKT_TOL = 1e-8
# mean_deviation and max_deviation are recomputed by read_trace from the
# stored commands, not stored, so they may differ from the filter's own
# values in the last bits; mismatches within this many ulps are counted and
# reported, larger ones fail the check.
DEVIATION_ULPS = 4


@dataclass
class Checked:
    """What ``check`` learned about one pass."""

    unit_ops: list  # work items per operation: steps, filter calls or trace rows
    failed: int  # operations that raised or failed a check
    digests: list  # one per operation; timings excluded
    summary: dict = field(default_factory=dict)  # deterministic outcomes
    solve_times: list = field(default_factory=list)  # the program's own filter timer, s


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _empty_summary() -> dict:
    return {
        "steps": 0,
        "status_counts": dict.fromkeys(STATUS_NAMES, 0),
        "rows_per_step": {},
        "violation_steps": 0,
        "worst_h": math.inf,
        "aborted_episodes": 0,
    }


def _add_trace(summary: dict, trace) -> None:
    summary["steps"] += trace.n_steps
    for code, n in enumerate(np.bincount(trace.status, minlength=4)):
        summary["status_counts"][STATUS_NAMES[code]] += int(n)
    rows = str(len(trace.constraint_ids))
    summary["rows_per_step"][rows] = summary["rows_per_step"].get(rows, 0) + trace.n_steps
    if trace.n_steps:
        summary["violation_steps"] += int(np.sum(np.any(trace.h < 0.0, axis=1)))
        summary["worst_h"] = min(summary["worst_h"], float(np.min(trace.h)))
    summary["aborted_episodes"] += int(trace.aborted)


def _trace_digest(trace) -> str:
    return _digest(
        trace.t.tobytes(),
        trace.states.tobytes(),
        trace.u_des.tobytes(),
        trace.u_out.tobytes(),
        trace.h.tobytes(),
        trace.intervened.tobytes(),
        trace.status.tobytes(),
        trace.deviation.tobytes(),
        trace.aborted,
        trace.abort_reason,
    )


def _rows_hold(constraints, model, state, u) -> bool:
    for constraint in constraints:
        a, b = cbf_row(constraint, model, state)
        if float(a @ u) < b - ROW_TOL * (1.0 + abs(b) + float(np.abs(a).sum())):
            return False
    return True


def trace_errors(trace) -> list[str]:
    """Step checks on a closed-loop trace: every applied command lies in the
    box, pass-through steps apply u_des bitwise, and modified steps satisfy
    every row recomputed with cbf_row at the recorded state."""
    model = trace.config.model
    constraints = trace.config.constraints
    errors = []
    lo = model.control_bounds[:, 0]
    hi = model.control_bounds[:, 1]
    if not (np.all(trace.u_out >= lo) and np.all(trace.u_out <= hi)):
        errors.append("u_out outside the box")
    passthrough = trace.status == STATUS_NAMES.index(PASSTHROUGH)
    if trace.u_out[passthrough].tobytes() != trace.u_des[passthrough].tobytes():
        errors.append("passthrough step changed u_des")
    for k in np.nonzero(trace.status == STATUS_NAMES.index(MODIFIED))[0]:
        if not _rows_hold(constraints, model, PlantState(trace.states[k], float(trace.t[k])), trace.u_out[k]):
            errors.append(f"modified step {k} violates a row")
            break
    return errors


# ---------------------------------------------------------------- scenarios


def _model(kind, bounds, disturbance):
    return {"kind": kind, "control_bounds": bounds, "disturbance_bound": disturbance}


def scenario_1d(gamma, seed, x0, disturbance, controller=None, duration=5.0):
    return {
        "model": _model("double_integrator_1d", [[-1.0, 1.0]], disturbance),
        "controller": controller or {"kind": "adversarial", "target_constraint_id": "fence"},
        "constraints": [
            {
                "id": "fence",
                "kind": "geofence_1d",
                "params": {"p_limit": 1.0, "u_max": 1.0},
                "gamma": gamma,
                "hazard_id": "H1",
            }
        ],
        "dt": 0.01,
        "duration": duration,
        "initial_state": [float(v) for v in x0],
        "seed": int(seed),
        "mode_schedule": [{"time": 0.0, "rta_enabled": True}],
    }


def scenario_2d(gamma, seed, x0, disturbance):
    """The gate's circle geofence with its speed-limit co-constraint."""
    return {
        "model": _model("double_integrator_2d", [[-1.0, 1.0], [-1.0, 1.0]], disturbance),
        "controller": {"kind": "adversarial", "target_constraint_id": "circle"},
        "constraints": [
            {
                "id": "circle",
                "kind": "geofence_2d_circle",
                "params": {"center": [0.0, 0.0], "radius": 1.0, "u_max": 1.0},
                "gamma": gamma,
                "hazard_id": "H2",
            },
            {"id": "speed", "kind": "speed_limit", "params": {"v_max": 0.5}, "gamma": 1.0, "hazard_id": "H3"},
        ],
        "dt": 0.01,
        "duration": 5.0,
        "initial_state": [float(v) for v in x0],
        "seed": int(seed),
        "mode_schedule": [{"time": 0.0, "rta_enabled": True}],
    }


def safe_start_1d(rng, h_min=0.05):
    """The gate's sampler: fence barrier value at least h_min."""
    while True:
        p = rng.uniform(-1.5, 1.0)
        v = rng.uniform(-1.5, 1.5)
        if 1.0 - p - v * abs(v) / 2.0 >= h_min:
            return np.array([p, v])


def safe_start_2d(rng, h_min=0.05, v_max=0.5):
    """The gate's sampler: safe for both the circle and the speed limit."""
    while True:
        pos = rng.uniform(-1.0, 1.0, size=2)
        vel = rng.uniform(-v_max, v_max, size=2)
        d = float(np.hypot(pos[0], pos[1]))
        if d < 0.05:
            continue
        v_r = float(pos @ vel) / d
        h_circle = 1.0 - d - max(0.0, v_r) ** 2 / 2.0
        h_speed = v_max**2 - float(vel @ vel)
        if h_circle >= h_min and h_speed >= h_min:
            return np.concatenate([pos, vel])


def _adversarial_episode(rng, plant, gamma, disturbance):
    episode_seed = int(rng.integers(2**31))
    if plant == "1d":
        return scenario_1d(gamma, episode_seed, safe_start_1d(rng), disturbance)
    return scenario_2d(gamma, episode_seed, safe_start_2d(rng), disturbance)


def _timed(begin_op, fn, latencies, outcomes):
    begin_op()
    start = time.perf_counter_ns()
    try:
        out = fn()
    except Exception as exc:  # a raising operation is a failed one, not a crashed run
        out = exc
    latencies.append(time.perf_counter_ns() - start)
    outcomes.append(out)


# ---------------------------------------------------------------- workloads


class CorpusAdversarial:
    """The acceptance gate's criterion-2 cell grid: both plants, three gains,
    with and without disturbance, adversarial controller, 500-step episodes
    from seeded safe starts, built as the gate builds them."""

    name = "corpus_adversarial"
    default_size = 4  # episodes per cell and pass

    def __init__(self, seed, workdir, size=None):
        per_cell = size or self.default_size
        rng = np.random.default_rng(seed)
        self.configs = [
            _adversarial_episode(rng, plant, gamma, disturbance)
            for plant in ("1d", "2d")
            for gamma in (0.5, 1.0, 2.0)
            for disturbance in (0.0, 0.05)
            for _ in range(per_cell)
        ]

    def run_pass(self, begin_op):
        latencies, outcomes = [], []
        for cfg in self.configs:
            _timed(begin_op, lambda: harness.run_episode(harness.ScenarioConfig.from_dict(cfg)), latencies, outcomes)
        return latencies, outcomes

    def check(self, outcomes, first):
        checked = Checked(unit_ops=[], failed=0, digests=[], summary=_empty_summary())
        for trace in outcomes:
            if isinstance(trace, Exception):
                checked.failed += 1
                checked.digests.append(repr(trace))
                checked.unit_ops.append(0)
                continue
            checked.unit_ops.append(trace.n_steps)
            checked.digests.append(_trace_digest(trace))
            _add_trace(checked.summary, trace)
            checked.solve_times.extend(trace.solve_time.tolist())
            if first and trace_errors(trace):
                checked.failed += 1
        return checked


def fit_tracking_mlp(rng, p_set, hidden=32, kp=2.0, kd=2.0, samples=4000):
    """A tanh MLP (2 -> hidden -> hidden -> 1) that tracks the set-point p_set
    with a saturated PD law. Hidden layers are seeded random features; the
    linear output layer is fitted by least squares."""
    x = np.column_stack([rng.uniform(-1.5, 1.0, samples), rng.uniform(-1.2, 1.2, samples)])
    target = np.clip(-kp * (x[:, 0] - p_set) - kd * x[:, 1], -1.0, 1.0)
    w1 = rng.normal(0.0, 1.0, (hidden, 2))
    b1 = rng.normal(0.0, 0.5, hidden)
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, hidden))
    b2 = rng.normal(0.0, 0.2, hidden)
    features = np.tanh(np.tanh(x @ w1.T + b1) @ w2.T + b2)
    coef, *_ = np.linalg.lstsq(np.column_stack([features, np.ones(samples)]), target, rcond=None)
    return {
        "layer_sizes": [2, hidden, hidden, 1],
        "weights": [w1.tolist(), w2.tolist(), [coef[:-1].tolist()]],
        "biases": [b1.tolist(), b2.tolist(), [float(coef[-1])]],
        "activations": ["tanh", "tanh", "linear"],
    }


class NnNominalBatch:
    """``asifkit batch`` through cli.dispatch on a disturbed 1-D fence. Each
    batch call has its own generated tanh-MLP controller tracking a seeded
    set-point short of the fence, so the pass averages over set-points."""

    name = "nn_nominal_batch"
    default_size = 20  # batch calls per pass
    episodes = 2  # per batch call
    duration = 2.0  # seconds of 0.01 s steps

    def __init__(self, seed, workdir, size=None):
        rng = np.random.default_rng(seed)
        self.jobs = []
        for i in range(size or self.default_size):
            weights_path = os.path.join(workdir, f"nn_weights_{i}.json")
            with open(weights_path, "w", encoding="utf-8") as fh:
                json.dump(fit_tracking_mlp(rng, p_set=float(rng.uniform(0.75, 0.9))), fh)
            controller = {"kind": "nn", "path": weights_path}
            x0 = (rng.uniform(-1.0, 0.5), rng.uniform(-0.5, 0.5))
            seed_base = int(rng.integers(2**31 - 1000))
            cfg = scenario_1d(1.0, seed_base, x0, 0.05, controller=controller, duration=self.duration)
            cfg_path = os.path.join(workdir, f"nn_scenario_{i}.json")
            out_path = os.path.join(workdir, f"nn_batch_{i}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            argv = ["batch", "--config", cfg_path, "--episodes", str(self.episodes),
                    "--seed-base", str(seed_base), "--out", out_path]
            self.jobs.append((argv, out_path, cfg, seed_base))
        self._reference = None

    def run_pass(self, begin_op):
        latencies, outcomes = [], []
        for argv, *_ in self.jobs:
            _timed(begin_op, lambda: cli.dispatch(argv), latencies, outcomes)
        return latencies, outcomes

    def _reference_run(self):
        """Every episode of the pass re-run directly with run_episode."""
        summary = _empty_summary()
        per_job, job_steps, errors, solve_times = [], [], 0, []
        for _argv, _out, cfg, seed_base in self.jobs:
            expected = []
            job_steps.append(0)
            for i in range(self.episodes):
                trace = harness.run_episode(harness.ScenarioConfig.from_dict(dict(cfg, seed=seed_base + i)))
                job_steps[-1] += trace.n_steps
                _add_trace(summary, trace)
                solve_times.extend(trace.solve_time.tolist())
                errors += bool(trace_errors(trace))
                metrics = harness.compute_metrics(trace).to_dict()
                metrics.pop("max_solve_time")
                expected.append((trace.aborted, metrics))
            per_job.append(expected)
        return summary, per_job, job_steps, errors, solve_times

    def check(self, outcomes, first):
        if self._reference is None:
            self._reference = self._reference_run()
        summary, per_job, job_steps, reference_errors, solve_times = self._reference
        checked = Checked(unit_ops=job_steps, failed=0, digests=[])
        if first:
            checked.summary = summary
            checked.solve_times = solve_times
            checked.failed += reference_errors
        for rc, (_argv, out_path, _cfg, _sb), expected in zip(outcomes, self.jobs, per_job):
            if rc != 0:
                checked.failed += 1
                checked.digests.append(repr(rc))
                continue
            with open(out_path, "r", encoding="utf-8") as fh:
                result = json.load(fh)
            got = []
            for episode in result["per_episode"]:
                metrics = dict(episode["metrics"])
                metrics.pop("max_solve_time")
                got.append((episode["aborted"], metrics))
            checked.digests.append(_digest(got))
            if got != expected:
                checked.failed += 1
        return checked


def multirow_constraints(rng):
    """Three overlapping circle geofences and a speed limit on the planar
    double integrator: four rows per call."""
    constraints = [
        BarrierConstraint(
            f"circle{i}",
            GEOFENCE_2D_CIRCLE,
            {
                "center": tuple(rng.uniform(-0.25, 0.25, size=2)),
                "radius": float(rng.uniform(0.5, 0.8)),
                "u_max": 1.0,
            },
            gamma=float(rng.choice([0.5, 1.0, 2.0])),
        )
        for i in range(3)
    ]
    constraints.append(BarrierConstraint("speed", SPEED_LIMIT, {"v_max": 0.8}, gamma=1.0))
    return constraints


class FilterMultirow:
    """Direct filter_control calls on seeded states that are safe for every
    constraint and lie near the intersection's boundary (some circle has
    h < 0.1), with full-magnitude commands in random directions. The calls
    are spread over several seeded geometries, because the share of
    infeasible fallbacks depends strongly on the geometry."""

    name = "filter_multirow"
    default_size = 4000  # calls per pass
    geometries = 50
    near_boundary = 0.1

    def __init__(self, seed, workdir, size=None):
        rng = np.random.default_rng(seed)
        self.model = PlantModel(DOUBLE_INTEGRATOR_2D, [[-1.0, 1.0], [-1.0, 1.0]])
        calls = size or self.default_size
        self.inputs = []
        self.worst_h = math.inf
        for g in range(self.geometries):
            constraints = multirow_constraints(rng)
            self.inputs += self._sample(rng, constraints, calls * (g + 1) // self.geometries - len(self.inputs))

    def _sample(self, rng, constraints, n):
        circles = constraints[:3]
        inputs = []
        tries = 0
        while len(inputs) < n:
            tries += 1
            if tries > 1_000_000:
                raise RuntimeError("could not sample enough safe states near the boundary")
            x = np.concatenate([rng.uniform(-1.2, 1.2, 2), rng.uniform(-0.8, 0.8, 2)])
            dists = [math.hypot(x[0] - c.params["center"][0], x[1] - c.params["center"][1]) for c in circles]
            # a circle's h is at most radius - dist, and h < 0 past the speed
            # limit: skip states eval_h would reject before calling it
            if min(dists) < 0.05 or any(d > c.params["radius"] for d, c in zip(dists, circles)):
                continue
            if math.hypot(x[2], x[3]) > constraints[3].params["v_max"]:
                continue
            state = PlantState(x)
            hs = [eval_h(c, state) for c in constraints]
            if min(hs) < 0.0 or min(hs[:3]) >= self.near_boundary:
                continue
            self.worst_h = min(self.worst_h, min(hs))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            u = np.clip(1.5 * np.array([math.cos(angle), math.sin(angle)]), -1.0, 1.0)
            inputs.append((constraints, state, ControlInput(u, self.model.control_bounds)))
        return inputs

    def run_pass(self, begin_op):
        latencies, outcomes = [], []
        model = self.model
        for constraints, state, u_des in self.inputs:
            _timed(begin_op, lambda: asif.filter_control(constraints, model, state, u_des), latencies, outcomes)
        return latencies, outcomes

    def _errors(self, constraints, state, u_des, result) -> bool:
        u = result.u_out.u
        box = self.model.control_bounds
        if not (np.all(u >= box[:, 0]) and np.all(u <= box[:, 1])):
            return True
        if result.status == PASSTHROUGH:
            return u.tobytes() != u_des.u.tobytes() or result.intervened or result.deviation != 0.0
        if not result.intervened:
            return True
        if result.status == MODIFIED:
            if not _rows_hold(constraints, self.model, state, u):
                return True
            residuals = check_kkt(assemble_qp(constraints, self.model, state, u_des), u)
            return max(residuals.values()) > KKT_TOL
        return result.status != INFEASIBLE_FALLBACK

    def check(self, outcomes, first):
        checked = Checked(unit_ops=[1] * len(outcomes), failed=0, digests=[], summary=_empty_summary())
        summary = checked.summary
        for (constraints, state, u_des), result in zip(self.inputs, outcomes):
            if isinstance(result, Exception):
                checked.failed += 1
                checked.digests.append(repr(result))
                continue
            checked.digests.append(
                _digest(result.status, result.u_out.u.tobytes(), result.active_row_ids, result.deviation)
            )
            summary["status_counts"][result.status] += 1
            checked.solve_times.append(result.solve_time)
            if first and self._errors(constraints, state, u_des, result):
                checked.failed += 1
        summary["steps"] = len(self.inputs)
        summary["rows_per_step"] = {"4": len(self.inputs)}
        summary["worst_h"] = self.worst_h
        return checked


def _same_float(a: float, b: float, ulps: int) -> bool:
    return a == b or abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b)))


class TraceRoundtrip:
    """Episodes simulated during set-up; the timed part writes each trace
    with write_trace and reads it back through ``asifkit metrics``."""

    name = "trace_roundtrip"
    default_size = 16  # traces per pass

    def __init__(self, seed, workdir, size=None):
        rng = np.random.default_rng(seed)
        self.items = []
        self.summary = _empty_summary()
        for i in range(size or self.default_size):
            gamma = float(rng.choice([0.5, 1.0, 2.0]))
            cfg = _adversarial_episode(rng, ("1d", "2d")[i % 2], gamma, 0.05 * (i // 2 % 2))
            trace = harness.run_episode(harness.ScenarioConfig.from_dict(cfg))
            _add_trace(self.summary, trace)
            csv_path = os.path.join(workdir, f"trace_{i}.csv")
            metrics_path = os.path.join(workdir, f"trace_{i}.metrics.json")
            self.items.append((trace, csv_path, metrics_path))

    def run_pass(self, begin_op):
        latencies, outcomes = [], []
        for trace, csv_path, metrics_path in self.items:
            def roundtrip():
                harness.write_trace(trace, csv_path)
                return cli.dispatch(["metrics", "--trace", csv_path, "--out", metrics_path])

            _timed(begin_op, roundtrip, latencies, outcomes)
        return latencies, outcomes

    @staticmethod
    def _errors(trace, csv_path, metrics) -> tuple[bool, int]:
        """(failed, deviation metrics that differ within DEVIATION_ULPS)."""
        back = harness.read_trace(csv_path)
        for name in ("t", "states", "u_des", "u_out", "h", "intervened", "status", "solve_time"):
            if getattr(back, name).tobytes() != getattr(trace, name).tobytes():
                return True, 0
        if (back.config_hash, back.aborted, back.abort_reason) != (trace.config_hash, trace.aborted, trace.abort_reason):
            return True, 0
        expected = harness.compute_metrics(trace).to_dict()
        if set(metrics) != set(expected):
            return True, 0
        ulp_mismatches = 0
        for key, want in expected.items():
            if metrics[key] == want:
                continue
            if key in ("mean_deviation", "max_deviation") and _same_float(metrics[key], want, DEVIATION_ULPS):
                ulp_mismatches += 1
            else:
                return True, ulp_mismatches
        return False, ulp_mismatches

    def check(self, outcomes, first):
        checked = Checked(unit_ops=[trace.n_steps for trace, *_ in self.items], failed=0, digests=[])
        ulp_mismatches = 0
        for (trace, csv_path, metrics_path), rc in zip(self.items, outcomes):
            if rc != 0:
                checked.failed += 1
                checked.digests.append(repr(rc))
                continue
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            with open(metrics_path, "r", encoding="utf-8") as fh:
                metrics = json.load(fh)
            checked.digests.append(_digest(csv_bytes, sorted(metrics.items())))
            if first:
                failed, mismatches = self._errors(trace, csv_path, metrics)
                checked.failed += failed
                ulp_mismatches += mismatches
        if first:
            checked.summary = dict(self.summary, deviation_ulp_mismatches=ulp_mismatches)
        return checked


WORKLOADS = {w.name: w for w in (CorpusAdversarial, NnNominalBatch, FilterMultirow, TraceRoundtrip)}
