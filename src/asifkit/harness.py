"""Closed-loop simulation: command scheduling, controller, filter, plant,
and a non-interfering recorder.

An episode advances at a fixed control period dt. Each step reads the RTA
mode from the schedule, asks the primary controller for a command, filters it
(or passes it through saturated when RTA is off), draws the disturbance, and
integrates the plant. Every step is recorded; traces serialize to CSV and
round-trip losslessly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .asif import INFEASIBLE_FALLBACK, MODIFIED, PASSTHROUGH, command_deviation, filter_control
from .barrier import (
    BarrierConstraint,
    check_bounds_consistency,
    constraint_from_config,
    eval_h,
)
from .controllers import (
    AdversarialController,
    ControllerKind,
    NnController,
    controller_from_config,
    desired_control,
)
from .dynamics import PlantModel, PlantState, sample_disturbance, step_rk4
from .errors import (
    EmptyTrace,
    InvalidConfig,
    NonFiniteCommand,
    ParseError,
    SingularGradient,
    StructurallyInfeasible,
)

UNFILTERED = "unfiltered"

_STATUS_CODES = {PASSTHROUGH: 0, MODIFIED: 1, INFEASIBLE_FALLBACK: 2, UNFILTERED: 3}
_STATUS_NAMES = {v: k for k, v in _STATUS_CODES.items()}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: plant, controller, constraints, timing, seed, and
    the RTA mode schedule. `raw` keeps the canonical JSON-able form used for
    hashing and persistence."""

    model: PlantModel
    controller: ControllerKind
    constraints: tuple[BarrierConstraint, ...]
    dt: float
    duration: float
    initial_state: np.ndarray
    seed: int
    mode_schedule: tuple[tuple[float, bool], ...]
    raw: dict

    @staticmethod
    def from_dict(cfg: dict) -> "ScenarioConfig":
        try:
            model = PlantModel(
                kind=cfg["model"]["kind"],
                control_bounds=np.asarray(cfg["model"]["control_bounds"], dtype=float),
                disturbance_bound=float(cfg["model"].get("disturbance_bound", 0.0)),
            )
            constraints = tuple(constraint_from_config(c) for c in cfg["constraints"])
            controller = controller_from_config(cfg["controller"])
            dt = float(cfg["dt"])
            duration = float(cfg["duration"])
            initial_state = np.asarray(cfg["initial_state"], dtype=float)
            seed = int(cfg["seed"])
            schedule = tuple(
                (float(entry["time"]), bool(entry["rta_enabled"]))
                for entry in cfg["mode_schedule"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad scenario config: {exc}") from exc

        ids = [c.id for c in constraints]
        if len(set(ids)) != len(ids):
            raise InvalidConfig(f"duplicate constraint ids in {ids}")
        if dt <= 0 or duration <= 0 or dt > duration:
            raise InvalidConfig(f"need 0 < dt <= duration, got dt={dt} duration={duration}")
        if not schedule or schedule[0][0] != 0.0:
            raise InvalidConfig("mode_schedule must start with an entry at time 0")
        times = [t for t, _ in schedule]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidConfig(f"mode_schedule times must strictly increase, got {times}")
        if initial_state.shape != (model.state_dim,):
            raise InvalidConfig(
                f"initial_state dim {initial_state.shape} does not match model "
                f"state dim {model.state_dim}"
            )
        for constraint in constraints:
            check_bounds_consistency(constraint, model)
            eval_h(constraint, PlantState(initial_state))  # dimension check
        if isinstance(controller, AdversarialController):
            by_id = {c.id: c for c in constraints}
            if controller.target_constraint_id not in by_id:
                raise InvalidConfig(
                    f"adversarial target '{controller.target_constraint_id}' not among "
                    f"constraint ids {sorted(by_id)}"
                )
            controller = controller.bind(by_id[controller.target_constraint_id], model)
        if isinstance(controller, NnController):
            sizes = controller.spec.layer_sizes
            if sizes[0] != model.state_dim or sizes[-1] != model.control_dim:
                raise InvalidConfig(
                    f"network maps {sizes[0]} -> {sizes[-1]} but model needs "
                    f"{model.state_dim} -> {model.control_dim}"
                )
        initial_state.setflags(write=False)
        raw = _canonical_raw(cfg)
        return ScenarioConfig(
            model=model,
            controller=controller,
            constraints=constraints,
            dt=dt,
            duration=duration,
            initial_state=initial_state,
            seed=seed,
            mode_schedule=schedule,
            raw=raw,
        )

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    @property
    def n_steps(self) -> int:
        return int(math.floor(self.duration / self.dt + 1e-9))


def _canonical_raw(cfg: dict) -> dict:
    return json.loads(json.dumps(cfg))


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    return ScenarioConfig.from_dict(doc)


@dataclass
class EpisodeTrace:
    """Per-step record of one closed-loop run plus the originating config.

    Arrays hold the pre-step sample at each control instant: time, state, the
    desired and applied commands, each constraint's barrier value, whether the
    filter intervened, the step status, and the filter wall-clock time.
    """

    config: ScenarioConfig
    config_hash: str
    constraint_ids: tuple[str, ...]
    t: np.ndarray
    states: np.ndarray
    u_des: np.ndarray
    u_out: np.ndarray
    h: np.ndarray
    intervened: np.ndarray
    status: np.ndarray  # int8 codes, see _STATUS_CODES
    solve_time: np.ndarray
    deviation: np.ndarray
    final_state: np.ndarray
    final_t: float
    aborted: bool = False
    abort_reason: str = ""

    @property
    def n_steps(self) -> int:
        return int(self.t.shape[0])

    def status_names(self) -> list[str]:
        return [_STATUS_NAMES[int(code)] for code in self.status]


@dataclass(frozen=True)
class SafetyMetrics:
    min_h: float
    violation_steps: int
    intervention_rate: float
    mean_deviation: float
    max_deviation: float
    max_solve_time: float
    fallback_count: int

    def to_dict(self) -> dict:
        return {
            "min_h": self.min_h,
            "violation_steps": self.violation_steps,
            "intervention_rate": self.intervention_rate,
            "mean_deviation": self.mean_deviation,
            "max_deviation": self.max_deviation,
            "max_solve_time": self.max_solve_time,
            "fallback_count": self.fallback_count,
        }


def _mode_at(schedule, t: float) -> bool:
    enabled = schedule[0][1]
    for start, flag in schedule:
        if start <= t + 1e-12:
            enabled = flag
        else:
            break
    return enabled


def run_episode(config: ScenarioConfig, record: bool = True) -> EpisodeTrace:
    """Run one closed-loop episode.

    Deterministic given the config (including seed). The filter is given the
    control period, so it enforces the sampled-data rows as well. A
    NonFiniteCommand from the controller, or a SingularGradient or
    StructurallyInfeasible raised by the filter, aborts the episode; the
    partial trace (the steps before it) is returned flagged aborted rather
    than discarded, with the error in abort_reason.
    """
    model = config.model
    controller = config.controller
    constraints = list(config.constraints)
    schedule = config.mode_schedule
    dt = config.dt
    n = config.n_steps
    n_cons = len(constraints)
    d = model.control_dim
    unfiltered_code = _STATUS_CODES[UNFILTERED]

    # per-step records, turned into arrays once the episode ends
    t_rec, x_rec, u_des_rec, u_out_rec, h_rec = [], [], [], [], []
    intervened_rec, status_rec, solve_rec, deviation_rec = [], [], [], []

    rng = np.random.default_rng(config.seed)
    state = PlantState(config.initial_state, 0.0)
    aborted = False
    abort_reason = ""

    for k in range(n):
        t_k = k * dt
        try:
            u_des = desired_control(controller, state, model)
            if _mode_at(schedule, t_k):
                result = filter_control(constraints, model, state, u_des, dt)
                u_out = result.u_out
                step_status = _STATUS_CODES[result.status]
                step_intervened = result.intervened
                step_solve = result.solve_time
                step_dev = result.deviation
            else:
                u_out = u_des
                step_status = unfiltered_code
                step_intervened = False
                step_solve = 0.0
                step_dev = 0.0
        except (NonFiniteCommand, SingularGradient, StructurallyInfeasible) as exc:
            aborted = True
            abort_reason = f"{type(exc).__name__}: {exc}"
            break

        if record:
            t_rec.append(t_k)
            x_rec.append(state.x)
            u_des_rec.append(u_des.u)
            u_out_rec.append(u_out.u)
            h_rec.append([eval_h(constraint, state) for constraint in constraints])
            intervened_rec.append(step_intervened)
            status_rec.append(step_status)
            solve_rec.append(step_solve)
            deviation_rec.append(step_dev)

        w = sample_disturbance(model, rng)
        state = step_rk4(model, state, u_out, w, dt)

    steps = len(t_rec)
    return EpisodeTrace(
        config=config,
        config_hash=config.config_hash,
        constraint_ids=tuple(c.id for c in constraints),
        t=np.array(t_rec, dtype=float),
        states=np.array(x_rec, dtype=float).reshape(steps, model.state_dim),
        u_des=np.array(u_des_rec, dtype=float).reshape(steps, d),
        u_out=np.array(u_out_rec, dtype=float).reshape(steps, d),
        h=np.array(h_rec, dtype=float).reshape(steps, n_cons),
        intervened=np.array(intervened_rec, dtype=bool),
        status=np.array(status_rec, dtype=np.int8),
        solve_time=np.array(solve_rec, dtype=float),
        deviation=np.array(deviation_rec, dtype=float),
        final_state=state.x,
        final_t=state.t,
        aborted=aborted,
        abort_reason=abort_reason,
    )


def compute_metrics(trace: EpisodeTrace) -> SafetyMetrics:
    if trace.n_steps == 0:
        raise EmptyTrace("trace has no recorded steps")
    return SafetyMetrics(
        min_h=float(np.min(trace.h)),
        violation_steps=int(np.sum(np.any(trace.h < 0.0, axis=1))),
        intervention_rate=float(np.mean(trace.intervened)),
        mean_deviation=float(np.mean(trace.deviation)),
        max_deviation=float(np.max(trace.deviation)),
        max_solve_time=float(np.max(trace.solve_time)),
        fallback_count=int(np.sum(trace.status == _STATUS_CODES[INFEASIBLE_FALLBACK])),
    )


def trace_header(config: ScenarioConfig, constraint_ids) -> str:
    cols = ["t"]
    cols += [f"state_{i}" for i in range(config.model.state_dim)]
    cols += [f"udes_{i}" for i in range(config.model.control_dim)]
    cols += [f"uout_{i}" for i in range(config.model.control_dim)]
    cols += [f"h_{cid}" for cid in constraint_ids]
    cols += ["intervened", "status", "solve_time"]
    return ",".join(cols)


def write_trace(trace: EpisodeTrace, path) -> None:
    """CSV with a comment preamble carrying the config and its hash. Floats
    are written as shortest round-trip decimals, so read_trace(write_trace(t))
    reproduces every numeric field exactly."""
    lines = []
    lines.append(f"# config_hash: {trace.config_hash}")
    lines.append(
        "# config: " + json.dumps(trace.config.raw, sort_keys=True, separators=(",", ":"))
    )
    if trace.aborted:
        lines.append(f"# aborted: {trace.abort_reason}")
    lines.append(trace_header(trace.config, trace.constraint_ids))
    names = trace.status_names()
    for k in range(trace.n_steps):
        cells = [repr(float(trace.t[k]))]
        cells += [repr(float(v)) for v in trace.states[k]]
        cells += [repr(float(v)) for v in trace.u_des[k]]
        cells += [repr(float(v)) for v in trace.u_out[k]]
        cells += [repr(float(v)) for v in trace.h[k]]
        cells.append("1" if trace.intervened[k] else "0")
        cells.append(names[k])
        cells.append(repr(float(trace.solve_time[k])))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path) -> EpisodeTrace:
    """Parse a trace CSV written by write_trace."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    config = None
    aborted = False
    abort_reason = ""
    header = None
    header_line = 0
    rows = []
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config:"):
                try:
                    config = ScenarioConfig.from_dict(json.loads(body[len("config:"):].strip()))
                except json.JSONDecodeError as exc:
                    raise ParseError(f"bad embedded config: {exc.msg}", line=lineno) from exc
            elif body.startswith("aborted:"):
                aborted = True
                abort_reason = body[len("aborted:"):].strip()
            continue
        if header is None:
            header = line
            header_line = lineno
            continue
        rows.append((lineno, line))

    if config is None:
        raise ParseError("missing '# config:' preamble", line=1)
    if header is None:
        raise ParseError("missing header row", line=len(raw_lines))

    constraint_ids = tuple(c.id for c in config.constraints)
    expected = trace_header(config, constraint_ids)
    got_cols = header.split(",")
    expected_cols = expected.split(",")
    for col in expected_cols:
        if col not in got_cols:
            raise ParseError(f"missing column '{col}'", line=header_line)
    if got_cols != expected_cols:
        raise ParseError(
            f"header mismatch: expected '{expected}', got '{header}'", line=header_line
        )

    n = len(rows)
    sd = config.model.state_dim
    cd = config.model.control_dim
    nc = len(constraint_ids)
    t_arr = np.empty(n)
    states = np.empty((n, sd))
    u_des = np.empty((n, cd))
    u_out = np.empty((n, cd))
    h = np.empty((n, nc))
    intervened = np.zeros(n, dtype=bool)
    status = np.zeros(n, dtype=np.int8)
    solve_time = np.zeros(n)
    deviation = np.zeros(n)

    for k, (lineno, line) in enumerate(rows):
        cells = line.split(",")
        if len(cells) != len(expected_cols):
            raise ParseError(
                f"expected {len(expected_cols)} cells, got {len(cells)}", line=lineno
            )
        try:
            pos = 0
            t_arr[k] = float(cells[pos]); pos += 1
            for i in range(sd):
                states[k, i] = float(cells[pos]); pos += 1
            for i in range(cd):
                u_des[k, i] = float(cells[pos]); pos += 1
            for i in range(cd):
                u_out[k, i] = float(cells[pos]); pos += 1
            for i in range(nc):
                h[k, i] = float(cells[pos]); pos += 1
            intervened[k] = cells[pos] == "1"; pos += 1
            status[k] = _STATUS_CODES[cells[pos]]; pos += 1
            solve_time[k] = float(cells[pos])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad cell value: {exc}", line=lineno) from exc
        deviation[k] = command_deviation(u_out[k].tolist(), u_des[k].tolist())

    final_state = states[-1] if n else config.initial_state
    final_t = float(t_arr[-1]) if n else 0.0
    return EpisodeTrace(
        config=config,
        config_hash=config.config_hash,
        constraint_ids=constraint_ids,
        t=t_arr,
        states=states,
        u_des=u_des,
        u_out=u_out,
        h=h,
        intervened=intervened,
        status=status,
        solve_time=solve_time,
        deviation=deviation,
        final_state=final_state,
        final_t=final_t,
        aborted=aborted,
        abort_reason=abort_reason,
    )


def run_batch(config: ScenarioConfig, episodes: int, seed_base: int) -> dict:
    """Run seeded episodes sequentially and aggregate their metrics. Results
    are reported in seed order. Episodes share the validated config (and its
    loaded controller); only the seed differs."""
    per_episode = []
    aborted = 0
    for i in range(episodes):
        seed = seed_base + i
        trace = run_episode(replace(config, seed=seed, raw={**config.raw, "seed": seed}))
        if trace.aborted:
            aborted += 1
        metrics = compute_metrics(trace) if trace.n_steps else None
        per_episode.append(
            {
                "seed": seed_base + i,
                "aborted": trace.aborted,
                "abort_reason": trace.abort_reason,
                "metrics": metrics.to_dict() if metrics else None,
            }
        )
    usable = [e["metrics"] for e in per_episode if e["metrics"] is not None]
    pooled = None
    if usable:
        pooled = {
            "min_h": min(m["min_h"] for m in usable),
            "violation_steps": sum(m["violation_steps"] for m in usable),
            "intervention_rate": float(np.mean([m["intervention_rate"] for m in usable])),
            "mean_deviation": float(np.mean([m["mean_deviation"] for m in usable])),
            "max_deviation": max(m["max_deviation"] for m in usable),
            "max_solve_time": max(m["max_solve_time"] for m in usable),
            "fallback_count": sum(m["fallback_count"] for m in usable),
        }
    return {
        "episodes": episodes,
        "seed_base": seed_base,
        "aborted_episodes": aborted,
        "per_episode": per_episode,
        "pooled": pooled,
    }
