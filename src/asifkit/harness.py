"""Closed-loop simulation: command scheduling, controller, filter, plant,
and a non-interfering recorder.

An episode advances at a fixed control period dt. Each step reads the RTA
mode from the schedule, asks the primary controller for a command, filters it
(or passes it through saturated when RTA is off), draws the disturbance, and
integrates the plant. Every step is recorded; traces serialize to CSV, and
their per-step fields round-trip losslessly.

The loop carries the state, the commands and the disturbance as tuples of
Python floats (PlantState.xs, ControlInput.us, sample_disturbance's tuple),
so a step builds no array beyond an MLP controller's. Each episode reads its
disturbances from one dynamics.disturbance_stream seeded with the config's
seed, which draws them in blocks. The recorder keeps each step's floats in
one flat list, which the trace builder slices into arrays once the episode
ends.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NoReturn

import numpy as np

from .asif import INFEASIBLE_FALLBACK, MODIFIED, PASSTHROUGH, filter_control
from .barrier import (
    _STATE_DIMS,
    BarrierConstraint,
    check_bounds_consistency,
    constraint_from_config,
    eval_h,
)
from .controllers import (
    AdversarialController,
    ControllerKind,
    NnController,
    PdController,
    controller_from_config,
    desired_control,
)
from .dynamics import PlantModel, PlantState, disturbance_stream, sample_disturbance, step_rk4
from .errors import (
    EmptyTrace,
    InvalidConfig,
    NonFiniteCommand,
    NonFiniteRow,
    NonFiniteState,
    ParseError,
    SingularGradient,
    StructurallyInfeasible,
)

UNFILTERED = "unfiltered"

_STATUS_NAMES = (PASSTHROUGH, MODIFIED, INFEASIBLE_FALLBACK, UNFILTERED)  # indexed by int8 code
_STATUS_CODES = {name: code for code, name in enumerate(_STATUS_NAMES)}
_FLAGS = {"0": False, "1": True}  # the intervened column
# indexed by status code: the filter intervenes exactly on these statuses
_INTERVENES = tuple(name in (MODIFIED, INFEASIBLE_FALLBACK) for name in _STATUS_NAMES)
_INTERVENES_ARRAY = np.array(_INTERVENES)
_TEXT_COLUMNS = ("intervened", "status", "solve_time")
# run_episode keeps every step in Python lists until the episode ends, about
# 0.6 kB a step at its peak for a 2-D plant with two constraints, so an
# episode of more steps than this (10,000 s at the shipped dt of 0.01) is
# refused at load rather than run out of memory
MAX_EPISODE_STEPS = 10**6


def _non_negative_int(value, name: str) -> int:
    """value as a non-negative integer (an integral float such as 2.0
    included), or InvalidConfig naming it: an episode seed or count."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"{name} must be a non-negative integer, got {value!r}") from exc
    if number != value or number < 0:
        raise InvalidConfig(f"{name} must be a non-negative integer, got {value!r}")
    return number


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: plant, controller, constraints, timing, seed, and
    the RTA mode schedule. `raw` keeps the canonical JSON-able form used for
    hashing and persistence. Configs compare by every field, the initial
    state by its float tuple, and hash by all but raw, a dict."""

    model: PlantModel
    controller: ControllerKind
    constraints: tuple[BarrierConstraint, ...]
    dt: float
    duration: float
    initial_state: np.ndarray = field(compare=False)
    seed: int
    mode_schedule: tuple[tuple[float, bool], ...]
    raw: dict = field(hash=False)
    _initial_xs: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_initial_xs", tuple(self.initial_state.tolist()))

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
            seed = _non_negative_int(cfg["seed"], "seed")
            schedule = tuple(
                (float(entry["time"]), bool(entry["rta_enabled"]))
                for entry in cfg["mode_schedule"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"bad scenario config: {exc}") from exc

        if not constraints:  # compute_metrics reports the least h over them
            raise InvalidConfig("a scenario needs at least one constraint")
        ids = [c.id for c in constraints]
        for cid in ids:
            # a trace row is one line of comma-separated cells, headed h_<id>
            if "," in cid or "".join(cid.splitlines()) != cid:
                raise InvalidConfig(f"constraint id {cid!r} holds a ',' or a line break, which a trace cannot hold")
        if len(set(ids)) != len(ids):
            raise InvalidConfig(f"duplicate constraint ids in {ids}")
        if not (0.0 < dt <= duration < math.inf):
            raise InvalidConfig(f"need 0 < dt <= duration < inf, got dt={dt} duration={duration}")
        if 0.5 * dt * dt == 0.0:
            raise InvalidConfig(f"dt={dt} is too small: the sampled rows' 0.5*dt*dt underflows to 0")
        if 0.5 * dt * dt == math.inf:
            raise InvalidConfig(f"dt={dt} is too large: the sampled rows' 0.5*dt*dt overflows")
        if duration / dt + 1e-9 >= MAX_EPISODE_STEPS + 1:  # n_steps > MAX_EPISODE_STEPS
            raise InvalidConfig(
                f"duration={duration} at dt={dt} is more than {MAX_EPISODE_STEPS} steps"
            )
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
        if not np.all(np.isfinite(initial_state)):
            raise InvalidConfig(f"initial_state must be finite, got {initial_state.tolist()}")
        for constraint in constraints:
            if model.state_dim not in _STATE_DIMS[constraint.kind]:
                raise InvalidConfig(
                    f"constraint '{constraint.id}' of kind {constraint.kind} does not apply to {model.kind}"
                )
            check_bounds_consistency(constraint, model)
        if isinstance(controller, AdversarialController):
            by_id = {c.id: c for c in constraints}
            if controller.target_constraint_id not in by_id:
                raise InvalidConfig(
                    f"adversarial target '{controller.target_constraint_id}' not among "
                    f"constraint ids {sorted(by_id)}"
                )
            controller = controller.bind(by_id[controller.target_constraint_id])
        if isinstance(controller, NnController):
            sizes = controller.spec.layer_sizes
            if sizes[0] != model.state_dim or sizes[-1] != model.control_dim:
                raise InvalidConfig(
                    f"network maps {sizes[0]} -> {sizes[-1]} but model needs "
                    f"{model.state_dim} -> {model.control_dim}"
                )
        if isinstance(controller, PdController) and len(controller.kp) != model.control_dim:
            raise InvalidConfig(
                f"pd controller has {len(controller.kp)} kp and {len(controller.kd)} kd gains "
                f"but model control dim is {model.control_dim}"
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
    final_state and final_t are the state and time after the last step as
    run_episode ends; a trace read back by read_trace holds the last
    recorded sample there instead.
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
        return [_STATUS_NAMES[code] for code in self.status.tolist()]


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


def run_episode(config: ScenarioConfig) -> EpisodeTrace:
    """Run one closed-loop episode.

    Deterministic given the config (including seed): the disturbances come
    from disturbance_stream(model, seed, n_steps), one per step, and the
    stream draws nothing when the bound is 0. The filter is given the
    control period, so it enforces the sampled-data rows as well. A
    NonFiniteCommand from the controller, a SingularGradient,
    StructurallyInfeasible or NonFiniteRow raised by the filter, or a
    NonFiniteState from an integration that overflows aborts the episode;
    the partial trace (the steps before it) is returned flagged aborted
    rather than discarded, with the error in abort_reason.
    """
    model = config.model
    controller = config.controller
    constraints = list(config.constraints)
    schedule = config.mode_schedule
    dt = config.dt
    n = config.n_steps
    unfiltered_code = _STATUS_CODES[UNFILTERED]

    # per-step records, numeric holding the float cells in _trace_layout's order
    numeric, status_rec, solve_rec, deviation_rec = [], [], [], []

    disturbances = disturbance_stream(model, config.seed, n)
    state = PlantState(config.initial_state, 0.0)
    abort = None

    for k in range(n):
        t_k = k * dt
        try:
            u_des = desired_control(controller, state, model)
            if _mode_at(schedule, t_k):
                result = filter_control(constraints, model, state, u_des, dt)
                u_out = result.u_out
                step_status = _STATUS_CODES[result.status]
                step_solve = result.solve_time
                step_dev = result.deviation
            else:
                u_out = u_des
                step_status = unfiltered_code
                step_solve = 0.0
                step_dev = 0.0
        except (NonFiniteCommand, SingularGradient, StructurallyInfeasible, NonFiniteRow) as exc:
            abort = exc
            break

        numeric += (t_k, *state.xs, *u_des.us, *u_out.us)
        for constraint in constraints:
            numeric.append(eval_h(constraint, state))
        status_rec.append(step_status)
        solve_rec.append(step_solve)
        deviation_rec.append(step_dev)

        w = sample_disturbance(model, disturbances)
        try:
            state = step_rk4(model, state, u_out, w, dt)
        except NonFiniteState as exc:
            abort = exc
            break

    reason = "" if abort is None else f"{type(abort).__name__}: {abort}"
    cells = _trace_layout(model, [c.id for c in constraints])["h"][0].stop
    table = np.array(numeric, dtype=float).reshape(len(status_rec), cells)
    return _episode_trace(
        config, table, status_rec, solve_rec, deviation_rec, state.x, state.t, abort is not None, reason
    )


def _trace_layout(model: PlantModel, constraint_ids) -> dict[str, tuple[slice, list[str]]]:
    """The float blocks of a trace row in column order: each EpisodeTrace
    field's slice of the row's float cells and its column names. h, the
    last block, ends at the float-cell count; the _TEXT_COLUMNS follow."""
    names = {
        "t": ["t"],
        "states": [f"state_{i}" for i in range(model.state_dim)],
        "u_des": [f"udes_{i}" for i in range(model.control_dim)],
        "u_out": [f"uout_{i}" for i in range(model.control_dim)],
        "h": [f"h_{cid}" for cid in constraint_ids],
    }
    layout, lo = {}, 0
    for field, cols in names.items():
        layout[field] = (slice(lo, lo + len(cols)), cols)
        lo += len(cols)
    return layout


def _episode_trace(
    config: ScenarioConfig, table: np.ndarray, status: list[int], solve_time, deviation,
    final_state: np.ndarray, final_t: float, aborted: bool, abort_reason: str,
) -> EpisodeTrace:
    """The trace of recorded steps: table is their (n, cells) float array,
    a row per step in _trace_layout's order, in any memory order, and status
    their int8 codes, from which intervened is derived. Each block is a
    C-contiguous array of its own."""
    constraint_ids = tuple(c.id for c in config.constraints)
    layout = _trace_layout(config.model, constraint_ids)
    n = len(status)
    blocks = {field: np.ascontiguousarray(table[:, cells]) for field, (cells, _) in layout.items()}
    blocks["t"] = blocks["t"].reshape(n)
    codes = np.array(status, dtype=np.int8)
    return EpisodeTrace(
        config=config,
        config_hash=config.config_hash,
        constraint_ids=constraint_ids,
        **blocks,
        intervened=_INTERVENES_ARRAY[codes],
        status=codes,
        solve_time=np.array(solve_time, dtype=float),
        deviation=np.array(deviation, dtype=float),
        final_state=final_state,
        final_t=final_t,
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
    layout = _trace_layout(config.model, constraint_ids)
    return ",".join([col for _, cols in layout.values() for col in cols] + list(_TEXT_COLUMNS))


def write_trace(trace: EpisodeTrace, path) -> None:
    """CSV with a comment preamble carrying the config and its hash. Floats
    are written as shortest round-trip decimals, so read_trace(write_trace(t))
    reproduces every per-step field exactly. The state after the last step
    has no row, so final_state and final_t do not round-trip."""
    lines = []
    lines.append(f"# config_hash: {trace.config_hash}")
    lines.append(
        "# config: " + json.dumps(trace.config.raw, sort_keys=True, separators=(",", ":"))
    )
    if trace.aborted:
        lines.append(f"# aborted: {trace.abort_reason}")
    lines.append(trace_header(trace.config, trace.constraint_ids))
    layout = _trace_layout(trace.config.model, trace.constraint_ids)
    blocks = [getattr(trace, field).reshape(trace.n_steps, len(cols)) for field, (_, cols) in layout.items()]
    numeric = np.concatenate(blocks, axis=1).tolist()
    flags = ["1" if v else "0" for v in trace.intervened.tolist()]
    for row, flag, name, solve in zip(numeric, flags, trace.status_names(), trace.solve_time.tolist()):
        lines.append(",".join([*map(repr, row), flag, name, repr(solve)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _deviations(u_out: np.ndarray, u_des: np.ndarray) -> np.ndarray:
    """asif.command_deviation of every step, on the commands' (1, n) or
    (2, n) column arrays: the same IEEE operations in the same order, elementwise,
    so the bits are equal. Squares that overflow give inf, and inf - inf
    NaN, silently, as in command_deviation."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = u_out[0] - u_des[0]
        total = d * d
        if len(u_out) == 2:
            d = u_out[1] - u_des[1]
            total = total + d * d
        return np.sqrt(total)


def _parse_columns(lines: list[str], width: int):
    """The data lines' float columns (a (cells, n) array), status codes and
    solve times, each column parsed in one pass; None when a line has the
    wrong width, a bad cell, or an intervened cell that disagrees with its
    status. The lines are joined and split once, so the cells make one list
    rather than one per line."""
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    cells = ",".join(lines).split(",")
    n, n_num = len(lines), width - len(_TEXT_COLUMNS)
    try:
        floats = map(float, chain.from_iterable(cells[j::width] for j in range(n_num)))
        columns = np.fromiter(floats, float, n_num * n).reshape(n_num, n)
        codes = list(map(_STATUS_CODES.__getitem__, cells[n_num + 1::width]))
        agree = list(map(_FLAGS.__getitem__, cells[n_num::width])) == list(map(_INTERVENES.__getitem__, codes))
        solve_time = list(map(float, cells[n_num + 2::width]))
    except (ValueError, KeyError):
        return None
    return (columns, codes, solve_time) if agree else None


def _raise_bad_row(rows: Iterable[tuple[int, str]], width: int) -> NoReturn:
    """Raise the ParseError of the first bad data row, rows giving each
    row's line number and text, checking each row in turn: its width, then
    its cells in column order, then whether intervened agrees with the
    status. Called only once _parse_columns has failed."""
    n_num = width - len(_TEXT_COLUMNS)
    for lineno, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", line=lineno)
        try:
            list(map(float, cells[:n_num]))
            flag = _FLAGS[cells[n_num]]
            code = _STATUS_CODES[cells[n_num + 1]]
            float(cells[n_num + 2])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"bad cell value: {exc}", line=lineno) from exc
        if flag != _INTERVENES[code]:
            raise ParseError(
                f"intervened {cells[n_num]} disagrees with status {cells[n_num + 1]}", line=lineno
            )
    raise AssertionError("_parse_columns failed on rows that all pass")


def read_trace(path) -> EpisodeTrace:
    """Parse a trace CSV written by write_trace.

    Every per-step field reads back exactly, and each step's deviation is
    recomputed with the filter's formula. The file has no row for the state
    after the last step, so final_state and final_t are the last recorded
    pre-step sample (the config's initial state and 0.0 for a trace with no
    steps), not the state the episode ended in. A row of the wrong width, or
    a cell that is no float, an intervened cell other than 0 or 1, an
    unknown status, or an intervened cell that disagrees with the status
    (1 exactly on modified and infeasible_fallback), raises ParseError with
    the first such row's line, and so does a '# config_hash:' line that
    disagrees with the embedded config's hash.

    The data rows are parsed by column: their lines are joined and split
    once, each float column is parsed in one pass of float(), and the
    deviations are computed on arrays. No row gets a list or tuple of its
    own, so however long the file, a read does not set off a cyclic
    collection by itself. Only a file with a bad row is scanned again, row
    by row, to name the first bad one."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    config = None
    stated_hash = None
    hash_line = 0
    aborted = False
    abort_reason = ""
    header = None
    header_line = 0
    linenos, lines = [], []  # each data row's line number and text
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("config_hash:"):
                stated_hash = body[len("config_hash:"):].strip()
                hash_line = lineno
            elif body.startswith("config:"):
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
        linenos.append(lineno)
        lines.append(line)

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

    layout = _trace_layout(config.model, constraint_ids)
    width = len(expected_cols)
    if lines:
        parsed = _parse_columns(lines, width)
        if parsed is None:
            _raise_bad_row(zip(linenos, lines), width)
        columns, status, solve_time = parsed
        deviation = _deviations(columns[layout["u_out"][0]], columns[layout["u_des"][0]])
        final_state, final_t = columns[layout["states"][0], -1].copy(), float(columns[0, -1])
        table = columns.T
    else:
        status, solve_time, deviation = [], [], []
        final_state, final_t = config.initial_state, 0.0
        table = np.empty((0, width - len(_TEXT_COLUMNS)))
    trace = _episode_trace(
        config, table, status, solve_time, deviation, final_state, final_t, aborted, abort_reason
    )
    if stated_hash is not None and stated_hash != trace.config_hash:
        raise ParseError(
            f"config_hash {stated_hash} disagrees with the embedded config's {trace.config_hash}",
            line=hash_line,
        )
    return trace


def run_batch(config: ScenarioConfig, episodes: int, seed_base: int) -> dict:
    """Run seeded episodes sequentially and aggregate their metrics. Results
    are reported in seed order. Episodes share the validated config (and its
    loaded controller); only the seed differs. An episode count or a
    seed_base that is no non-negative integer raises InvalidConfig before
    any episode runs."""
    episodes = _non_negative_int(episodes, "episode count")
    seed_base = _non_negative_int(seed_base, "seed")
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
