"""Primary (performance) controllers feeding the safety filter.

Three kinds:
  * nn:          MLP inference from a serialized weights file. The network
                 is opaque to the rest of the system; only its output is
                 filtered. Inputs are the raw state vector, unnormalized.
  * pd:          per-axis proportional-derivative law u = -kp*p - kd*v.
  * adversarial: full-magnitude command in the direction that decreases a
                 target constraint's barrier value; exists to exercise the
                 filter under worst-case commands, not to fly well.

Every controller's output is saturated into the plant's box, so downstream
code always sees an in-bounds desired command. An output with a NaN or
infinite entry has no meaningful saturation and raises NonFiniteCommand.
The saturation is written out for one axis and for two, and an MLP layer's
product is w.dot(v), which rounds as w @ v does. A network binds its layer
plan once, when its MlpSpec is built: per layer the weights' bound dot
method, the bias and the activation's function (None for linear), so
that a forward pass does no lookup by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .barrier import BarrierConstraint, eval_grad_h
from .dynamics import ControlInput, PlantModel, PlantState, actuation_row, drift_actuation_row
from .errors import InvalidConfig, InvalidModel, InvalidState, NonFiniteCommand, ParseError


def _relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


# each activation's function on a layer's array; linear is the identity
_ACTIVATION_FUNCTIONS = {"tanh": np.tanh, "relu": _relu, "linear": None}
ACTIVATIONS = tuple(_ACTIVATION_FUNCTIONS)


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected network: per-layer weights W[k] of shape
    (sizes[k+1], sizes[k]), biases b[k], and an activation per layer.
    Specs compare and hash by their sizes, their weights and biases as
    float tuples, and their activations. The layer plan, per layer
    (w.dot, b, activation function or None), is bound from them at
    construction."""

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...] = field(compare=False)
    biases: tuple[np.ndarray, ...] = field(compare=False)
    activations: tuple[str, ...]
    _values: tuple = field(init=False, repr=False)
    _plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        n_layers = len(sizes) - 1
        if n_layers < 1:
            raise InvalidModel("network needs at least one layer")
        if not (len(self.weights) == len(self.biases) == len(self.activations) == n_layers):
            raise InvalidModel(
                f"expected {n_layers} weight/bias/activation entries, got "
                f"{len(self.weights)}/{len(self.biases)}/{len(self.activations)}"
            )
        weights = []
        biases = []
        for k in range(n_layers):
            w = np.asarray(self.weights[k], dtype=float)
            b = np.asarray(self.biases[k], dtype=float)
            if w.shape != (sizes[k + 1], sizes[k]):
                raise InvalidModel(
                    f"layer {k}: weight shape {w.shape} does not chain "
                    f"{sizes[k]} -> {sizes[k + 1]}"
                )
            if b.shape != (sizes[k + 1],):
                raise InvalidModel(f"layer {k}: bias shape {b.shape} != ({sizes[k + 1]},)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise InvalidModel(f"layer {k}: non-finite weights or biases")
            if self.activations[k] not in ACTIVATIONS:
                raise InvalidModel(f"layer {k}: unknown activation '{self.activations[k]}'")
            w.setflags(write=False)
            b.setflags(write=False)
            weights.append(w)
            biases.append(b)
        object.__setattr__(self, "weights", tuple(weights))
        object.__setattr__(self, "biases", tuple(biases))
        values = tuple((tuple(map(tuple, w.tolist())), tuple(b.tolist())) for w, b in zip(weights, biases))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "activations", tuple(self.activations))
        plan = tuple((w.dot, b, _ACTIVATION_FUNCTIONS[act]) for w, b, act in zip(weights, biases, self.activations))
        object.__setattr__(self, "_plan", plan)


@dataclass(frozen=True)
class NnController:
    spec: MlpSpec


@dataclass(frozen=True)
class PdController:
    """Per-axis gains; raw command on axis j is -kp[j]*p_j - kd[j]*v_j."""

    kp: tuple[float, ...]
    kd: tuple[float, ...]

    def __post_init__(self):
        kp = tuple(float(v) for v in self.kp)
        kd = tuple(float(v) for v in self.kd)
        if len(kp) != len(kd):
            raise InvalidConfig("kp and kd must have the same length")
        if not all(np.isfinite(kp)) or not all(np.isfinite(kd)):
            raise InvalidConfig("pd gains must be finite")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)


@dataclass(frozen=True)
class AdversarialController:
    """Drives toward violation of one constraint. The target is referenced by
    id in configs and resolved against the scenario's constraint list before
    use; the plant model comes with each command (desired_control)."""

    target_constraint_id: str
    constraint: BarrierConstraint | None = None

    def bind(self, constraint: BarrierConstraint) -> "AdversarialController":
        if constraint.id != self.target_constraint_id:
            raise InvalidConfig(
                f"adversarial target '{self.target_constraint_id}' bound to "
                f"constraint '{constraint.id}'"
            )
        return AdversarialController(self.target_constraint_id, constraint)


ControllerKind = NnController | PdController | AdversarialController


def mlp_forward(spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """Sequential affine-then-activation evaluation over the spec's layer
    plan. Each layer's product is w.dot(v), which for a matrix and a vector
    rounds as w @ v does (both reach the same BLAS matrix-vector product)
    without the operator's dispatch."""
    v = np.asarray(x, dtype=float)
    if v.shape != (spec.layer_sizes[0],):
        raise InvalidModel(f"input length {v.shape} != {spec.layer_sizes[0]}")
    for dot, b, activation in spec._plan:
        v = dot(v) + b
        if activation is not None:
            v = activation(v)
    return v


def desired_control(controller: ControllerKind, state: PlantState, model: PlantModel) -> ControlInput:
    """Raw controller output saturated componentwise into the plant's box.
    Raises NonFiniteCommand, naming the output, if any entry is NaN or
    infinite."""
    if isinstance(controller, AdversarialController):
        return ControlInput._trusted(_adversarial_command(controller, state, model))
    if isinstance(controller, NnController):
        command = mlp_forward(controller.spec, state.xs).tolist()
    elif isinstance(controller, PdController):
        x = state.xs
        if len(controller.kp) != model.control_dim or len(x) != model.state_dim:
            raise InvalidState(f"{len(controller.kp)} pd gains, {len(x)}-dim state: control dim {model.control_dim}")
        command = [-kp * p - kd * v for kp, kd, p, v in zip(controller.kp, controller.kd, x, x[model.control_dim:])]
    else:
        raise InvalidConfig(f"unknown controller {controller!r}")
    if not all(map(math.isfinite, command)):
        raise NonFiniteCommand(f"controller output {command} is not finite")
    if len(command) != model.control_dim:
        raise InvalidState(f"controller output {command} does not match control dim {model.control_dim}")
    # bound first, so signed zeros clamp as np.clip does
    if model.control_dim == 1:
        lo, hi = model._box[0]
        return ControlInput._trusted((min(hi, max(lo, command[0])),))
    (lo0, hi0), (lo1, hi1) = model._box
    c0, c1 = command
    return ControlInput._trusted((min(hi0, max(lo0, c0)), min(hi1, max(lo1, c1))))


def _adversarial_command(
    controller: AdversarialController, state: PlantState, model: PlantModel
) -> tuple[float, ...]:
    """Full-magnitude command minimizing the target constraint's hdot
    contribution a . u (a = grad_h . g), saturated into the box. Where that
    row has no control sensitivity, fall back to a = grad_h . (df/dx) g, the
    position gradient mapped to the paired control axis, which decreases h
    over the following steps on these double-integrator plants.
    """
    if controller.constraint is None:
        raise InvalidConfig("adversarial controller used before binding to a constraint")
    if len(state.xs) != model.state_dim:
        raise InvalidState(f"state dim {len(state.xs)} does not match model {model.kind}")
    grad = eval_grad_h(controller.constraint, state)
    a = actuation_row(model, grad)
    if not any(a):
        a = drift_actuation_row(model, grad)  # push along the position gradient instead
    # full magnitude against a's sign, zero (clamped into the box) where a is zero
    if model.control_dim == 1:
        lo, hi = model._box[0]
        a0 = a[0]
        return (hi if a0 < 0.0 else (lo if a0 > 0.0 else min(max(0.0, lo), hi)),)
    (lo0, hi0), (lo1, hi1) = model._box
    a0, a1 = a
    return (
        hi0 if a0 < 0.0 else (lo0 if a0 > 0.0 else min(max(0.0, lo0), hi0)),
        hi1 if a1 < 0.0 else (lo1 if a1 > 0.0 else min(max(0.0, lo1), hi1)),
    )


def controller_from_config(cfg: dict) -> ControllerKind:
    """Build a controller from its scenario-config mapping. nn controllers
    reference a weights file by path; pd and adversarial are inline."""
    kind = cfg.get("kind")
    if kind == "nn":
        if "path" not in cfg:
            raise InvalidConfig("nn controller config needs a 'path' to a weights file")
        controller = load_controller(cfg["path"])
        if not isinstance(controller, NnController):
            raise InvalidConfig(f"file {cfg['path']} does not contain network weights")
        return controller
    if kind == "pd":
        return PdController(kp=tuple(cfg["kp"]), kd=tuple(cfg["kd"]))
    if kind == "adversarial":
        return AdversarialController(target_constraint_id=str(cfg["target_constraint_id"]))
    raise InvalidConfig(f"unknown controller kind '{kind}'")


def load_controller(path) -> ControllerKind:
    """Load a controller from a JSON file.

    Network files carry layer_sizes / weights / biases / activations
    (weights as row-major matrices); pd files carry kp / kd arrays.
    Dimension invariants are checked at load time.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object", line=1)
    if "layer_sizes" in doc:
        for field in ("weights", "biases", "activations"):
            if field not in doc:
                raise ParseError(f"{path}: missing field '{field}'", line=1)
        spec = MlpSpec(
            layer_sizes=tuple(doc["layer_sizes"]),
            weights=tuple(np.asarray(w, dtype=float) for w in doc["weights"]),
            biases=tuple(np.asarray(b, dtype=float) for b in doc["biases"]),
            activations=tuple(doc["activations"]),
        )
        return NnController(spec)
    if "kp" in doc and "kd" in doc:
        return PdController(kp=tuple(doc["kp"]), kd=tuple(doc["kd"]))
    raise ParseError(f"{path}: neither network weights nor pd gains found", line=1)
