import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asifkit import (
    DOUBLE_INTEGRATOR_1D,
    DOUBLE_INTEGRATOR_2D,
    GEOFENCE_1D,
    GEOFENCE_2D_CIRCLE,
    SPEED_LIMIT,
    AdversarialController,
    BarrierConstraint,
    InvalidConfig,
    InvalidModel,
    InvalidState,
    MlpSpec,
    NnController,
    ParseError,
    PdController,
    PlantModel,
    PlantState,
    ScenarioConfig,
    SingularGradient,
    compute_metrics,
    desired_control,
    load_controller,
    mlp_forward,
    run_episode,
)
from asifkit.controllers import controller_from_config
from tests import oracles
from tests.conftest import scenario_1d


def test_mlp_zero_weights_tanh():
    spec = MlpSpec(
        layer_sizes=(2, 3, 1),
        weights=(np.zeros((3, 2)), np.zeros((1, 3))),
        biases=(np.zeros(3), np.zeros(1)),
        activations=("tanh", "tanh"),
    )
    assert np.array_equal(mlp_forward(spec, [0.4, -0.7]), [0.0])


def test_mlp_identity_linear():
    spec = MlpSpec(
        layer_sizes=(2, 2),
        weights=(np.eye(2),),
        biases=(np.zeros(2),),
        activations=("linear",),
    )
    x = np.array([0.3, -1.2])
    assert np.array_equal(mlp_forward(spec, x), x)


def test_mlp_relu_hand_case():
    spec = MlpSpec(
        layer_sizes=(2, 1),
        weights=(np.array([[1.0, 1.0]]),),
        biases=(np.zeros(1),),
        activations=("relu",),
    )
    assert np.array_equal(mlp_forward(spec, [2.0, -3.0]), [0.0])


def test_mlp_dimension_checks():
    with pytest.raises(InvalidModel):
        MlpSpec(
            layer_sizes=(2, 1),
            weights=(np.ones((1, 3)),),
            biases=(np.zeros(1),),
            activations=("relu",),
        )
    spec = MlpSpec(
        layer_sizes=(2, 1),
        weights=(np.ones((1, 2)),),
        biases=(np.zeros(1),),
        activations=("relu",),
    )
    with pytest.raises(InvalidModel):
        mlp_forward(spec, [1.0, 2.0, 3.0])


def test_saturation(model_1d):
    pd = PdController(kp=(-5.0,), kd=(0.0,))  # raw output +5 at p = 1
    out = desired_control(pd, PlantState([1.0, 0.0]), model_1d)
    assert out.u[0] == 1.0


def test_pd_hand_value():
    from asifkit import DOUBLE_INTEGRATOR_1D, PlantModel

    model = PlantModel(DOUBLE_INTEGRATOR_1D, [[-10.0, 10.0]])
    pd = PdController(kp=(1.0,), kd=(2.0,))
    out = desired_control(pd, PlantState([1.0, 0.0]), model)
    assert out.u[0] == pytest.approx(-1.0)


def test_adversarial_sign_example(model_1d, fence):
    adv = AdversarialController("fence").bind(fence)
    out = desired_control(adv, PlantState([0.0, 1.0]), model_1d)
    assert out.u[0] == 1.0


def test_adversarial_unbound_is_a_config_error(model_1d):
    with pytest.raises(InvalidConfig, match="before binding"):
        desired_control(AdversarialController("fence"), PlantState([0.0, 1.0]), model_1d)


def test_adversarial_position_fallback_at_zero_velocity(model_1d, fence):
    # row gain vanishes at v = 0; the push should still head for the fence
    adv = AdversarialController("fence").bind(fence)
    out = desired_control(adv, PlantState([0.0, 0.0]), model_1d)
    assert out.u[0] == 1.0


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(-5, 5, allow_nan=False),
    v=st.floats(-5, 5, allow_nan=False),
    kp=st.floats(-10, 10, allow_nan=False),
    kd=st.floats(-10, 10, allow_nan=False),
)
def test_desired_control_always_in_bounds(p, v, kp, kd):
    from asifkit import DOUBLE_INTEGRATOR_1D, PlantModel

    model = PlantModel(DOUBLE_INTEGRATOR_1D, [[-1.0, 1.0]])
    pd = PdController(kp=(kp,), kd=(kd,))
    out = desired_control(pd, PlantState([p, v]), model)
    assert -1.0 <= out.u[0] <= 1.0


def test_desired_control_rejects_wrong_output_dim(model_1d, model_2d):
    pd = PdController(kp=(1.0, 1.0), kd=(1.0, 1.0))  # two axes on a one-axis plant
    with pytest.raises(InvalidState, match="control dim"):
        desired_control(pd, PlantState([0.1, 0.2]), model_1d)
    pd = PdController(kp=(1.0,), kd=(1.0,))  # one axis on a two-axis plant, never broadcast
    with pytest.raises(InvalidState, match="control dim"):
        desired_control(pd, PlantState([0.1, 0.2, 0.3, 0.4]), model_2d)


def test_load_nn_round_trip(tmp_path):
    doc = {
        "layer_sizes": [2, 3, 1],
        "weights": [np.ones((3, 2)).tolist(), np.ones((1, 3)).tolist()],
        "biases": [[0.1, 0.2, 0.3], [0.0]],
        "activations": ["tanh", "linear"],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    controller = load_controller(path)
    assert isinstance(controller, NnController)
    assert controller.spec.layer_sizes == (2, 3, 1)
    y = mlp_forward(controller.spec, [0.0, 0.0])
    assert y.shape == (1,)


def test_load_nn_bad_dimensions_names_layer(tmp_path):
    doc = {
        "layer_sizes": [2, 3, 1],
        "weights": [np.ones((3, 2)).tolist(), np.ones((1, 2)).tolist()],  # layer 1 broken
        "biases": [[0.0, 0.0, 0.0], [0.0]],
        "activations": ["tanh", "linear"],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidModel, match="layer 1"):
        load_controller(path)


def test_load_pd_passthrough(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps({"kp": [1.0], "kd": [2.0]}))
    controller = load_controller(path)
    assert isinstance(controller, PdController)
    assert controller.kp == (1.0,) and controller.kd == (2.0,)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_controller(tmp_path / "absent.json")


def test_load_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "kp": [1.0],\n "kd": oops\n}')
    with pytest.raises(ParseError) as err:
        load_controller(path)
    assert err.value.line == 3


def _spec_fields(**changes):
    """MlpSpec keyword arguments of a valid 2 -> 1 network, with changes."""
    fields = {"layer_sizes": (2, 1), "weights": (np.ones((1, 2)),), "biases": (np.zeros(1),), "activations": ("tanh",)}
    return {**fields, **changes}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"layer_sizes": (2,), "weights": (), "biases": (), "activations": ()}, "network needs at least one layer"),
        ({"activations": ("tanh", "tanh")}, "expected 1 weight/bias/activation entries, got 1/1/2"),
        ({"weights": (np.ones((2, 2)),)}, "layer 0: weight shape (2, 2) does not chain 2 -> 1"),
        ({"biases": (np.zeros(2),)}, "layer 0: bias shape (2,) != (1,)"),
        ({"biases": (np.array([np.nan]),)}, "layer 0: non-finite weights or biases"),
        ({"activations": ("sigmoid",)}, "layer 0: unknown activation 'sigmoid'"),
    ],
    ids=["no-layer", "entry-counts", "weight-shape", "bias-shape", "non-finite", "activation"],
)
def test_mlp_spec_errors_name_their_cause(changes, message):
    with pytest.raises(InvalidModel, match=f"^{re.escape(message)}$"):
        MlpSpec(**_spec_fields(**changes))


@pytest.mark.parametrize(
    "kp, kd, message",
    [((1.0, 2.0), (1.0,), "kp and kd must have the same length"), ((1.0,), (np.inf,), "pd gains must be finite")],
)
def test_pd_gain_errors_name_their_cause(kp, kd, message):
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        PdController(kp=kp, kd=kd)


def test_adversary_bound_to_another_constraint_is_refused(circle):
    with pytest.raises(InvalidConfig, match="^adversarial target 'fence' bound to constraint 'circle'$"):
        AdversarialController("fence").bind(circle)


def test_desired_control_refuses_an_unknown_controller_or_a_state_of_another_plant(model_1d, circle):
    with pytest.raises(InvalidConfig, match="^unknown controller 'pd'$"):
        desired_control("pd", PlantState([0.0, 0.0]), model_1d)
    adversary = AdversarialController("circle").bind(circle)
    with pytest.raises(InvalidState, match="^state dim 4 does not match model double_integrator_1d$"):
        desired_control(adversary, PlantState([2.0, 0.0, 0.0, 0.0]), model_1d)


def test_controller_config_errors_name_their_cause(tmp_path):
    pd = tmp_path / "pd.json"
    pd.write_text(json.dumps({"kp": [1.0], "kd": [2.0]}))
    for cfg, message in [
        ({"kind": "nn"}, "nn controller config needs a 'path' to a weights file"),
        ({"kind": "nn", "path": str(pd)}, f"file {pd} does not contain network weights"),
        ({"kind": "lqr"}, "unknown controller kind 'lqr'"),
    ]:
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            controller_from_config(cfg)


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1.0], "expected a JSON object"),
        ({"layer_sizes": [2, 1], "weights": [[[1.0, 1.0]]], "activations": ["tanh"]}, "missing field 'biases'"),
        ({"kp": [1.0]}, "neither network weights nor pd gains found"),
    ],
    ids=["not-an-object", "missing-field", "neither"],
)
def test_load_controller_errors_name_the_file(doc, message, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=f"^{re.escape(f'line 1: {path}: {message}')}$"):
        load_controller(path)


def test_adversarial_violates_without_rta():
    """With the filter off, the adversary demonstrably leaves the safe set
    within five seconds; this is the hazard the filter exists to negate."""
    config = ScenarioConfig.from_dict(scenario_1d(rta_enabled=False, duration=5.0))
    trace = run_episode(config)
    assert compute_metrics(trace).min_h < 0


def test_nn_in_closed_loop(tmp_path):
    doc = {
        "layer_sizes": [2, 4, 1],
        "weights": [np.full((4, 2), 0.1).tolist(), np.full((1, 4), -0.5).tolist()],
        "biases": [[0.0] * 4, [0.0]],
        "activations": ["tanh", "linear"],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    cfg = scenario_1d(controller={"kind": "nn", "path": str(path)}, duration=1.0)
    trace = run_episode(ScenarioConfig.from_dict(cfg))
    assert trace.n_steps == 100
    assert not trace.aborted


# ---- the written-out controllers against the loop forms ----


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def test_adversarial_command_matches_the_comprehension():
    """The saturation written out per axis, on the gradient's velocity or
    position block, gives the command of the comprehension on numpy's
    grad . g bit for bit, on boxes on either side of zero and at states
    where the row's entries are zero or signed zeros."""
    rng = np.random.default_rng(23)
    boxes = ([-1.0, 1.0], [0.25, 2.0], [-3.0, -0.5], [-0.0, 1.0], [-2.0, 0.0])
    entries = (0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5)
    cases = 0
    for _ in range(600):
        d = int(rng.integers(1, 3))
        box = [boxes[rng.integers(len(boxes))] for _ in range(d)]
        model = PlantModel(DOUBLE_INTEGRATOR_1D if d == 1 else DOUBLE_INTEGRATOR_2D, box)
        if d == 1:
            constraint = BarrierConstraint("c", GEOFENCE_1D, {"p_limit": 1.0, "u_max": 1.0})
        elif rng.random() < 0.5:
            constraint = BarrierConstraint("c", GEOFENCE_2D_CIRCLE, {"center": [0.1, -0.2], "radius": 2.0, "u_max": 1.0})
        else:
            constraint = BarrierConstraint("c", SPEED_LIMIT, {"v_max": 1.5})
        xs = [entries[rng.integers(len(entries))] if rng.random() < 0.4 else float(rng.uniform(-1.0, 1.0)) for _ in range(2 * d)]
        state = PlantState(xs)
        controller = AdversarialController("c").bind(constraint)
        try:
            want = oracles.adversarial_command(constraint, model, state)
        except SingularGradient:
            with pytest.raises(SingularGradient):
                desired_control(controller, state, model)
            continue
        assert _bits(desired_control(controller, state, model).us) == _bits(want), (box, xs)
        cases += 1
    assert cases > 500


@pytest.mark.parametrize("sizes, activations", [
    ((2, 32, 32, 1), ("tanh", "tanh", "linear")),
    ((2, 8, 1), ("relu", "linear")),
    ((4, 16, 2), ("tanh", "tanh")),
    ((1, 1), ("linear",)),
])
def test_mlp_forward_matches_the_matmul_form(sizes, activations):
    """Each layer's w.dot(v) + b gives w @ v + b bit for bit."""
    rng = np.random.default_rng(29)
    for _ in range(200):
        spec = MlpSpec(
            layer_sizes=sizes,
            weights=tuple(rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 30.0]) for n, m in zip(sizes, sizes[1:])),
            biases=tuple(rng.normal(size=m) for m in sizes[1:]),
            activations=activations,
        )
        for _ in range(5):
            x = rng.normal(size=sizes[0]) * rng.choice([1e-6, 1.0, 1e3])
            assert mlp_forward(spec, x.tolist()).tobytes() == oracles.mlp_forward(spec, x).tobytes()
