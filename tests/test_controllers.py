import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asifkit import (
    AdversarialController,
    InvalidModel,
    InvalidState,
    MlpSpec,
    NnController,
    ParseError,
    PdController,
    PlantState,
    ScenarioConfig,
    compute_metrics,
    desired_control,
    load_controller,
    mlp_forward,
    run_episode,
)
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
    adv = AdversarialController("fence").bind(fence, model_1d)
    out = desired_control(adv, PlantState([0.0, 1.0]), model_1d)
    assert out.u[0] == 1.0


def test_adversarial_position_fallback_at_zero_velocity(model_1d, fence):
    # row gain vanishes at v = 0; the push should still head for the fence
    adv = AdversarialController("fence").bind(fence, model_1d)
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


def test_desired_control_rejects_wrong_output_dim(model_1d):
    pd = PdController(kp=(1.0, 1.0), kd=(1.0, 1.0))  # two axes on a one-axis plant
    with pytest.raises(InvalidState, match="control dim"):
        desired_control(pd, PlantState([0.1, 0.2]), model_1d)


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
