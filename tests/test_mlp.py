import numpy as np
import pytest

from tape_oracle import mean_nll, taped_forward
from uqkit.autodiff import Tape, value_and_grad
from uqkit.mlp import MlpConfig, init_params, mlp_forward, param_count
from uqkit.posterior import _nll_pass


def test_param_count_layout():
    cfg = MlpConfig(3, (5, 4), 2, "tanh", init_seed=0)
    assert param_count(cfg) == (3 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 2


def test_zero_parameters_give_zero_outputs():
    cfg = MlpConfig(2, (4, 3), 2, "relu", init_seed=0)
    x = np.random.default_rng(0).normal(size=(6, 2))
    out = mlp_forward(cfg, np.zeros(param_count(cfg)), x)
    np.testing.assert_array_equal(out, np.zeros((6, 2)))


def test_identity_single_layer_reproduces_inputs():
    cfg = MlpConfig(3, (), 3, "tanh", init_seed=0)
    theta = np.concatenate([np.eye(3).ravel(), np.zeros(3)])
    x = np.random.default_rng(1).normal(size=(5, 3))
    np.testing.assert_array_equal(mlp_forward(cfg, theta, x), x)


def test_tape_and_plain_paths_agree_bitwise():
    for act in ("tanh", "relu"):
        cfg = MlpConfig(2, (7, 5), 3, act, init_seed=3)
        theta = init_params(cfg)
        x = np.random.default_rng(2).normal(size=(11, 2))
        plain = mlp_forward(cfg, theta, x)
        tape = Tape()
        taped = taped_forward(cfg, tape.input(theta), x)
        assert plain.tobytes() == taped.value.tobytes()


def test_gradient_through_forward_matches_finite_differences():
    cfg = MlpConfig(2, (4,), 3, "tanh", init_seed=5)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(8, 2))
    y = rng.integers(0, 3, size=8)

    def loss(theta):
        return mean_nll(cfg, theta, x, y, "classification")

    theta = init_params(cfg)
    _, grad = value_and_grad(loss, theta)
    h = 1e-5
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (value_and_grad(loss, up)[0] - value_and_grad(loss, down)[0]) / (2 * h)
        assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-5


def test_init_is_seeded_and_layerwise():
    cfg = MlpConfig(2, (4,), 2, "tanh", init_seed=9)
    a, b = init_params(cfg), init_params(cfg)
    np.testing.assert_array_equal(a, b)
    other = init_params(MlpConfig(2, (4,), 2, "tanh", init_seed=10))
    assert not np.array_equal(a, other)
    # biases start at zero: layer 0 biases sit right after the 2x4 weights
    np.testing.assert_array_equal(a[8:12], np.zeros(4))
    assert np.all(np.abs(a[:8]) <= np.sqrt(6.0 / 2.0))


def test_dimension_mismatches_rejected():
    cfg = MlpConfig(2, (3,), 2, "tanh", init_seed=0)
    with pytest.raises(ValueError, match="shape"):
        mlp_forward(cfg, init_params(cfg), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="length"):
        mlp_forward(cfg, np.zeros(5), np.zeros((4, 2)))


def test_regression_head_nll_matches_gaussian_formula():
    cfg = MlpConfig(1, (), 2, "tanh", init_seed=0)
    theta = np.array([0.5, 0.2, -0.1, 0.3])  # W=(1x2), b=(2)
    x = np.array([[1.0], [2.0], [-1.0]])
    y = np.array([0.4, 1.2, -0.6])
    out = mlp_forward(cfg, theta, x)
    mu, log_var = out[:, 0], out[:, 1]
    expected = 0.5 * np.mean(
        np.log(2 * np.pi) + log_var + (y - mu) ** 2 / np.exp(log_var)
    )
    value, _ = _nll_pass(cfg, "regression")(theta, x, y)
    assert value == pytest.approx(expected, abs=1e-12)
