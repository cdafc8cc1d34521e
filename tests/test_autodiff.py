import ast
import math
from pathlib import Path

import numpy as np
import pytest

import uqkit
from uqkit import autodiff as ad
from uqkit.autodiff import Tape, value_and_grad
from uqkit.numerics import softmax


def finite_diff(f, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (value_and_grad(f, up)[0] - value_and_grad(f, down)[0]) / (2 * h)
    return g


def assert_grad_matches(f, theta, rtol=1e-5, floor=1e-8):
    _, g = value_and_grad(f, theta)
    fd = finite_diff(f, theta)
    err = np.abs(g - fd) / np.maximum(np.abs(fd), floor)
    assert err.max() < rtol, f"max relative error {err.max()}"


def test_square():
    value, grad = value_and_grad(lambda x: ad.vsum(x * x), np.array([3.0]))
    assert value == 9.0
    np.testing.assert_allclose(grad, [6.0])


def test_sum_gradient_is_ones():
    for n in (1, 4, 9):
        _, grad = value_and_grad(ad.vsum, np.arange(n, dtype=float))
        np.testing.assert_array_equal(grad, np.ones(n))


def test_softmax_classifier_nll_matches_finite_differences():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 4, size=5)
    onehot = np.zeros((5, 4))
    onehot[np.arange(5), y] = 1.0

    def nll(theta):
        w = ad.reshape(ad.take_slice(theta, 0, 12), (3, 4))
        b = ad.take_slice(theta, 12, 16)
        z = x @ w + b
        m = ad.vmax(z, axis=1)
        lse = m + ad.log(ad.vsum(ad.exp(z - ad.reshape(m, (5, 1))), axis=1))
        return ad.vsum(lse - ad.vsum(z * onehot, axis=1)) / 5.0

    assert_grad_matches(nll, rng.normal(size=16))


def test_hundred_random_compositions_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        c = rng.normal(size=n)
        pick = trial % 5

        def f(x, a=a, c=c, n=n, pick=pick):
            m = ad.reshape(x, (n, 1)) @ ad.reshape(x, (1, n))
            if pick == 0:
                return ad.vsum(ad.tanh(m @ a)) + ad.vsum(x * c)
            if pick == 1:
                return ad.vsum(ad.exp(0.3 * x)) / n + ad.vmax(m)
            if pick == 2:
                return ad.vsum(ad.log(1.5 + ad.tanh(m) * 0.4)) - ad.vsum(x / (2.0 + x * x))
            if pick == 3:
                z = a @ ad.reshape(x, (n, 1))
                s = ad.vsum(ad.relu(z))
                return s * s / (1.0 + ad.vsum(x * x))
            return ad.vsum((x - c) * (x - c)) + ad.vmax(x * x, axis=None)

        theta = rng.normal(size=n)
        # keep away from relu/max kinks so finite differences are valid
        assert_grad_matches(f, theta)


def test_relu_subgradient_zero_at_zero():
    _, grad = value_and_grad(lambda x: ad.vsum(ad.relu(x)), np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])


def test_max_reduce_ties_take_first_index():
    _, grad = value_and_grad(lambda x: ad.vmax(x), np.array([2.0, 5.0, 5.0]))
    np.testing.assert_array_equal(grad, [0.0, 1.0, 0.0])
    _, grad = value_and_grad(
        lambda x: ad.vsum(ad.vmax(ad.reshape(x, (2, 2)), axis=1)),
        np.array([1.0, 1.0, 3.0, 0.0]),
    )
    np.testing.assert_array_equal(grad, [1.0, 0.0, 1.0, 0.0])


def test_broadcast_add_unbroadcasts_gradient():
    x = np.ones((4, 3))

    def f(theta):
        w = ad.reshape(ad.take_slice(theta, 0, 9), (3, 3))
        return ad.vsum(ad.tanh(x @ w + ad.take_slice(theta, 9, 12)))

    assert_grad_matches(f, np.random.default_rng(3).normal(size=12))


def test_division_gradients():
    assert_grad_matches(
        lambda x: ad.vsum(1.0 / (1.0 + ad.exp(-x))) + ad.vsum(x / 3.0),
        np.array([0.4, -1.3, 0.9]),
    )


def test_unused_input_gets_zero_gradient():
    value, grad = value_and_grad(lambda x: ad.vsum(x * 0.0) + 5.0, np.array([1.0, 2.0]))
    assert value == 5.0
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_gradient_requires_scalar_output():
    tape = Tape()
    x = tape.input(np.array([1.0, 2.0]))
    y = x * 2.0
    with pytest.raises(ValueError):
        tape.gradient(y, x)


def test_multiple_backward_passes_on_one_tape():
    # per-output gradients, as the Laplace curvature pass uses them
    tape = Tape()
    x = tape.input(np.array([1.0, 2.0]))
    z = ad.reshape(x, (1, 2)) @ np.array([[1.0, 3.0], [2.0, 4.0]])
    g0 = tape.gradient(ad.vsum(ad.take_column(z, 0)), x)
    g1 = tape.gradient(ad.vsum(ad.take_column(z, 1)), x)
    np.testing.assert_array_equal(g0, [1.0, 2.0])
    np.testing.assert_array_equal(g1, [3.0, 4.0])


def test_lse_gradient_is_softmax():
    theta = np.array([0.2, -1.0, 3.0])

    def lse(x):
        m = ad.vmax(x)
        return m + ad.log(ad.vsum(ad.exp(x - m)))

    _, grad = value_and_grad(lse, theta)
    np.testing.assert_allclose(grad, softmax(theta), atol=1e-12)


def test_rejects_non_finite_parameters():
    with pytest.raises(ValueError):
        value_and_grad(lambda x: ad.vsum(x), np.array([np.nan]))


def _imports_autodiff(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [part for a in node.names for part in a.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [a.name for a in node.names]
        else:
            continue
        if "autodiff" in names:
            return True
    return False


def test_only_autodiff_module_uses_the_tape():
    # the tape is the test oracle; the library's runtime path must not reach it
    for spelling in ("from . import autodiff as ad", "from .autodiff import Tape",
                     "import uqkit.autodiff", "from uqkit import autodiff"):
        assert _imports_autodiff(spelling), spelling
    assert not _imports_autodiff("from .mlp import mlp_backward")
    sources = sorted(Path(uqkit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    offenders = [
        p.name for p in sources
        if p.name != "autodiff.py" and _imports_autodiff(p.read_text(encoding="utf-8"))
    ]
    assert offenders == []
