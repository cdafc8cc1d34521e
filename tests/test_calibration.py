import dataclasses
import json
import math

import numpy as np
import pytest

from uqkit.calibration import (
    T_MAX,
    T_MIN,
    apply_temperature,
    fit_temperature,
    fit_variance_scale,
)
from uqkit.metrics import nll_classification
from uqkit.numerics import entropy, softmax


def sample_logits(rng, n, k, scale=2.0):
    return rng.normal(scale=scale, size=(n, k))


class TestApplyTemperature:
    def test_identity_at_one(self):
        z = np.array([[2.0, 0.0, -1.0], [0.3, 0.3, 0.3]])
        np.testing.assert_array_equal(apply_temperature(z, 1.0), softmax(z, axis=1))

    def test_direct_evaluation_t2(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), 2.0)
        np.testing.assert_allclose(p, [[0.73105857863000487, 0.26894142136999512]])

    def test_high_temperature_flattens(self):
        p = apply_temperature(np.array([[2.0, 0.0]]), T_MAX)
        assert abs(p[0, 0] - 0.5) < 0.01
        np.testing.assert_allclose(p, softmax([[0.02, 0.0]], axis=1))

    def test_argmax_preserved_on_random_rows(self):
        rng = np.random.default_rng(0)
        z = sample_logits(rng, 1000, 5, scale=3.0)
        base = z.argmax(axis=1)
        for t in (0.01, 0.3, 1.0, 7.0, 100.0):
            assert np.array_equal(apply_temperature(z, t).argmax(axis=1), base)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            apply_temperature([[1.0, 0.0]], 0.001)

    def test_quotient_past_the_float_range(self):
        # 1.7e308 / 0.5 overflows, yet the probabilities are well defined
        z = np.array([[1.7e308, 0.0], [-1.7e308, 1.7e308], [2.0, 0.0]])
        p = apply_temperature(z, 0.5)
        np.testing.assert_array_equal(p[:2], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(p[2], softmax(z[2] / 0.5))


class TestFitTemperature:
    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            z = sample_logits(rng, 50, 4, scale=rng.uniform(0.5, 5.0))
            y = rng.integers(0, 4, size=50)
            fit = fit_temperature(z, y)
            assert fit.nll_after <= fit.nll_before + 1e-12
            assert fit.nll_after == pytest.approx(
                nll_classification(apply_temperature(z, fit.temperature), y),
                abs=1e-12,
            )

    def test_single_sample_hits_lower_bound(self):
        # NLL of -log sigmoid(ln3 / t) is strictly decreasing in 1/t
        fit = fit_temperature(np.array([[math.log(3.0), 0.0]]), [0])
        assert fit.temperature == pytest.approx(T_MIN, abs=1e-4)
        assert fit.at_bound
        assert fit.warning is not None

    def test_recovers_generating_temperature(self):
        rng = np.random.default_rng(2)
        z = sample_logits(rng, 5000, 4, scale=3.0)
        probs = softmax(z / 2.0, axis=1)
        y = np.array([rng.choice(4, p=p) for p in probs])
        fit = fit_temperature(z, y)
        assert 1.8 <= fit.temperature <= 2.2

    def test_degenerate_rows_return_identity_with_warning(self):
        z = np.array([[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0]])
        fit = fit_temperature(z, [0, 2])
        assert fit.temperature == 1.0
        assert "degenerate" in fit.warning
        assert fit.nll_after == fit.nll_before

    def test_adam_path_agrees_with_golden(self):
        rng = np.random.default_rng(3)
        z = sample_logits(rng, 400, 3, scale=3.0)
        probs = softmax(z / 1.7, axis=1)
        y = np.array([rng.choice(3, p=p) for p in probs])
        golden = fit_temperature(z, y, method="golden")
        adam = fit_temperature(z, y, method="adam")
        assert abs(golden.temperature - adam.temperature) < 0.05
        assert adam.nll_after <= adam.nll_before + 1e-12

    def test_adam_stops_before_an_overflowing_step(self):
        # any beta above 1 overflows beta * logits
        fit = fit_temperature(np.array([[-1.7976931348623157e308, 0.0]]), [0], method="adam")
        assert fit.nll_after <= fit.nll_before
        assert T_MIN <= fit.temperature <= T_MAX
        assert fit.iterations < 300

    def test_label_validation(self):
        with pytest.raises(ValueError):
            fit_temperature([[0.0, 1.0]], [2])

    @pytest.mark.parametrize("method", ["golden", "adam"])
    def test_constant_rows_are_degenerate_whatever_their_mean_rounds_to(self, method):
        # 0.1 + 0.1 + 0.1 over 3 is 0.10000000000000002, not the row value
        fit = fit_temperature([[0.1, 0.1, 0.1]] * 4, [0, 1, 2, 0], method=method)
        assert (fit.temperature, fit.iterations) == (1.0, 0)
        assert "degenerate" in fit.warning

    @pytest.mark.parametrize("method", ["golden", "adam"])
    @pytest.mark.parametrize("seed", range(6))
    def test_the_fit_is_independent_of_the_logits_layout(self, method, seed):
        # overconfident logits; a row-major pass summed Fortran-ordered rows
        # in another order, and Adam's temperature moved in the last bits
        rng = np.random.default_rng(seed)
        z = sample_logits(rng, 2000, 10, scale=5.0)
        y = np.where(rng.random(2000) < 0.6, z.argmax(axis=1), rng.integers(0, 10, 2000))
        reversed_view = z[::-1, ::-1].copy()[::-1, ::-1]
        assert reversed_view.strides[0] < 0 and np.array_equal(reversed_view, z)
        fits = [fit_temperature(a, y, method) for a in (z, np.asfortranarray(z), reversed_view)]
        assert fits[0] == fits[1] == fits[2]

    @pytest.mark.parametrize(
        "logits, labels, method, kept",
        [
            ([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 1], "golden", False),
            ([[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 1], "adam", False),
            # calibrated at t = 1: sigmoid(ln 3) = 3/4, the share of label 0
            ([[math.log(3.0), 0.0]] * 4, [0, 0, 0, 1], "golden", True),
        ],
    )
    def test_the_fit_serializes_as_json(self, logits, labels, method, kept):
        fit = fit_temperature(logits, labels, method=method)
        assert (fit.temperature == 1.0) == kept
        assert json.loads(json.dumps(dataclasses.asdict(fit))) == dataclasses.asdict(fit)
        assert type(fit.at_bound) is bool


class TestVarianceScale:
    def test_closed_form_hand_example(self):
        fit = fit_variance_scale([0.0, 0.0], [1.0, 1.0], [2.0, -2.0])
        assert fit.scale == 4.0

    def test_identity_when_residuals_match_sigma(self):
        var = np.array([0.5, 2.0, 9.0])
        mu = np.zeros(3)
        fit = fit_variance_scale(mu, var, np.sqrt(var))
        assert fit.scale == pytest.approx(1.0, abs=1e-15)

    def test_zero_residuals_clamped_with_warning(self):
        fit = fit_variance_scale([1.0, 2.0], [1.0, 1.0], [1.0, 2.0])
        assert fit.scale == 1e-12
        assert fit.warning is not None

    def test_matches_numeric_minimizer(self):
        # independent oracle: ternary search on the Gaussian NLL over s
        rng = np.random.default_rng(4)

        def gaussian_nll(s, mu, var, y):
            return 0.5 * np.mean(np.log(2 * np.pi * s * var) + (y - mu) ** 2 / (s * var))

        for _ in range(20):
            n = int(rng.integers(3, 40))
            mu = rng.normal(size=n)
            var = rng.uniform(0.2, 3.0, size=n)
            y = mu + rng.normal(size=n) * np.sqrt(var) * rng.uniform(0.3, 2.0)
            lo, hi = 1e-3, 1e3
            for _ in range(300):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if gaussian_nll(m1, mu, var, y) < gaussian_nll(m2, mu, var, y):
                    hi = m2
                else:
                    lo = m1
            numeric = 0.5 * (lo + hi)
            assert abs(fit_variance_scale(mu, var, y).scale - numeric) < 1e-6

    def test_scale_past_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            fit_variance_scale([0.0], [1.0], [1.4e154])

    def test_nonpositive_variances_rejected(self):
        with pytest.raises(ValueError):
            fit_variance_scale([0.0], [0.0], [1.0])


class TestCalibratedEntropy:
    """Entropies of temperature-scaled rows, as ``uqkit calibrate`` takes them."""

    def test_uniform_row(self):
        h = entropy(apply_temperature(np.array([[1.0, 1.0, 1.0, 1.0]]), 1.0), axis=-1)
        np.testing.assert_allclose(h, [math.log(4.0)], atol=1e-12)

    def test_one_hot_limit(self):
        h = entropy(apply_temperature(np.array([[500.0, -500.0]]), 1.0), axis=-1)
        np.testing.assert_allclose(h, [0.0], atol=1e-12)

    def test_direct_evaluation(self):
        h = entropy(apply_temperature(np.array([[2.0, 0.0]]), 2.0), axis=-1)
        p = 0.73105857863000487
        expected = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        np.testing.assert_allclose(h, [expected], atol=1e-12)

    def test_nondecreasing_in_temperature(self):
        rng = np.random.default_rng(5)
        z = rng.normal(scale=3.0, size=(20, 4))
        grid = [0.05, 0.2, 0.5, 1.0, 2.0, 10.0, 50.0]
        values = np.stack([entropy(apply_temperature(z, t), axis=-1) for t in grid])
        assert np.all(np.diff(values, axis=0) >= -1e-10)
        assert np.all(values >= -1e-15) and np.all(values <= math.log(4.0) + 1e-12)
