import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqkit import cli
from uqkit.mlp import MlpConfig, init_params, mlp_forward, param_count
from uqkit.numerics import entropy, softmax
from uqkit.posterior import _SAMPLE_NORMALS, AdviState, EnsembleState, LaplaceState, MapState
from uqkit.posterior import SwagState
from uqkit.predictive import (
    BLOCK_ROWS,
    credible_interval_regression,
    predictive_mean_classification,
    predictive_moments_regression,
    sample_weights,
)
from uqkit.rng import Rng


def clf_cfg(k=3, seed=0):
    return MlpConfig(2, (4,), k, "tanh", init_seed=seed)


def reg_cfg(seed=0):
    return MlpConfig(2, (4,), 2, "tanh", init_seed=seed)


def ensemble_with_logit_gap(cfg, gap):
    """Two members that differ only in the output bias of class 0."""
    base = init_params(cfg)
    a, b = base.copy(), base.copy()
    p = param_count(cfg)
    a[p - cfg.output_dim] += gap
    b[p - cfg.output_dim] -= gap
    return EnsembleState((a, b))


class TestClassification:
    def test_map_state_collapses_to_softmax_exactly(self):
        cfg = clf_cfg()
        theta = init_params(cfg)
        x = np.random.default_rng(0).normal(size=(7, 2))
        thetas, _ = sample_weights(MapState(theta), seed=1)
        probs = predictive_mean_classification(thetas, cfg, x)
        np.testing.assert_array_equal(probs, softmax(mlp_forward(cfg, theta, x), axis=1))

    def test_symmetric_ensemble_averages_to_half(self):
        cfg = clf_cfg(k=2)
        state = ensemble_with_logit_gap(cfg, gap=40.0)
        x = np.zeros((3, 2))
        thetas, _ = sample_weights(state)
        probs = predictive_mean_classification(thetas, cfg, x)
        # one member pins class 0, the other class 1
        np.testing.assert_allclose(probs, 0.5, atol=1e-10)
        h = entropy(probs, axis=-1)
        np.testing.assert_allclose(h, math.log(2.0), atol=1e-9)

    def test_rows_normalized_and_entropy_bounded(self):
        cfg = clf_cfg(k=4)
        state = MapState(init_params(cfg))
        x = np.random.default_rng(1).normal(size=(20, 2))
        thetas, _ = sample_weights(state)
        probs = predictive_mean_classification(thetas, cfg, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        h = entropy(probs, axis=-1)
        assert np.all(h >= 0) and np.all(h <= math.log(4.0) + 1e-12)

    def test_default_sample_counts(self):
        cfg = clf_cfg(k=2)
        assert len(sample_weights(MapState(init_params(cfg)))[0]) == 1
        assert len(sample_weights(ensemble_with_logit_gap(cfg, 1.0))[0]) == 2
        advi = AdviState(mean=init_params(cfg), log_std=np.zeros(param_count(cfg)))
        assert len(sample_weights(advi)[0]) == 30
        assert len(sample_weights(advi, n_samples=7)[0]) == 7
        with pytest.raises(ValueError, match="at least 1"):
            sample_weights(advi, n_samples=0)

    def test_same_seed_same_draws_and_stream(self):
        cfg = clf_cfg(k=2)
        advi = AdviState(mean=init_params(cfg), log_std=np.zeros(param_count(cfg)))
        a, rng_a = sample_weights(advi, n_samples=3, seed=4)
        b, rng_b = sample_weights(advi, n_samples=3, seed=4)
        np.testing.assert_array_equal(np.stack(a), np.stack(b))
        np.testing.assert_array_equal(rng_a.normals(5), rng_b.normals(5))


class TestSwagPredictiveStability:
    def test_large_sample_average_is_seed_stable(self):
        # Monte Carlo stability oracle: with 1e4 draws, two independent
        # predictive seeds agree to < 0.01 per probability entry
        from uqkit.posterior import SwagState

        cfg = MlpConfig(1, (), 2, "tanh", init_seed=0)
        p = param_count(cfg)
        rng = np.random.default_rng(0)
        mean = rng.normal(size=p)
        state = SwagState(
            mean=mean,
            diag_second_moment=mean**2 + rng.uniform(0.05, 0.2, size=p),
            deviations=0.3 * rng.normal(size=(p, 2)),
            rank=2,
            snapshots=6,
        )
        x = np.array([[0.0], [1.0], [-2.0]])
        a = predictive_mean_classification(
            sample_weights(state, n_samples=10_000, seed=1)[0], cfg, x
        )
        b = predictive_mean_classification(
            sample_weights(state, n_samples=10_000, seed=2)[0], cfg, x
        )
        assert np.max(np.abs(a - b)) < 0.01


class TestRegressionMoments:
    def test_point_mass_has_zero_epistemic(self):
        cfg = reg_cfg()
        state = MapState(init_params(cfg))
        x = np.random.default_rng(2).normal(size=(9, 2))
        moments = predictive_moments_regression(sample_weights(state)[0], cfg, x)
        np.testing.assert_array_equal(moments.epistemic, np.zeros(9))
        out = mlp_forward(cfg, state.theta, x)
        np.testing.assert_array_equal(moments.mean, out[:, 0])
        np.testing.assert_array_equal(moments.aleatoric, np.exp(out[:, 1]))

    def test_two_sample_population_convention(self):
        # members predicting means +/-1 with ~zero noise: epistemic = 1
        cfg = reg_cfg()
        base = init_params(cfg)
        p = param_count(cfg)
        a, b = base.copy(), base.copy()
        # zero hidden->out weights, then steer the output biases directly
        a[-(2 + 4 * 2):] = 0.0
        b[-(2 + 4 * 2):] = 0.0
        a[p - 2], a[p - 1] = 1.0, -200.0
        b[p - 2], b[p - 1] = -1.0, -200.0
        state = EnsembleState((a, b))
        x = np.zeros((4, 2))
        moments = predictive_moments_regression(sample_weights(state)[0], cfg, x)
        np.testing.assert_allclose(moments.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(moments.epistemic, 1.0, atol=1e-12)
        np.testing.assert_allclose(moments.aleatoric, 0.0, atol=1e-12)

    def test_parts_sum_to_total_exactly(self):
        cfg = reg_cfg(seed=4)
        state = AdviState(
            mean=init_params(cfg), log_std=np.full(param_count(cfg), -2.0)
        )
        x = np.random.default_rng(3).normal(size=(6, 2))
        moments = predictive_moments_regression(
            sample_weights(state, n_samples=12, seed=5)[0], cfg, x
        )
        np.testing.assert_array_equal(
            moments.variance, moments.aleatoric + moments.epistemic
        )


class TestCredibleIntervals:
    def make_unit_noise_map(self):
        # linear head: mean = 0, logvar = 0 (unit predictive noise)
        cfg = MlpConfig(1, (), 2, "tanh", init_seed=0)
        return MapState(np.zeros(param_count(cfg))), cfg

    def test_gaussian_quantile_oracle(self):
        state, cfg = self.make_unit_noise_map()
        x = np.zeros((1, 1))
        thetas, rng = sample_weights(state, n_samples=100_000, seed=2)
        moments = predictive_moments_regression(thetas, cfg, x)
        out = credible_interval_regression(moments, 0.3173, rng)
        np.testing.assert_allclose(out.lower, [-1.0], atol=0.02)
        np.testing.assert_allclose(out.upper, [1.0], atol=0.02)

    def test_identical_draws_degenerate(self):
        cfg = reg_cfg()
        state = MapState(init_params(cfg))
        x = np.random.default_rng(4).normal(size=(3, 2))
        # clamp the noise by steering logvar far down: rebuild theta
        theta = state.theta.copy()
        theta[-(2 + 4 * 2):] = 0.0
        theta[-1] = -800.0  # exp underflows to exactly 0
        thetas, rng = sample_weights(MapState(theta), n_samples=50)
        out = credible_interval_regression(
            predictive_moments_regression(thetas, cfg, x), 0.2, rng
        )
        np.testing.assert_array_equal(out.lower, out.upper)

    def test_nesting_across_alpha(self):
        state, cfg = self.make_unit_noise_map()
        x = np.zeros((2, 1))

        def interval(alpha):
            # a fresh stream per call: both alphas see the same observations
            thetas, rng = sample_weights(state, n_samples=400, seed=7)
            moments = predictive_moments_regression(thetas, cfg, x)
            return credible_interval_regression(moments, alpha, rng)

        wide, narrow = interval(0.05), interval(0.2)
        assert np.all(wide.lower <= narrow.lower)
        assert np.all(wide.upper >= narrow.upper)

    def test_low_sample_warning(self):
        state, cfg = self.make_unit_noise_map()
        thetas, rng = sample_weights(state, n_samples=10)
        moments = predictive_moments_regression(thetas, cfg, np.zeros((1, 1)))
        with pytest.warns(UserWarning, match="draws") as record:
            for _ in range(3):  # three one-row blocks
                credible_interval_regression(moments, 0.01, rng)
        assert len(record) == 3  # pytest.warns records every warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            credible_interval_regression(moments, 0.2, rng)  # 10 draws suffice


def _record_counts(monkeypatch, cls, asked):
    normals = cls.normals

    def recording(self, n):
        asked.append(n)
        return normals(self, n)

    monkeypatch.setattr(cls, "normals", recording)


def test_draws_ask_the_stream_for_a_bounded_block_at_a_time(monkeypatch):
    # Rng.normals holds several temporaries as long as its count: drawing a
    # state's normals in one call raised the c9-swag benchmark's peak RSS by
    # 18% (44.7 to 52.6 MB). So a call draws whole rows, at most
    # _SAMPLE_NORMALS normals of them, and an interval one block's noise.
    asked = []
    _record_counts(monkeypatch, Rng, asked)
    cfg = reg_cfg()
    p, rank = param_count(cfg), 4
    gen = np.random.default_rng(0)
    mean = gen.normal(size=p)
    for state, width in [
        (SwagState(mean=mean, diag_second_moment=mean**2 + 0.1,
                   deviations=gen.normal(size=(p, rank)), rank=rank, snapshots=rank), p + rank),
        (LaplaceState(mode=mean, diag_precision=np.full(p, 4.0)), p),
        (AdviState(mean=mean, log_std=np.full(p, -2.0)), p),
    ]:
        asked.clear()
        n_samples = 2 * _SAMPLE_NORMALS // width + 5  # two full blocks and a part
        sample_weights(state, n_samples=n_samples, seed=1)
        assert len(asked) == 3 and sum(asked) == n_samples * width
        assert all(k <= _SAMPLE_NORMALS and k % width == 0 for k in asked)
    thetas, rng = sample_weights(state, n_samples=30, seed=1)
    moments = predictive_moments_regression(thetas, cfg, gen.normal(size=(9, 2)))
    asked.clear()
    # the interval's noise: one block's rows, every draw's normal of a row
    credible_interval_regression(moments, 0.1, rng)
    assert asked == [9 * 30]


def _one_pass_regression(thetas, cfg, x, alpha, rng):
    """Predictive moments and credible intervals over all rows in one pass,
    row i's noise the normals i * S to i * S + S - 1 of one ``Rng.normals``
    call: the oracle for the blocked ``evaluate``."""
    outs = [mlp_forward(cfg, theta, x) for theta in thetas]
    mus = np.stack([out[:, 0] for out in outs])
    noise = np.stack([np.exp(out[:, 1]) for out in outs])
    s, n = mus.shape
    mean = mus.mean(axis=0)
    aleatoric, epistemic = noise.mean(axis=0), np.mean((mus - mean) ** 2, axis=0)
    variance = aleatoric + epistemic
    eps = rng.normals(n * s).reshape(n, s)
    draws = np.stack([mus[j] + np.sqrt(noise[j]) * eps[:, j] for j in range(s)])
    k_lo = max(math.ceil(0.5 * alpha * s), 1)
    k_hi = max(math.ceil((1.0 - 0.5 * alpha) * s), 1)
    bounds = [np.partition(draws, k - 1, axis=0)[k - 1] for k in (k_lo, k_hi)]
    return np.stack([mean, variance, aleatoric, epistemic, np.sqrt(variance)]), bounds


# odd counts, counts below one block and exact multiples of a block
_ROWS = st.one_of(
    st.sampled_from([1, 2, 3, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2,
                     2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS]),
    st.integers(1, 3 * BLOCK_ROWS + 7),
)


# Small layers: past some product size (rows x inputs x outputs, the
# README's evaluate section) OpenBLAS multiplies by another kernel, and
# one pass's rows stop matching the 1,024-row blocks' in the last bits.
@settings(max_examples=30, deadline=None, database=None)
@given(n=_ROWS, draws=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       cached=st.booleans(), alpha=st.sampled_from([0.05, 0.2, 0.9]))
def test_blocked_regression_equals_one_pass(n, draws, seed, cached, alpha):
    cfg = MlpConfig(2, (8, 8), 2, "tanh", init_seed=seed % 101)
    p = param_count(cfg)
    state = AdviState(mean=init_params(cfg), log_std=np.full(p, -1.5))
    thetas, rng = sample_weights(state, n_samples=draws, seed=seed)
    _, ref = sample_weights(state, n_samples=draws, seed=seed)
    if cached != (rng._cached_normal is not None):  # one normal flips it
        rng.normals(1), ref.normals(1)
    x = np.random.default_rng(seed).normal(size=(n, 2)) * 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few draws for alpha
        table, intervals = cli._predict_regression(thetas, rng, cfg, x, alpha)
    want, (lower, upper) = _one_pass_regression(thetas, cfg, x, alpha, ref)
    assert table.tobytes() == want.tobytes()
    assert intervals.lower.tobytes() == lower.tobytes()
    assert intervals.upper.tobytes() == upper.tobytes()
    assert not intervals.collapsed.any()
    assert (rng._state, rng._cached_normal) == (ref._state, ref._cached_normal)


@settings(max_examples=20, deadline=None, database=None)
@given(n=_ROWS, draws=st.integers(1, 12), k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_blocked_class_mean_equals_one_pass(n, draws, k, seed):
    cfg = MlpConfig(2, (8,), k, "relu", init_seed=seed % 101)
    state = AdviState(mean=init_params(cfg), log_std=np.full(param_count(cfg), -1.0))
    thetas, _ = sample_weights(state, n_samples=draws, seed=seed)
    x = np.random.default_rng(seed).normal(size=(n, 2)) * 2.0
    want = np.mean([softmax(mlp_forward(cfg, theta, x), axis=1) for theta in thetas], axis=0)
    assert predictive_mean_classification(thetas, cfg, x).tobytes() == want.tobytes()
