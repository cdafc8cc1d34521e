import math
from dataclasses import fields

import numpy as np
import pytest

from uqkit.data import CLASSIFICATION, REGRESSION, Dataset, synth_classification
from uqkit.mlp import MlpConfig, init_params, param_count
from uqkit.posterior import (
    AdviState,
    LaplaceState,
    MapState,
    OptimConfig,
    SwagMoments,
    SwagState,
    advi_fit,
    advi_objective,
    ensemble_fit,
    laplace_fit,
    load_state,
    map_fit,
    posterior_sample,
    save_state,
    swag_fit,
    swag_sample,
)
from uqkit.autodiff import value_and_grad
from uqkit.rng import Rng, child_seed


def linear_regression_ds(seed=0, n=30, d=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    return Dataset(inputs=x, targets=y, task=REGRESSION, feature_names=tuple("ab"))


def linear_cfg(d=2, seed=0):
    return MlpConfig(
        input_dim=d, hidden_widths=(), output_dim=2, activation="tanh", init_seed=seed
    )


class TestMapFit:
    def test_converges_to_ridge_solution(self):
        # convex subproblem: with the variance head held at its optimum,
        # the mean head solves a weighted ridge problem exactly; compare
        # the fitted mean weights to that normal-equations solution
        ds = linear_regression_ds(seed=1, n=60)
        cfg = linear_cfg()
        wd = 0.5
        n = ds.n
        opt = OptimConfig(
            algorithm="adam", learning_rate=0.003, epochs=8000, batch_size=60,
            weight_decay=wd, seed=0,
        )
        result = map_fit(cfg, ds, opt)
        assert not result.diverged
        theta = result.state.theta
        w = np.array([theta[0], theta[2], theta[4]])  # mean weights + bias
        log_var = np.column_stack([ds.inputs, np.ones(n)]) @ np.array(
            [theta[1], theta[3], theta[5]]
        )
        d_inv = np.exp(-log_var)
        xa = np.column_stack([ds.inputs, np.ones(n)])
        ridge = np.linalg.solve(
            xa.T @ (d_inv[:, None] * xa) / n + wd * np.eye(3),
            xa.T @ (d_inv * ds.targets) / n,
        )
        np.testing.assert_allclose(w, ridge, atol=1e-4)

    def test_trace_length_and_decrease(self):
        ds = synth_classification("gaussian_blobs", 40, 0.4, seed=0)
        cfg = MlpConfig(2, (6,), 3, "tanh", init_seed=2)
        opt = OptimConfig(learning_rate=0.01, epochs=12, batch_size=10, seed=1)
        result = map_fit(cfg, ds, opt)
        assert len(result.trace) == 12
        assert result.trace[-1] <= result.trace[0]

    def test_same_seed_is_bit_identical(self):
        ds = synth_classification("two_moons", 30, 0.2, seed=3)
        cfg = MlpConfig(2, (4,), 2, "relu", init_seed=5)
        opt = OptimConfig(learning_rate=0.01, epochs=5, batch_size=8, seed=7)
        a = map_fit(cfg, ds, opt)
        b = map_fit(cfg, ds, opt)
        np.testing.assert_array_equal(a.state.theta, b.state.theta)
        assert a.trace == b.trace

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            OptimConfig(epochs=0)


# every gradient fit shares the training loop's divergence contract
_DIVERGING_FITS = {
    "map_fit": map_fit,
    "swag_fit": lambda cfg, ds, opt: swag_fit(
        MapState(init_params(cfg)), cfg, ds, opt, rank=2, snapshot_every=1
    ),
    "advi_fit": advi_fit,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fit", list(_DIVERGING_FITS))
def test_divergence_returns_last_finite_state(fit):
    ds = linear_regression_ds(seed=2, n=20)
    cfg = linear_cfg()
    opt = OptimConfig(
        algorithm="sgd", learning_rate=1e12, epochs=5, batch_size=20, seed=0
    )
    result = _DIVERGING_FITS[fit](cfg, ds, opt)
    assert result.diverged
    for f in fields(result.state):
        value = getattr(result.state, f.name)
        if isinstance(value, np.ndarray):
            assert np.all(np.isfinite(value)), f.name
    assert len(result.trace) < opt.epochs


class TestEnsemble:
    def test_members_differ_and_replay(self):
        ds = synth_classification("two_moons", 40, 0.25, seed=1)
        cfg = MlpConfig(2, (6,), 2, "tanh", init_seed=3)
        opt = OptimConfig(learning_rate=0.02, epochs=8, batch_size=16, seed=9)
        result = ensemble_fit(cfg, ds, opt, members=3)
        members = result.state.members
        assert len(members) == 3
        assert not np.array_equal(members[0], members[1])
        replay = ensemble_fit(cfg, ds, opt, members=3)
        for a, b in zip(members, replay.state.members):
            np.testing.assert_array_equal(a, b)

    def test_members_equal_standalone_child_fits(self):
        # scheduling independence: member m is exactly the standalone fit
        # with the derived child seeds, so execution order cannot matter
        from dataclasses import replace

        ds = synth_classification("two_moons", 30, 0.25, seed=2)
        cfg = MlpConfig(2, (5,), 2, "tanh", init_seed=4)
        opt = OptimConfig(learning_rate=0.02, epochs=6, batch_size=10, seed=11)
        result = ensemble_fit(cfg, ds, opt, members=2)
        for m in range(2):
            solo = map_fit(
                replace(cfg, init_seed=child_seed(cfg.init_seed, m)),
                ds,
                replace(opt, seed=child_seed(opt.seed, m)),
            )
            np.testing.assert_array_equal(result.state.members[m], solo.state.theta)

    def test_needs_two_members(self):
        ds = synth_classification("two_moons", 20, 0.25, seed=0)
        with pytest.raises(ValueError):
            ensemble_fit(linear_cfg(), ds, OptimConfig(epochs=1), members=1)

    def test_two_member_two_moons_training_oracle(self):
        from uqkit.metrics import accuracy
        from uqkit.mlp import mlp_forward
        from uqkit.numerics import softmax

        ds = synth_classification("two_moons", 120, 0.15, seed=7)
        cfg = MlpConfig(2, (16, 16), 2, "relu", init_seed=0)
        opt = OptimConfig(learning_rate=0.01, epochs=40, batch_size=16, seed=1)
        result = ensemble_fit(cfg, ds, opt, members=2)
        assert not result.diverged
        for theta in result.state.members:
            assert np.all(np.isfinite(theta))
            probs = softmax(mlp_forward(cfg, theta, ds.inputs), axis=1)
            assert accuracy(probs, ds.targets) > 0.9


class TestSwagMoments:
    def test_two_snapshot_hand_computation(self):
        theta = np.array([1.0, -2.0, 0.5])
        tracker = SwagMoments(3, rank=2)
        tracker.update(theta)
        tracker.update(-theta)
        state = tracker.state()
        np.testing.assert_allclose(state.mean, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(state.diag_second_moment, theta**2, atol=1e-15)
        # deviations use the running mean after each fold-in
        np.testing.assert_allclose(state.deviations[:, 0], np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(state.deviations[:, 1], -theta, atol=1e-15)

    def test_maintained_moments_match_batch_recompute(self):
        rng = np.random.default_rng(0)
        snaps = [rng.normal(size=5) for _ in range(9)]
        tracker = SwagMoments(5, rank=3)
        for s in snaps:
            tracker.update(s)
        state = tracker.state()
        np.testing.assert_allclose(state.mean, np.mean(snaps, axis=0), atol=1e-12)
        np.testing.assert_allclose(
            state.diag_second_moment, np.mean(np.square(snaps), axis=0), atol=1e-12
        )
        assert state.snapshots == 9 and state.rank == 3


class TestSwagFit:
    def zero_gradient_setup(self):
        # x = 0 and balanced labels put theta = 0 at a stationary point, so
        # Adam iterates are exactly constant (the degenerate-dynamics case)
        ds = Dataset(
            inputs=np.zeros((8, 2)),
            targets=np.array([0, 1] * 4, dtype=np.int64),
            task=CLASSIFICATION,
            feature_names=("a", "b"),
        )
        cfg = MlpConfig(2, (3,), 2, "relu", init_seed=0)
        return ds, cfg

    def test_constant_iterates_degenerate_moments(self):
        ds, cfg = self.zero_gradient_setup()
        start = MapState(np.zeros(param_count(cfg)))
        opt = OptimConfig(learning_rate=0.1, epochs=4, batch_size=8, seed=0)
        result = swag_fit(start, cfg, ds, opt, rank=2, snapshot_every=1)
        state = result.state
        np.testing.assert_array_equal(state.mean, start.theta)
        np.testing.assert_array_equal(
            state.diag_second_moment - state.mean**2, np.zeros_like(state.mean)
        )
        np.testing.assert_array_equal(state.deviations, np.zeros_like(state.deviations))
        assert state.snapshots == 4  # floor(total steps / snapshot_every)

    def test_snapshot_bookkeeping(self):
        ds = synth_classification("two_moons", 20, 0.3, seed=4)
        cfg = MlpConfig(2, (4,), 2, "tanh", init_seed=1)
        start = map_fit(cfg, ds, OptimConfig(epochs=3, batch_size=10, seed=0)).state
        opt = OptimConfig(epochs=6, batch_size=10, seed=2)  # 12 steps
        result = swag_fit(start, cfg, ds, opt, rank=2, snapshot_every=5)
        assert result.state.snapshots == 2
        assert result.state.deviations.shape[1] == 2

    def test_insufficient_snapshots_error_names_requirement(self):
        ds = synth_classification("two_moons", 20, 0.3, seed=4)
        cfg = MlpConfig(2, (4,), 2, "tanh", init_seed=1)
        start = MapState(init_params(cfg))
        opt = OptimConfig(epochs=2, batch_size=10, seed=0)  # 4 steps
        with pytest.raises(ValueError, match="steps"):
            swag_fit(start, cfg, ds, opt, rank=5, snapshot_every=1)


class TestSwagSample:
    def toy_state(self):
        mean = np.array([1.0, -1.0, 0.5])
        var = np.array([0.4, 0.9, 0.1])
        dev = np.array([[0.6, -0.2], [0.1, 0.5], [-0.3, 0.4]])
        return SwagState(
            mean=mean,
            diag_second_moment=var + mean**2,
            deviations=dev,
            rank=2,
            snapshots=5,
        )

    def test_zero_spread_returns_mean_exactly(self):
        mean = np.array([0.3, -2.0])
        state = SwagState(
            mean=mean,
            diag_second_moment=mean**2,
            deviations=np.zeros((2, 2)),
            rank=2,
            snapshots=3,
        )
        draw = swag_sample(state, Rng(0))
        np.testing.assert_array_equal(draw, mean)

    def test_deterministic_per_seed(self):
        state = self.toy_state()
        np.testing.assert_array_equal(
            swag_sample(state, Rng(5)), swag_sample(state, Rng(5))
        )

    def test_covariance_sanity(self):
        state = self.toy_state()
        rng = Rng(7)
        draws = np.stack([swag_sample(state, rng) for _ in range(20_000)])
        var = state.diag_second_moment - state.mean**2
        expected = 0.5 * np.diag(var) + state.deviations @ state.deviations.T / 2.0
        sample_cov = np.cov(draws.T, bias=True)
        np.testing.assert_allclose(sample_cov, expected, rtol=0.12, atol=0.02)

    def test_rank_one_falls_back_to_diagonal(self):
        mean = np.array([2.0])
        state = SwagState(
            mean=mean,
            diag_second_moment=mean**2 + 4.0,
            deviations=np.full((1, 1), 100.0),
            rank=1,
            snapshots=1,
        )
        rng = Rng(1)
        z = Rng(1).normals(1)[0]
        draw = swag_sample(state, rng)
        np.testing.assert_allclose(draw, mean + 2.0 * z / np.sqrt(2.0), atol=1e-12)


class TestLaplace:
    def test_linear_gaussian_exactness(self):
        rng = np.random.default_rng(42)
        n, d = 40, 3
        x = rng.normal(size=(n, d))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n)
        ds = Dataset(inputs=x, targets=y, task=REGRESSION, feature_names=tuple("abc"))
        cfg = linear_cfg(d=d)
        theta = np.zeros(param_count(cfg))  # logvar weights 0 -> sigma^2 = 1
        lam = 1.7
        state = laplace_fit(MapState(theta), cfg, ds, prior_precision=lam)
        expected = np.full(param_count(cfg), lam)
        for j in range(d):  # mean-head weight for feature j sits at 2j
            expected[2 * j] += np.sum(x[:, j] ** 2)
        expected[2 * d] += n  # mean bias
        np.testing.assert_allclose(state.diag_precision, expected, atol=1e-8)

    def test_prior_domination(self):
        ds = linear_regression_ds(seed=5, n=15)
        cfg = linear_cfg()
        theta = init_params(cfg)
        state = laplace_fit(MapState(theta), cfg, ds, prior_precision=1e12)
        variance = 1.0 / state.diag_precision
        assert np.all(variance <= 1e-12)

    def test_ggn_nonnegative_for_classification(self):
        ds = synth_classification("gaussian_blobs", 30, 0.5, seed=6)
        cfg = MlpConfig(2, (5,), 3, "tanh", init_seed=0)
        result = map_fit(cfg, ds, OptimConfig(epochs=5, batch_size=10, seed=0))
        lam = 0.25
        state = laplace_fit(result.state, cfg, ds, prior_precision=lam)
        assert np.all(state.diag_precision >= lam - 1e-12)


class TestAdvi:
    def test_elbo_gradient_matches_finite_differences_at_fixed_noise(self):
        ds = linear_regression_ds(seed=7, n=12)
        cfg = linear_cfg()
        p = param_count(cfg)
        zs = [np.random.default_rng(1).normal(size=p) for _ in range(2)]

        def objective(phi):
            return advi_objective(
                cfg, phi, ds.inputs, ds.targets, ds.task, zs, 1.0, ds.n
            )

        phi = np.concatenate([0.1 * np.arange(p), np.full(p, -1.0)])
        _, grad = value_and_grad(objective, phi)
        h = 1e-5
        for i in range(2 * p):
            up, down = phi.copy(), phi.copy()
            up[i] += h
            down[i] -= h
            fd = (
                value_and_grad(objective, up)[0]
                - value_and_grad(objective, down)[0]
            ) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_prior_domination_pulls_mean_to_zero(self):
        ds = linear_regression_ds(seed=8, n=20)
        cfg = linear_cfg()
        opt = OptimConfig(learning_rate=0.05, epochs=200, batch_size=20, seed=0)
        result = advi_fit(cfg, ds, opt, mc_samples=2, prior_precision=1e8)
        assert np.max(np.abs(result.state.mean)) < 1e-2

    def test_same_seed_identical_trace(self):
        ds = linear_regression_ds(seed=9, n=15)
        cfg = linear_cfg()
        opt = OptimConfig(learning_rate=0.02, epochs=10, batch_size=5, seed=3)
        a = advi_fit(cfg, ds, opt, mc_samples=2)
        b = advi_fit(cfg, ds, opt, mc_samples=2)
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.state.mean, b.state.mean)

    def test_elbo_trend(self):
        ds = linear_regression_ds(seed=10, n=30)
        cfg = linear_cfg()
        opt = OptimConfig(learning_rate=0.02, epochs=80, batch_size=30, seed=1)
        result = advi_fit(cfg, ds, opt, mc_samples=4)
        assert not result.diverged
        assert result.trace[-1] >= result.trace[0]


class TestPosteriorSample:
    def test_map_copies(self):
        theta = np.array([1.0, 2.0])
        draws = posterior_sample(MapState(theta), Rng(0), 3)
        assert len(draws) == 3
        for d in draws:
            np.testing.assert_array_equal(d, theta)
            assert d is not theta

    def test_ensemble_round_robin(self):
        members = (np.array([0.0]), np.array([1.0]))
        from uqkit.posterior import EnsembleState

        draws = posterior_sample(EnsembleState(members), Rng(0), 5)
        assert [float(d[0]) for d in draws] == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_advi_degenerate_log_std(self):
        mean = np.array([0.7, -0.3])
        state = AdviState(mean=mean, log_std=np.full(2, -1e9))
        for draw in posterior_sample(state, Rng(4), 4):
            np.testing.assert_array_equal(draw, mean)

    def test_laplace_variance_matches_inverse_precision(self):
        precision = np.array([4.0, 0.25, 1.0])
        state = LaplaceState(mode=np.zeros(3), diag_precision=precision)
        rng = Rng(8)
        draws = np.stack(posterior_sample(state, rng, 100_000))
        np.testing.assert_allclose(draws.var(axis=0), 1.0 / precision, rtol=0.05)


class TestSerialization:
    def test_round_trip_all_kinds(self, tmp_path):
        cfg = MlpConfig(2, (3,), 2, "relu", init_seed=1)
        p = param_count(cfg)
        rng = np.random.default_rng(0)
        from uqkit.posterior import EnsembleState

        states = [
            MapState(rng.normal(size=p)),
            EnsembleState((rng.normal(size=p), rng.normal(size=p))),
            SwagState(
                mean=rng.normal(size=p),
                diag_second_moment=rng.uniform(1, 2, size=p),
                deviations=rng.normal(size=(p, 3)),
                rank=3,
                snapshots=7,
            ),
            LaplaceState(mode=rng.normal(size=p), diag_precision=rng.uniform(0.5, 2, p)),
            AdviState(mean=rng.normal(size=p), log_std=rng.normal(size=p)),
        ]
        for i, state in enumerate(states):
            path = tmp_path / f"state_{i}.json"
            save_state(path, state, cfg, CLASSIFICATION)
            loaded, model, task = load_state(path)
            assert type(loaded) is type(state)
            assert model == cfg and task == CLASSIFICATION
            for name in state.__dataclass_fields__:
                a, b = getattr(state, name), getattr(loaded, name)
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b)
                elif isinstance(a, tuple):
                    for x, y in zip(a, b):
                        np.testing.assert_array_equal(x, y)
                else:
                    assert a == b

    def test_unknown_format_rejected(self, tmp_path):
        from uqkit.errors import DataError

        path = tmp_path / "bad.json"
        path.write_text('{"format": 2, "kind": "map"}', encoding="utf-8")
        with pytest.raises(DataError, match="format"):
            load_state(path)
