import hashlib
import itertools
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqkit.data import CLASSIFICATION, REGRESSION, Dataset, synth_classification
from uqkit.mlp import MlpConfig, init_params, param_count
from uqkit.posterior import (
    AdviState,
    EnsembleState,
    LaplaceState,
    MapState,
    OptimConfig,
    SwagMoments,
    SwagState,
    _LAPLACE_JACOBIAN_FLOATS,
    _LAPLACE_ROWS,
    _advi_objective,
    _nll_pass,
    _penalized_objective,
    advi_fit,
    ensemble_fit,
    laplace_fit,
    load_state,
    map_fit,
    posterior_sample,
    save_state,
    swag_fit,
)
import uqkit.autodiff
import uqkit.posterior
from tape_oracle import advi_objective, laplace_ggn, penalized_loss
from sample_oracle import sample_list
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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


    def test_an_overflowing_snapshot_keeps_the_last_finite_moments(self):
        tracker = SwagMoments(3, rank=2)
        tracker.update(np.array([1.0, -2.0, 0.5]))
        before = tracker.state()
        tracker.update(np.array([1e200, 0.0, 0.0]))  # finite, but its square is not
        assert tracker.diverged
        tracker.update(np.array([3.0, 3.0, 3.0]))  # ignored once diverged
        after = tracker.state()
        for field in ("mean", "diag_second_moment", "deviations"):
            np.testing.assert_array_equal(getattr(after, field), getattr(before, field))
        assert after.snapshots == before.snapshots == 1


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
        draw = posterior_sample(state, Rng(0), 1)[0]
        np.testing.assert_array_equal(draw, mean)

    def test_deterministic_per_seed(self):
        state = self.toy_state()
        np.testing.assert_array_equal(
            posterior_sample(state, Rng(5), 1), posterior_sample(state, Rng(5), 1)
        )

    def test_covariance_sanity(self):
        state = self.toy_state()
        rng = Rng(7)
        draws = posterior_sample(state, rng, 20_000)
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
        draw = posterior_sample(state, rng, 1)[0]
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
        draws = posterior_sample(state, rng, 100_000)
        np.testing.assert_allclose(draws.var(axis=0), 1.0 / precision, rtol=0.05)


def _sampling_state(kind, p, rank, members, gen):
    """A ``kind`` state over p parameters. SWAG's variances include exact
    zeros and negative ones (clamped to zero); ADVI's log stds include
    values below the sampling floor."""
    mean = gen.normal(size=p)
    if kind == "map":
        return MapState(mean)
    if kind == "ensemble":
        return EnsembleState(tuple(gen.normal(size=p) for _ in range(members)))
    if kind == "swag":
        var = np.where(gen.uniform(size=p) < 0.2, 0.0, gen.normal(size=p))
        return SwagState(
            mean=mean, diag_second_moment=mean**2 + var,
            deviations=gen.normal(size=(p, rank)), rank=rank, snapshots=rank,
        )
    if kind == "laplace":
        return LaplaceState(mode=mean, diag_precision=gen.uniform(0.1, 10.0, size=p))
    return AdviState(mean=mean, log_std=gen.uniform(-150.0, 2.0, size=p))


@settings(max_examples=200, deadline=None, database=None)
@given(
    kind=st.sampled_from(["map", "ensemble", "swag", "laplace", "advi"]),
    p=st.sampled_from([1, 2, 7, 8, 33, 4482]),
    rank=st.sampled_from([1, 2, 3, 5, 20]),
    members=st.integers(2, 5),
    n_samples=st.sampled_from([None, 1, 2, 3, 30]),
    cached=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_posterior_sample_equals_the_per_draw_oracle(
    kind, p, rank, members, n_samples, cached, seed
):
    state = _sampling_state(kind, p, rank, members, np.random.default_rng(seed))
    ours, oracle = Rng(seed), Rng(seed)
    if cached:  # a stream mid-use may hold the sin half of a normal pair
        ours.normals(1)
        oracle.normals(1)
    draws = posterior_sample(state, ours, n_samples)
    expected = sample_list(state, oracle, n_samples)
    assert draws.dtype == np.float64 and draws.shape == (len(expected), p)
    assert [row.tobytes() for row in draws] == [e.tobytes() for e in expected]
    assert ours._state == oracle._state
    assert ours._cached_normal == oracle._cached_normal


@pytest.mark.parametrize("kind, rank", [("swag", 1), ("swag", 3), ("laplace", 1), ("advi", 1)])
@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("cached", [False, True])
def test_posterior_sample_block_edges_equal_the_per_draw_oracle(
    monkeypatch, kind, rank, block, cached
):
    # an odd row width, so normal pairs straddle rows and blocks; the bound
    # sits just below block + 1 rows, or for one row below a single row
    p = 7
    width = p + rank if kind == "swag" and rank >= 2 else p
    bound = (block + 1) * width - 1 if block > 1 else width - 1
    monkeypatch.setattr(uqkit.posterior, "_SAMPLE_NORMALS", bound)
    state = _sampling_state(kind, p, rank, 2, np.random.default_rng(block))
    for n_samples in (1, block, block + 1, 3 * block + 2):
        ours, oracle = Rng(n_samples), Rng(n_samples)
        if cached:
            ours.normals(1)
            oracle.normals(1)
        draws = posterior_sample(state, ours, n_samples)
        expected = sample_list(state, oracle, n_samples)
        assert [row.tobytes() for row in draws] == [e.tobytes() for e in expected]
        assert (ours._state, ours._cached_normal) == (oracle._state, oracle._cached_normal)


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


# ---------------------------------------------------------------------------
# the explicit gradient path: the tape is its oracle


def golden_ds(task):
    if task == CLASSIFICATION:
        return synth_classification("gaussian_blobs", 26, 0.6, seed=4)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(26, 2))
    y = np.sin(x[:, 0]) + 0.3 * x[:, 1] + 0.2 * rng.normal(size=26)
    return Dataset(inputs=x, targets=y, task=REGRESSION, feature_names=("a", "b"))


def fit_digest(result) -> str:
    """sha256 over every state field, the trace and the divergence flag."""
    h = hashlib.sha256()
    for name in sorted(vars(result.state)):
        h.update(name.encode())
        h.update(np.asarray(getattr(result.state, name), dtype=np.float64).tobytes())
    h.update(np.asarray(result.trace, dtype=np.float64).tobytes())
    h.update(b"diverged" if result.diverged else b"finite")
    return h.hexdigest()


def run_golden_case(fit, task, act, algo, extra):
    """``extra`` is the weight decay for map/swag and mc_samples for advi."""
    ds = golden_ds(task)
    cfg = MlpConfig(2, (5, 4), 3 if task == CLASSIFICATION else 2, act, init_seed=1)
    sgd_rate = 0.05 if fit != "advi" else 0.001
    opt = OptimConfig(
        algorithm=algo, learning_rate=sgd_rate if algo == "sgd" else 0.02,
        epochs=3, batch_size=8, weight_decay=extra if fit != "advi" else 0.0, seed=2,
    )
    if fit == "map":
        return map_fit(cfg, ds, opt)
    if fit == "swag":
        start = map_fit(cfg, ds, opt).state
        return swag_fit(start, cfg, ds, opt, rank=2, snapshot_every=2)
    return advi_fit(cfg, ds, opt, mc_samples=extra)


# Digests of the tape-trained fits, recorded before the explicit backward
# pass replaced the tape in training: any change to the training
# arithmetic fails here instead of drifting.
GOLDEN_FITS = {
    "map-cla-tanh-adam-0.0": "c8a046aa022347948dac5d1be71ac1c5b8f2cdb98d58b4fc892498b36dcd49ae",
    "map-cla-tanh-adam-0.1": "da8d3e9c3e0e1bf886e187a0f31771ca45505fdc0d60deb255cd7c3c6e779195",
    "map-cla-tanh-sgd-0.0": "986e52f5a490c73bb018b3f333cfbc25b934d61d055f0e6ac3a91fc23abc90a0",
    "map-cla-tanh-sgd-0.1": "5228b10331698153f87a22c829417ec360dda4b98409fde642a5d5efbe7d2673",
    "map-cla-relu-adam-0.0": "8f2e8b8da89377d07d105015925f5892dd08f0e1a24ad009842dd9ebec6839ea",
    "map-cla-relu-adam-0.1": "3c30d4e615648a25e7499cbc3d47b1ec8735f97b388cf530765a8c3c8e4e32ca",
    "map-cla-relu-sgd-0.0": "fd3d93a1b16c2fe842c8468f2a6fab1bb57c355e1b71a6d79b7cc64ce5b7dcd0",
    "map-cla-relu-sgd-0.1": "7e8cd57ecb34b459befed7ee3509978a49c9f9ea79b84b7c7de7c8def8f2a1a2",
    "map-reg-tanh-adam-0.0": "5bdf3ed3614d4f0815b9a5747d1ff4e35315f73358d4e347062c8eca62e809e0",
    "map-reg-tanh-adam-0.1": "7042d5ebedc481f2ab285ac353610bbd09c17008f91179451846c1a0e34f49e2",
    "map-reg-tanh-sgd-0.0": "747f025a4de2f0b2d92f88e5526b5344e1077aa3f8c12a6cf27f4e8aba8fdb96",
    "map-reg-tanh-sgd-0.1": "84cacd91419ba541dbbc82597e76464be7bc32b6d154fbe68587d5d24f9b4ea3",
    "map-reg-relu-adam-0.0": "2f055ea50e45eedbd748298f061b7848257cbe3b97fe1314296ce54bf00822ac",
    "map-reg-relu-adam-0.1": "7009f9ee5a3930dc708affd4cebd7a24c8138555958f9b78f0b16d9a5510ef32",
    "map-reg-relu-sgd-0.0": "4a5876bc5b6c6aadbe57162efaf1e92534e3215fd56a380b5f2d4f18b4ebb67d",
    "map-reg-relu-sgd-0.1": "cf8733159c0e77158804b8f994c2bbdd9b1a3960e66db1999dca52c79aedf585",
    "swag-cla-tanh-adam-0.0": "f88c8404e330f28ac9f12a2d18166efb9d4fa2db563299ce8e4f6b38dbabbebe",
    "swag-cla-tanh-adam-0.1": "59641414980b7bd9a055d183de70fbbe9588702dc177f323975e1684076335a9",
    "swag-cla-tanh-sgd-0.0": "75a5474fe084878aa9529984a343077885c8bd8c7816d55c237fd78e07f3b8aa",
    "swag-cla-tanh-sgd-0.1": "e017035e646f9a7313597eece809a96b68c199526068193ee6b2d10c3c1d1cb9",
    "swag-cla-relu-adam-0.0": "61e2459fa3d3bd0fedd8763fb43502472a091daca838a9249b1bdf8a48ec9248",
    "swag-cla-relu-adam-0.1": "c4e7cf54d8a13f1a3c27e86d2b4a03df6d002c17b2ec718f56dbf7a8fee3958d",
    "swag-cla-relu-sgd-0.0": "fdd5f58723a3c4b906e04d39dc9bc196f9b41927e4d9bb5fc03ce411bea0f390",
    "swag-cla-relu-sgd-0.1": "21bf6f554b00308a902a200c5ea078d80ca8efb6dd909946430593ce604ce808",
    "swag-reg-tanh-adam-0.0": "4fc60f7108d1d103476690f672c104090c2f374f1f483653a3f63d200683213a",
    "swag-reg-tanh-adam-0.1": "b63e1113e6618a733beddcc31909abd605f1616df8eefcb3edfb10c61276fd21",
    "swag-reg-tanh-sgd-0.0": "8d27c91c1173bda09d70f8e56af12b2f1455a142faadf50ed02fbc118d51792b",
    "swag-reg-tanh-sgd-0.1": "8de95770534cc0c42dd905c1aedd96a36e6b6c5a47d9f80b6aa01de5ddf8f454",
    "swag-reg-relu-adam-0.0": "578d189963ef0a605826e5d2ec7b270bfa0d3b5276624a1cf4e8888b798f502b",
    "swag-reg-relu-adam-0.1": "cb8d6053f766766bb3829cc823c2fa3e650a4b053003b6458fc6c4f9a5f8c5ac",
    "swag-reg-relu-sgd-0.0": "ca81ce56b3e4bfd42dc74b1955e1d594d1a27720a3f911db5d83117dcb1ddc79",
    "swag-reg-relu-sgd-0.1": "cc48ae4b97f47d4a886502b68cd563f5068c091480c1ad595049c91b8f37bb31",
    "advi-cla-tanh-adam-1": "e6aaf666e1e3cf900ffd048ac8cf2dd59ea2009af564ba6a194cb64e74313e8e",
    "advi-cla-tanh-adam-2": "fad1b263c1518833174e6de4b55756db94deb786663275451f41f51a2349572f",
    "advi-cla-tanh-sgd-1": "a6334161086f153f19a78be875a887d82dd4ad4a11228f2823dc73988b4fc43d",
    "advi-cla-tanh-sgd-2": "8b9a0a0d24076306bbad24a0b4dd50ef1052569e9465119815f1d7be54d44c2c",
    "advi-cla-relu-adam-1": "0da6c1ccd937f4fc1fda6c93c028d2471832452721e430d17271694aa908e006",
    "advi-cla-relu-adam-2": "2e6e0eeaf18c868b475b711f6d32a2a70987d9654c9e2815788b27853b6e4497",
    "advi-cla-relu-sgd-1": "acf6cd27c9a3a9412b97182cf023105c73ad861f2b8082c6ffcff4e04dbbe522",
    "advi-cla-relu-sgd-2": "0f92832a5b171adefa0f84e35c7c39fa6d863007d47f25faebdc7801e9f1bdb8",
    "advi-reg-tanh-adam-1": "f3cf21cc58bc44564975dce6b3b99181ae48bead292aafcb4d44f802e68f3c32",
    "advi-reg-tanh-adam-2": "2a6498238f2a7c3bb07dc03a6e9093b1806318cc325b2856758dd0b219393b49",
    "advi-reg-tanh-sgd-1": "0839b04f3dcc487eafe3ac787e2fca01657a222be158e12f5d9f1e0fef9c1fe8",
    "advi-reg-tanh-sgd-2": "b549cd2ca28b61191a3c4ee3537145daf92253171ffe10c29908808e78630598",
    "advi-reg-relu-adam-1": "b95f551c08af864ba0ecfe10b213d2ea1c506c76a331855ea2718aeab6a19e40",
    "advi-reg-relu-adam-2": "f2220e119be4de5d1847e65ad20bbbe8f6909c4cb7a4068970c64cba8aef20a7",
    "advi-reg-relu-sgd-1": "f129d579280782d2bd643b87f5b3703651d99ae33eb94417880d2c850ccfc660",
    "advi-reg-relu-sgd-2": "1a7c28402db429e11939e84efc5e75ee943e5fd3788a765f5c486396c8756a78",
}


def _golden_cases():
    for fit, task, act, algo in itertools.product(
        ("map", "swag", "advi"), (CLASSIFICATION, REGRESSION), ("tanh", "relu"), ("adam", "sgd")
    ):
        for extra in (0.0, 0.1) if fit != "advi" else (1, 2):
            key = f"{fit}-{task[:3]}-{act}-{algo}-{extra}"
            yield pytest.param(key, (fit, task, act, algo, extra), id=key)


@pytest.mark.parametrize("key, case", list(_golden_cases()))
def test_fit_replays_golden_digest(key, case):
    assert fit_digest(run_golden_case(*case)) == GOLDEN_FITS[key]


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("key", ["advi-cla-tanh-adam-2", "advi-reg-relu-sgd-1"])
def test_advi_noise_drawn_in_step_blocks_replays_golden_digest(monkeypatch, key, steps):
    # 4 steps an epoch: blocks of 3 steps and 1, or one step a call, where
    # the bound sits below a single step's normals
    fit, task, act, algo, mc_samples = next(
        param.values[1] for param in _golden_cases() if param.values[0] == key
    )
    width = mc_samples * param_count(MlpConfig(2, (5, 4), 3 if task == CLASSIFICATION else 2))
    bound = steps * width if steps > 1 else width - 1
    monkeypatch.setattr(uqkit.posterior, "_SAMPLE_NORMALS", bound)
    assert fit_digest(run_golden_case(fit, task, act, algo, mc_samples)) == GOLDEN_FITS[key]


class TestFitsBuildNoTape:
    """Every fit runs the explicit backward pass; none builds a tape."""

    @pytest.fixture
    def tapes(self, monkeypatch):
        made = []
        real = uqkit.autodiff.Tape.__init__

        def counting(self):
            made.append(1)
            real(self)

        monkeypatch.setattr(uqkit.autodiff.Tape, "__init__", counting)
        return made

    @pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
    def test_gradient_fits_build_no_tape(self, tapes, task):
        ds = golden_ds(task)
        cfg = MlpConfig(2, (4,), 3 if task == CLASSIFICATION else 2, "tanh", init_seed=0)
        opt = OptimConfig(epochs=2, batch_size=8, weight_decay=1e-3, seed=1)
        start = map_fit(cfg, ds, opt).state
        swag_fit(start, cfg, ds, opt, rank=2, snapshot_every=1)
        ensemble_fit(cfg, ds, opt, members=2)
        advi_fit(cfg, ds, opt, mc_samples=2)
        laplace_fit(start, cfg, ds)
        assert len(tapes) == 0


@pytest.mark.parametrize("fit", ["map", "swag", "ensemble", "advi-1", "advi-3"])
def test_one_backward_pass_per_step(fit, monkeypatch):
    # every gradient fit, ADVI at any draw count, takes one backward pass per
    # optimizer step: its lanes (MAP's S = 3, the members, the draws) are one pass
    ds = golden_ds(CLASSIFICATION)
    cfg = MlpConfig(2, (4,), 3, "tanh", init_seed=0)
    opt = OptimConfig(epochs=2, batch_size=8, weight_decay=1e-3, seed=1)
    start = map_fit(cfg, ds, opt).state
    passes, steps = [], []
    backward, step = uqkit.posterior.mlp_backward, uqkit.posterior._Optimizer.step
    monkeypatch.setattr(
        uqkit.posterior, "mlp_backward", lambda *a, **k: passes.append(1) or backward(*a, **k)
    )
    monkeypatch.setattr(
        uqkit.posterior._Optimizer, "step", lambda self, *a: steps.append(1) or step(self, *a)
    )
    if fit == "map":
        map_fit([cfg] * 3, [ds] * 3, [replace(opt, seed=s) for s in range(3)])
    elif fit == "swag":
        swag_fit(start, cfg, ds, opt, rank=2, snapshot_every=1)
    elif fit == "ensemble":
        ensemble_fit(cfg, ds, opt, members=3)
    else:
        advi_fit(cfg, ds, opt, mc_samples=int(fit[-1]))
    assert len(steps) == opt.epochs * -(-ds.n // opt.batch_size)
    assert len(passes) == len(steps)


def _random_problem(rng, task, n=None):
    d = int(rng.integers(1, 4))
    widths = tuple(int(w) for w in rng.integers(1, 7, size=int(rng.integers(0, 3))))
    k = int(rng.integers(1, 5)) if task == CLASSIFICATION else 2
    act = ("tanh", "relu")[int(rng.integers(2))]
    cfg = MlpConfig(d, widths, k, act, init_seed=int(rng.integers(100)))
    n = int(rng.integers(1, 12)) if n is None else n
    # zero inputs and zero weights give exact ties, dead ReLUs and -0.0
    x = rng.normal(size=(n, d)) * rng.choice([0.0, 1.0, 3.0])
    y = rng.integers(0, k, size=n) if task == CLASSIFICATION else rng.normal(size=n)
    theta = init_params(cfg) * rng.choice([0.0, 1.0, -2.0])
    return cfg, x, y, theta


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_training_gradient_equals_tape_bit_for_bit(task):
    rng = np.random.default_rng(0 if task == CLASSIFICATION else 1)
    for case in range(500):
        cfg, x, y, theta = _random_problem(rng, task)
        wd = (0.0, 1e-4, 0.3)[case % 3]
        ds = Dataset(inputs=x, targets=y, task=task, feature_names=("f",) * x.shape[1])
        objective, _ = _penalized_objective(cfg, [ds], OptimConfig(weight_decay=wd))
        loss, grad = objective(theta, x, y)
        ref_loss, ref_grad = value_and_grad(
            lambda v: penalized_loss(cfg, v, x, y, task, wd), theta
        )
        assert _same_bits(loss, ref_loss), (case, cfg, wd)
        assert grad.tobytes() == ref_grad.tobytes(), (case, cfg, wd)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_advi_gradient_equals_tape_bit_for_bit(task):
    rng = np.random.default_rng(2 if task == CLASSIFICATION else 3)
    for case in range(200):
        cfg, x, y, theta = _random_problem(rng, task)
        p = param_count(cfg)
        zs = [rng.normal(size=p) for _ in range((1, 3)[case % 2])]
        phi = np.concatenate([theta, rng.normal(size=p) - 2.0])
        prior, n_total = float(rng.choice([0.5, 1.0, 7.0])), int(rng.integers(x.shape[0], 50))
        objective = _advi_objective(cfg, task, itertools.repeat(np.array(zs)), len(zs),
                                    prior, n_total)
        ref_loss, ref_grad = value_and_grad(
            lambda v: advi_objective(cfg, v, x, y, task, zs, prior, n_total), phi
        )
        for _ in range(2):  # the second call reuses the objective's buffers
            loss, grad = objective(phi[None], x[None], y[None])
            assert _same_bits(loss[0], ref_loss), (case, cfg)
            assert grad[0].tobytes() == ref_grad.tobytes(), (case, cfg)


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_broadcast_lanes_equal_solo_passes(task):
    # ADVI's draws are lanes of one pass over a batch broadcast to them
    # (stride 0); n = 1 takes numpy's one-row product routines
    rng = np.random.default_rng(7 if task == CLASSIFICATION else 8)
    seen = set()
    for case in range(120):
        cfg, x, y, _ = _random_problem(rng, task, n=1 if case % 4 == 0 else None)
        m, p = int(rng.integers(1, 4)), param_count(cfg)
        scale = (1.0, 17.0 / m)[case % 2]
        stacked, thetas = _nll_pass(cfg, task), np.empty((m, p))
        for _ in range(2):  # the second call reuses the pass's buffers
            thetas[:] = init_params(cfg) + rng.normal(size=(m, p)) * rng.choice([0.0, 1.0])
            losses, grads = stacked(
                thetas, np.broadcast_to(x, (m, *x.shape)), np.broadcast_to(y, (m, len(y))), scale
            )
            for j in range(m):
                loss, grad = _nll_pass(cfg, task)(thetas[j].copy(), x, y, scale)
                assert _same_bits(losses[j], loss), (case, cfg, x.shape)
                assert grads[j].tobytes() == grad.tobytes(), (case, cfg, x.shape)
        seen |= {cfg.activation, f"layers={len(cfg.hidden_widths)}", f"n={len(x)}"}
    assert {"tanh", "relu", "layers=0", "layers=2", "n=1"} <= seen


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_laplace_equals_tape_bit_for_bit(task, monkeypatch):
    # row counts on both sides of a Jacobian chunk boundary: the 64-row cap
    # in even cases, and in odd ones 5 rows, set by a float budget of
    # 5 k P + k P - 1 (so the rule's floor division is at stake)
    passes = []
    backward = uqkit.posterior.mlp_backward
    monkeypatch.setattr(
        uqkit.posterior, "mlp_backward", lambda *a: passes.append(1) or backward(*a)
    )
    rng = np.random.default_rng(5 if task == CLASSIFICATION else 6)
    seen = set()
    for case in range(36):
        chunk = (_LAPLACE_ROWS, 5)[case % 2]
        counts = (1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)
        cfg, x, y, theta = _random_problem(rng, task, n=counts[case // 2 % len(counts)])
        jacobian = (cfg.output_dim if task == CLASSIFICATION else 1) * theta.size
        budget = _LAPLACE_JACOBIAN_FLOATS if chunk == _LAPLACE_ROWS else 6 * jacobian - 1
        monkeypatch.setattr(uqkit.posterior, "_LAPLACE_JACOBIAN_FLOATS", budget)
        ds = Dataset(inputs=x, targets=y, task=task, feature_names=("f",) * x.shape[1])
        prior = float(rng.choice([0.5, 1.0]))
        passes.clear()
        state = laplace_fit(MapState(theta), cfg, ds, prior_precision=prior)
        assert len(passes) == -(-len(x) // chunk), (case, cfg, x.shape)
        ref = prior + laplace_ggn(cfg, theta, x, task)
        assert state.diag_precision.tobytes() == ref.tobytes(), (case, cfg, x.shape)
        seen |= {cfg.activation, f"k={cfg.output_dim}", f"layers={len(cfg.hidden_widths)}"}
    wanted = {"tanh", "relu", "layers=0", "layers=2"}
    assert wanted | ({"k=1"} if task == CLASSIFICATION else set()) <= seen


def _central_differences(f, x, h=1e-5):
    fd = np.empty_like(x)
    for i in range(x.size):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (f(up) - f(down)) / (2 * h)
    return fd


@pytest.mark.parametrize("task", [CLASSIFICATION, REGRESSION])
def test_training_gradient_matches_central_differences(task):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 2))
    y = rng.integers(0, 3, size=9) if task == CLASSIFICATION else rng.normal(size=9)
    cfg = MlpConfig(2, (5, 3), 3 if task == CLASSIFICATION else 2, "tanh", init_seed=6)
    theta = init_params(cfg)
    _, grad = _nll_pass(cfg, task)(theta, x, y, 3.0)
    fd = _central_differences(lambda v: 3.0 * _nll_pass(cfg, task)(v, x, y)[0], theta)
    assert np.all(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8) < 1e-5)

    p = theta.size
    zs = [rng.normal(size=p) for _ in range(2)]
    phi = np.concatenate([theta, np.full(p, -1.5)])

    def elbo(v):
        loss, grad = _advi_objective(cfg, task, iter([np.array(zs)]), 2, 2.0, 30)(
            v[None], x[None], y[None]
        )
        return loss[0], grad[0]

    fd = _central_differences(lambda v: elbo(v)[0], phi)
    assert np.all(np.abs(elbo(phi)[1] - fd) / np.maximum(np.abs(fd), 1e-8) < 1e-5)


# ---------------------------------------------------------------------------
# lockstep lanes: fits trained together equal the same fits trained alone


def assert_same_fit(lane, solo):
    """Every state array, the trace and the divergence flag, bit for bit."""
    assert type(lane.state) is type(solo.state)
    for f in fields(solo.state):
        a, b = getattr(lane.state, f.name), getattr(solo.state, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name
    assert np.asarray(lane.trace).tobytes() == np.asarray(solo.trace).tobytes()
    assert lane.diverged == solo.diverged


def _lane_problem(rng, task, act, n, d, widths, poisoned):
    """One lane's (config, dataset); a poisoned lane has one row far out:
    a regression target whose squared residual overflows (the lane
    diverges at the step that reads it), or a huge classification input."""
    k = 3 if task == CLASSIFICATION else 2
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n) if task == CLASSIFICATION else rng.normal(size=n)
    if poisoned:
        row = int(rng.integers(n))
        if task == CLASSIFICATION:
            x[row] = 1e300
        else:
            y[row] = 1e200
    cfg = MlpConfig(d, widths, k, act, init_seed=int(rng.integers(1000)))
    return cfg, Dataset(inputs=x, targets=y, task=task, feature_names=("f",) * d)


@settings(max_examples=40, deadline=None, database=None)
@given(
    task=st.sampled_from([CLASSIFICATION, REGRESSION]),
    act=st.sampled_from(["tanh", "relu"]),
    algorithm=st.sampled_from(["adam", "sgd"]),
    weight_decay=st.sampled_from([0.0, 0.1]),
    n_lanes=st.integers(1, 5),
    poisoned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lanes_equal_their_solo_fits(
    task, act, algorithm, weight_decay, n_lanes, poisoned, seed
):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 25)), int(rng.integers(1, 4))
    widths = tuple(int(w) for w in rng.integers(1, 7, size=int(rng.integers(0, 3))))
    base = OptimConfig(
        algorithm=algorithm, learning_rate=0.05 if algorithm == "sgd" else 0.02,
        epochs=int(rng.integers(1, 5)), batch_size=int(rng.integers(1, n + 1)),
        weight_decay=weight_decay,
    )
    # the last lane may diverge while the others go on
    lanes = [
        _lane_problem(rng, task, act, n, d, widths, poisoned and s == n_lanes - 1)
        for s in range(n_lanes)
    ]
    cfgs, trains = [c for c, _ in lanes], [t for _, t in lanes]
    opts = [replace(base, seed=int(rng.integers(1000))) for _ in lanes]
    maps = map_fit(cfgs, trains, opts)
    for lane, cfg, train, opt in zip(maps, cfgs, trains, opts):
        assert_same_fit(lane, map_fit(cfg, train, opt))
    if poisoned and task == REGRESSION:
        assert maps[-1].diverged
    starts = [m.state for m in maps]
    swag_opts = [replace(o, seed=o.seed + 1) for o in opts]
    swags = swag_fit(starts, cfgs, trains, swag_opts, rank=1, snapshot_every=1)
    for lane, start, cfg, train, opt in zip(swags, starts, cfgs, trains, swag_opts):
        assert_same_fit(lane, swag_fit(start, cfg, train, opt, rank=1, snapshot_every=1))


def _scaled_lanes(lanes):
    """(configs, datasets, optimizer configs) of one SGD problem whose
    inputs and targets each lane scales by its own factor; wider inputs
    make the step unstable sooner."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2))
    y = x[:, 0] - x[:, 1] + 0.1 * rng.normal(size=20)
    trains = [
        Dataset(inputs=x * scale, targets=y * scale, task=REGRESSION, feature_names=("a", "b"))
        for scale, _ in lanes
    ]
    cfgs = [MlpConfig(2, (4,), 2, "relu", init_seed=1)] * len(lanes)
    opts = [
        OptimConfig(algorithm="sgd", learning_rate=0.05, epochs=30, batch_size=8, seed=seed)
        for _, seed in lanes
    ]
    return cfgs, trains, opts


def test_a_lane_that_diverges_mid_run_freezes_while_the_others_finish():
    # SGD at this rate is unstable on inputs six times wider: the middle
    # lane overflows in epoch 16 of 30, and the outer lanes converge
    cfgs, trains, opts = _scaled_lanes([(1.0, 2), (6.0, 1), (1.0, 3)])
    fits = map_fit(cfgs, trains, opts)
    assert [f.diverged for f in fits] == [False, True, False]
    assert [len(f.trace) for f in fits] == [30, 16, 30]
    for lane, cfg, train, opt in zip(fits, cfgs, trains, opts):
        assert_same_fit(lane, map_fit(cfg, train, opt))


def test_untraced_fits_equal_the_traced_fits_with_empty_traces():
    # the middle lane diverges in epoch 16 of 30, so freezing is covered
    cfgs, trains, opts = _scaled_lanes([(1.0, 2), (6.0, 1), (1.0, 3)])
    maps = map_fit(cfgs, trains, opts)
    starts = [m.state for m in maps]
    swags = swag_fit(starts, cfgs, trains, opts, rank=2)
    assert [len(f.trace) for f in maps] == [30, 16, 30] and swags[0].trace
    for traced, untraced in [
        *zip(maps, map_fit(cfgs, trains, opts, trace=False)),
        *zip(swags, swag_fit(starts, cfgs, trains, opts, rank=2, trace=False)),
        (maps[0], map_fit(cfgs[0], trains[0], opts[0], trace=False)),
        (swags[0], swag_fit(starts[0], cfgs[0], trains[0], opts[0], rank=2, trace=False)),
    ]:
        assert_same_fit(untraced, replace(traced, trace=()))


def _fit_arrays(results) -> list[np.ndarray]:
    """Every array of the fits' states, ensemble members one by one."""
    arrays = []
    for result in results:
        for f in fields(result.state):
            value = getattr(result.state, f.name)
            if isinstance(value, tuple):
                arrays.extend(value)
            elif isinstance(value, np.ndarray):
                arrays.append(value)
    return arrays


def _memory_fits(shift):
    """(name, results) of one call of each gradient fit; ``shift`` moves
    every seed, so a second call trains other iterates. The lockstep MAP
    fit's middle lane diverges in epoch 16 of 30."""
    cfgs, trains, opts = _scaled_lanes([(1.0, 2 + shift), (6.0, 1 + shift), (1.0, 3 + shift)])
    maps = map_fit(cfgs, trains, opts)
    starts = [m.state for m in maps]
    swags = swag_fit(starts, cfgs, trains, opts, rank=2)
    short = replace(opts[0], epochs=3)
    return [
        ("map_fit", maps),
        ("swag_fit", swags),
        ("ensemble_fit", [ensemble_fit(cfgs[0], trains[0], short, members=3)]),
        ("advi_fit", [advi_fit(cfgs[0], trains[0], short, mc_samples=2)]),
    ]


def test_fit_results_own_their_memory():
    # the training loop reuses its buffers from step to step, so every
    # returned array must be a copy that no other array and no later fit
    # writes into
    first = _memory_fits(0)
    assert first[0][1][1].diverged and not first[0][1][0].diverged
    kept = {}
    for name, results in first:
        arrays = _fit_arrays(results)
        assert all(a.flags.owndata for a in arrays), name
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b), name
        kept[name] = [a.tobytes() for a in arrays]
    second = _memory_fits(1)
    for (name, results), (_, again) in zip(first, second):
        assert [a.tobytes() for a in _fit_arrays(results)] == kept[name], name
        assert [a.tobytes() for a in _fit_arrays(again)] != kept[name], name


# the lockstep forms of ``_DIVERGING_FITS``
_LOCKSTEP_FITS = {
    "map_fit": map_fit,
    "swag_fit": lambda cfgs, trains, opts: swag_fit(
        [MapState(init_params(c)) for c in cfgs], cfgs, trains, opts,
        rank=2, snapshot_every=1,
    ),
}


@pytest.mark.parametrize("fit", list(_LOCKSTEP_FITS))
@pytest.mark.parametrize(
    "lanes, diverged, epochs, snapshots",
    [
        # three steps per epoch: the first lane overflows at step 49, the
        # last at step 12, and the middle one trains all 30 epochs
        ([(6.0, 1), (1.0, 2), (8.0, 3)], [True, False, True], [16, 30, 3], [48, 90, 11]),
        # both lanes overflow at step 7, so the loop returns with no lane left
        ([(20.0, 1), (20.0, 3)], [True, True], [2, 2], [6, 6]),
    ],
)
def test_lanes_that_diverge_freeze_at_their_own_step(fit, lanes, diverged, epochs, snapshots):
    cfgs, trains, opts = _scaled_lanes(lanes)
    fits = _LOCKSTEP_FITS[fit](cfgs, trains, opts)
    assert [f.diverged for f in fits] == diverged
    assert [len(f.trace) for f in fits] == epochs
    if fit == "swag_fit":
        assert [f.state.snapshots for f in fits] == snapshots
    for lane, cfg, train, opt in zip(fits, cfgs, trains, opts):
        assert_same_fit(lane, _DIVERGING_FITS[fit](cfg, train, opt))


@settings(max_examples=20, deadline=None, database=None)
@given(
    task=st.sampled_from([CLASSIFICATION, REGRESSION]),
    members=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_ensemble_members_equal_their_standalone_map_fits(task, members, seed):
    rng = np.random.default_rng(seed)
    cfg, train = _lane_problem(rng, task, "tanh", int(rng.integers(2, 25)), 2, (5,), False)
    opt = OptimConfig(learning_rate=0.02, epochs=3, batch_size=8, weight_decay=1e-3, seed=7)
    result = ensemble_fit(cfg, train, opt, members=members)
    for m in range(members):
        solo = map_fit(
            replace(cfg, init_seed=child_seed(cfg.init_seed, m)),
            train,
            replace(opt, seed=child_seed(opt.seed, m)),
        )
        assert result.state.members[m].tobytes() == solo.state.theta.tobytes()
        assert np.asarray(result.member_traces[m]).tobytes() == np.asarray(solo.trace).tobytes()
    assert not result.diverged


def test_lanes_must_share_what_the_loop_shares():
    cfg, train = linear_cfg(), linear_regression_ds(n=20)
    opt = OptimConfig(epochs=1)
    with pytest.raises(ValueError, match="lockstep lanes"):
        map_fit([cfg, cfg], [train, linear_regression_ds(n=21)], [opt, opt])
    with pytest.raises(ValueError, match="lockstep lanes"):
        map_fit([cfg, cfg], [train, train], [opt, replace(opt, learning_rate=0.5)])


def _heads_that_cannot_take_the_data():
    """(config, dataset, message) of each model-data mismatch the fits reject."""
    blobs = synth_classification("gaussian_blobs", 12, 0.5, seed=0)  # 2 features, labels 0..2
    return [
        pytest.param(MlpConfig(3, (), 3, "tanh"), blobs,
                     "dataset has 2 features but the model expects 3", id="features"),
        pytest.param(MlpConfig(2, (), 2, "tanh"), blobs,
                     "dataset has labels up to 2 but the model has only 2 outputs", id="labels"),
        pytest.param(replace(linear_cfg(), output_dim=3), linear_regression_ds(),
                     "output_dim must be 2, got 3", id="regression-head"),
    ]


@pytest.mark.parametrize("fit", ["map", "laplace", "advi"])
@pytest.mark.parametrize("cfg, train, message", _heads_that_cannot_take_the_data())
def test_a_model_that_cannot_take_the_data_is_rejected(fit, cfg, train, message):
    opt = OptimConfig(epochs=1)
    fits = {
        "map": lambda: map_fit(cfg, train, opt),
        "laplace": lambda: laplace_fit(MapState(np.zeros(param_count(cfg))), cfg, train),
        "advi": lambda: advi_fit(cfg, train, opt),
    }
    with pytest.raises(ValueError, match=re.escape(message)):
        fits[fit]()
