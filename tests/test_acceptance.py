"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from uqkit import autodiff as ad
from uqkit.autodiff import value_and_grad
from uqkit.calibration import apply_temperature, fit_temperature, fit_variance_scale
from uqkit.cli import main
from uqkit.conformal import (
    adaptive_sets,
    baseline_sets,
    cqr_interval,
    jackknife_minmax,
    jackknife_plus,
    scalar_score_interval,
)
from uqkit.data import CLASSIFICATION, REGRESSION, Dataset
from uqkit.metrics import accuracy, brier, ece, interval_metrics, nll_classification
from uqkit.mlp import MlpConfig, param_count
from uqkit.numerics import softmax
from uqkit.posterior import (
    MapState,
    OptimConfig,
    SwagState,
    advi_fit,
    laplace_fit,
    posterior_sample,
)
from uqkit.rng import Rng

from test_metrics import (
    accuracy_oracle,
    brier_oracle,
    coverage_oracle,
    ece_oracle,
    nll_oracle,
)

ALPHAS = (0.05, 0.1, 0.2)

RESULTS: list[str] = []  # echoed in the terminal summary (see conftest.py)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[{tag}] criterion {number}: {description}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {number} failed: {description} {suffix}"


# ---------------------------------------------------------------------------

def _classification_trial(rng, n):
    z = rng.normal(scale=1.5, size=(n, 4))
    probs = softmax(z, axis=1)
    cum = probs.cumsum(axis=1)
    labels = (rng.random(size=(n, 1)) > cum).sum(axis=1)
    return probs, labels.astype(np.int64)


def test_criterion_1_conformal_coverage():
    t_start = time.time()
    n_val = n_test = 1000
    trials = 200
    cover = {
        (m, a): [] for m in ("baseline", "adaptive", "cqr", "scalar") for a in ALPHAS
    }
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        val_probs, val_y = _classification_trial(rng, n_val)
        test_probs, test_y = _classification_trial(rng, n_test)
        # regression with exchangeable scores: model bounds miss the tails
        x_val, x_test = rng.random(n_val), rng.random(n_test)
        y_val = np.sin(2 * np.pi * x_val) + 0.3 * rng.standard_normal(n_val)
        y_test = np.sin(2 * np.pi * x_test) + 0.3 * rng.standard_normal(n_test)
        lo_val, hi_val = np.sin(2 * np.pi * x_val) - 0.25, np.sin(2 * np.pi * x_val) + 0.25
        lo_test, hi_test = np.sin(2 * np.pi * x_test) - 0.25, np.sin(2 * np.pi * x_test) + 0.25
        mu_val, mu_test = np.sin(2 * np.pi * x_val), np.sin(2 * np.pi * x_test)
        sd_val = 0.2 + 0.2 * x_val
        sd_test = 0.2 + 0.2 * x_test
        for alpha in ALPHAS:
            sets = baseline_sets(val_probs, val_y, test_probs, alpha)
            cover[("baseline", alpha)].append(sets.contains(test_y).mean())
            sets = adaptive_sets(val_probs, val_y, test_probs, alpha)
            cover[("adaptive", alpha)].append(sets.contains(test_y).mean())
            out = cqr_interval(lo_val, hi_val, y_val, lo_test, hi_test, alpha)
            cover[("cqr", alpha)].append(out.contains(y_test).mean())
            out = scalar_score_interval(mu_val, sd_val, y_val, mu_test, sd_test, alpha)
            cover[("scalar", alpha)].append(out.contains(y_test).mean())

    worst = []
    ok = True
    for (method, alpha), values in cover.items():
        mean_cov = float(np.mean(values))
        ok = ok and mean_cov >= 1 - alpha - 0.02
        worst.append(f"{method}@{alpha}={mean_cov:.3f}")

    def mean_trainer(inputs, targets, seed):
        mu = float(np.mean(targets))
        return lambda x: np.full(np.asarray(x).shape[0], mu)

    jk_trials, n_train, m_test = 50, 50, 40
    for alpha in ALPHAS:
        plus_cov, minmax_cov = [], []
        for trial in range(jk_trials):
            rng = np.random.default_rng(9000 + trial)
            ds = Dataset(
                inputs=rng.normal(size=(n_train, 1)),
                targets=rng.normal(size=n_train),
                task=REGRESSION,
                feature_names=("x",),
            )
            x_star = rng.normal(size=(m_test, 1))
            y_star = rng.normal(size=m_test)
            plus = jackknife_plus(mean_trainer, ds, x_star, alpha)
            minmax = jackknife_minmax(mean_trainer, ds, x_star, alpha)
            plus_cov.append(plus.contains(y_star).mean())
            minmax_cov.append(minmax.contains(y_star).mean())
        jp, jm = float(np.mean(plus_cov)), float(np.mean(minmax_cov))
        ok = ok and jp >= 1 - 2 * alpha - 0.02 and jm >= 1 - alpha - 0.02
        worst.append(f"jk+@{alpha}={jp:.3f}")
        worst.append(f"jkmm@{alpha}={jm:.3f}")

    elapsed = time.time() - t_start
    ok = ok and elapsed < 120
    report(1, "conformal marginal coverage meets each guarantee", ok,
           f"{elapsed:.0f}s; " + " ".join(worst))


def test_criterion_2_temperature_scaling():
    rng = np.random.default_rng(0)
    # (a) fitted NLL never worse than identity on every fixture
    fixtures = []
    for _ in range(10):
        k = int(rng.integers(2, 6))
        z = rng.normal(scale=rng.uniform(0.5, 5.0), size=(int(rng.integers(5, 80)), k))
        fixtures.append((z, rng.integers(0, k, size=z.shape[0])))
    fixtures.append((np.ones((4, 3)), np.array([0, 1, 2, 0])))  # degenerate
    fixtures.append((np.array([[math.log(3.0), 0.0]]), np.array([0])))
    monotone_ok = all(
        fit_temperature(z, y).nll_after <= fit_temperature(z, y).nll_before + 1e-12
        for z, y in fixtures
    )
    # (b) recover the generating temperature 2 at n = 5000
    z = rng.normal(scale=3.0, size=(5000, 4))
    probs = softmax(z / 2.0, axis=1)
    labels = np.array([rng.choice(4, p=p) for p in probs])
    t_hat = fit_temperature(z, labels).temperature
    recover_ok = 1.8 <= t_hat <= 2.2
    # (c) argmax invariance, exactly, on 1000 random rows
    z = rng.normal(scale=3.0, size=(1000, 5))
    base = z.argmax(axis=1)
    argmax_ok = all(
        np.array_equal(apply_temperature(z, t).argmax(axis=1), base)
        for t in (0.01, 0.5, 2.0, 31.4, 100.0)
    )
    report(2, "temperature scaling: NLL guarantee, t* recovery, argmax invariance",
           monotone_ok and recover_ok and argmax_ok, f"t_hat={t_hat:.3f}")


def test_criterion_3_variance_scale_closed_form():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 60))
        mu = rng.normal(size=n)
        var = rng.uniform(0.2, 2.5, size=n)
        y = mu + rng.normal(size=n) * np.sqrt(var) * rng.uniform(0.3, 1.8)

        def nll(s):
            return 0.5 * np.mean(np.log(2 * np.pi * s * var) + (y - mu) ** 2 / (s * var))

        lo, hi = 1e-3, 1e3
        for _ in range(400):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if nll(m1) < nll(m2):
                hi = m2
            else:
                lo = m1
        numeric = 0.5 * (lo + hi)
        worst = max(worst, abs(fit_variance_scale(mu, var, y).scale - numeric))
    report(3, "variance scale matches numeric 1-D minimization", worst < 1e-6,
           f"worst |diff| = {worst:.2e}")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        n, k = int(rng.integers(1, 21)), int(rng.integers(2, 6))
        z = rng.normal(scale=2, size=(n, k))
        probs = softmax(z, axis=1)
        y = rng.integers(0, k, size=n)
        bins = int(rng.integers(1, 16))
        ok &= abs(nll_classification(probs, y) - nll_oracle(probs, y)) <= 1e-12
        ok &= abs(brier(probs, y) - brier_oracle(probs, y)) <= 1e-12
        ok &= abs(accuracy(probs, y) - accuracy_oracle(probs, y)) <= 1e-12
        ok &= abs(ece(probs, y, bins) - ece_oracle(probs, y, bins)) <= 1e-12
        from uqkit.conformal import Intervals

        lower = rng.normal(size=n)
        upper = lower + rng.uniform(0, 2, size=n)
        targets = rng.normal(size=n)
        cov, _ = interval_metrics(
            Intervals(lower, upper, np.zeros(n, dtype=bool)), targets
        )
        ok &= abs(cov - coverage_oracle(lower, upper, targets)) <= 1e-12
        gap = abs(accuracy(probs, y) - probs.max(axis=1).mean())
        ok &= abs(ece(probs, y, 1) - gap) <= 1e-12
    report(4, "metrics match naive double-loop oracles to 1e-12", bool(ok))


def test_criterion_5_autodiff_vs_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
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
                return ad.vsum(ad.log(1.5 + 0.4 * ad.tanh(m))) - ad.vsum(x / (2.0 + x * x))
            if pick == 3:
                z = a @ ad.reshape(x, (n, 1))
                s = ad.vsum(ad.relu(z))
                return s * s / (1.0 + ad.vsum(x * x))
            return ad.vsum((x - c) * (x - c)) + ad.vmax(x * x)

        theta = rng.normal(size=n)
        _, grad = value_and_grad(f, theta)
        h = 1e-5
        for i in range(n):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd = (value_and_grad(f, up)[0] - value_and_grad(f, down)[0]) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
    report(5, "autodiff matches central finite differences on 100 losses",
           worst < 1e-5, f"worst rel err = {worst:.2e}")


def test_criterion_6_laplace_exactness():
    rng = np.random.default_rng(6)
    n, d = 50, 4
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + rng.normal(size=n)
    ds = Dataset(inputs=x, targets=y, task=REGRESSION, feature_names=tuple("abcd"))
    cfg = MlpConfig(d, (), 2, "tanh", init_seed=0)
    theta = np.zeros(param_count(cfg))  # zero logvar head -> sigma^2 = 1
    lam = 2.3
    state = laplace_fit(MapState(theta), cfg, ds, prior_precision=lam)
    expected = np.full(param_count(cfg), lam)
    for j in range(d):
        expected[2 * j] += np.sum(x[:, j] ** 2)
    expected[2 * d] += n
    err = float(np.max(np.abs(state.diag_precision - expected)))
    report(6, "Laplace diagonal equals analytic lam*I + X^T X / sigma^2",
           err <= 1e-8, f"max |diff| = {err:.2e}")


def test_criterion_7_advi_conjugate_consistency():
    t_start = time.time()
    m_true, sigma, lam, n = 1.5, 1.0, 1.0, 100
    raw = np.random.default_rng(7).normal(size=n)
    z = (raw - raw.mean()) / raw.std(ddof=0)
    y = m_true + sigma * z  # sample mean/variance exactly (m_true, sigma^2)
    ds = Dataset(
        inputs=np.zeros((n, 1)), targets=y, task=REGRESSION, feature_names=("x",)
    )
    precision_star = lam + n / sigma**2
    m_star = (n * y.mean() / sigma**2) / precision_star
    s_star = precision_star**-0.5
    mus, stds = [], []
    for seed in (0, 1, 2):
        cfg = MlpConfig(1, (), 2, "tanh", init_seed=seed)
        opt = OptimConfig(
            algorithm="adam", learning_rate=0.02, epochs=800, batch_size=n,
            weight_decay=0.0, seed=seed,
        )
        result = advi_fit(cfg, ds, opt, mc_samples=8, prior_precision=lam)
        assert not result.diverged
        mus.append(result.state.mean[2])  # bias of the mean output
        stds.append(math.exp(result.state.log_std[2]))
    mu_avg, std_avg = float(np.mean(mus)), float(np.mean(stds))
    elapsed = time.time() - t_start
    ok = (
        abs(mu_avg - m_star) < 0.05
        and abs(std_avg - s_star) / s_star < 0.10
        and elapsed < 30
    )
    report(7, "ADVI recovers the conjugate 1-D Gaussian posterior", ok,
           f"mu err {abs(mu_avg - m_star):.4f}, std rel err "
           f"{abs(std_avg - s_star) / s_star:.3f}, {elapsed:.0f}s")


def test_criterion_8_swag_sampling_covariance():
    mean = np.array([1.0, -1.0, 0.5])
    var = np.array([0.8, 1.2, 0.6])
    dev = np.array([[1.0, 0.3], [-0.6, 0.8], [0.5, -0.4]])
    state = SwagState(
        mean=mean, diag_second_moment=var + mean**2, deviations=dev,
        rank=2, snapshots=5,
    )
    draws = posterior_sample(state, Rng(8), 100_000)
    expected = 0.5 * np.diag(var) + dev @ dev.T / (2.0 * (2 - 1))
    sample_cov = np.cov(draws.T, bias=True)
    rel = np.abs(sample_cov - expected) / np.abs(expected)
    zero_state = SwagState(
        mean=mean, diag_second_moment=mean**2, deviations=np.zeros((3, 2)),
        rank=2, snapshots=3,
    )
    exact = np.array_equal(posterior_sample(zero_state, Rng(0), 1)[0], mean)
    report(8, "SWAG samples match the half-diag + low-rank covariance",
           bool(rel.max() < 0.05 and exact), f"worst entry rel err = {rel.max():.3f}")


def test_criterion_9_benchmark_direction(tmp_path):
    t_start = time.time()
    doc = {
        "task": "classification",
        "data": {"synth": {"name": "two_moons", "n": 1900, "noise": 0.45}},
        "split": [3 / 19, 8 / 19, 8 / 19],
        "model": {"hidden_widths": [64, 64], "activation": "relu"},
        "method": "swag",
        "optimizer": {
            "algorithm": "adam", "learning_rate": 1e-3, "epochs": 300,
            "batch_size": 32, "weight_decay": 0.0,
        },
        "calibration": True,
        "bins": 15,
        "out_dir": str(tmp_path / "bench"),
        "seed": 0,
        "seeds": [0, 1, 2, 3, 4],
    }
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["benchmark", "--config", str(config)]) == 0
    result = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    nll_wins = sum(
        r["swag_temperature"]["nll"] <= r["map"]["nll"] for r in result["runs"]
    )
    ece_wins = sum(
        r["swag_temperature"]["ece"] <= r["map"]["ece"] for r in result["runs"]
    )
    acc_drop = max(
        r["map"]["accuracy"] - r["swag_temperature"]["accuracy"]
        for r in result["runs"]
    )
    elapsed = time.time() - t_start
    ok = nll_wins >= 4 and ece_wins >= 4 and acc_drop <= 0.02 and elapsed < 300
    report(9, "SWAG + temperature beats MAP on NLL and ECE in >= 4/5 seeds", ok,
           f"nll {nll_wins}/5, ece {ece_wins}/5, acc drop {acc_drop:.3f}, {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(10)
    z = rng.normal(scale=2, size=(30, 3))
    val_probs = softmax(z, axis=1)
    val_y = np.array([rng.choice(3, p=p) for p in val_probs])
    zt = rng.normal(scale=2, size=(12, 3))
    test_probs = softmax(zt, axis=1)
    from uqkit.data import write_matrix_csv

    write_matrix_csv(tmp_path / "vp.csv", val_probs, ["p0", "p1", "p2"])
    write_matrix_csv(tmp_path / "vy.csv", val_y.reshape(-1, 1).astype(float), ["target"])
    write_matrix_csv(tmp_path / "tp.csv", test_probs, ["p0", "p1", "p2"])

    train_doc = {
        "task": "classification",
        "data": {"synth": {"name": "two_moons", "n": 120, "noise": 0.2}},
        "split": [0.5, 0.25, 0.25],
        "model": {"hidden_widths": [8, 8], "activation": "relu"},
        "method": "swag",
        "optimizer": {
            "algorithm": "adam", "learning_rate": 0.01, "epochs": 6,
            "batch_size": 16, "weight_decay": 1e-4,
        },
        "method_params": {"rank": 2},
        "out_dir": "unused",
        "seed": 3,
    }
    bench_doc = dict(train_doc, seeds=[0, 1, 2], method="swag")
    (tmp_path / "train.json").write_text(json.dumps(train_doc), encoding="utf-8")
    (tmp_path / "bench.json").write_text(json.dumps(bench_doc), encoding="utf-8")

    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        assert main([
            "conformal", "--method", "adaptive", "--alpha", "0.1",
            "--mode", "randomized", "--seed", "4",
            "--val-probs", str(tmp_path / "vp.csv"),
            "--val-targets", str(tmp_path / "vy.csv"),
            "--test-probs", str(tmp_path / "tp.csv"),
            "--out", str(base / "sets.csv"),
        ]) == 0
        assert main([
            "calibrate", "--logits", str(tmp_path / "vp.csv"),
            "--targets", str(tmp_path / "vy.csv"),
            "--out-dir", str(base / "calib"),
        ]) == 0
        assert main([
            "train", "--config", str(tmp_path / "train.json"),
            "--out-dir", str(base / "run"),
        ]) == 0
        assert main([
            "evaluate", "--state", str(base / "run" / "state.json"),
            "--data", str(base / "run" / "test.csv"),
            "--calib-data", str(base / "run" / "calib.csv"),
            "--alpha", "0.2", "--out-dir", str(base / "eval"),
        ]) == 0
        assert main([
            "benchmark", "--config", str(tmp_path / "bench.json"),
            "--out-dir", str(base / "bench"),
        ]) == 0
        return sorted(p for p in base.rglob("*") if p.is_file())

    files_a = run_all("a")
    files_b = run_all("b")
    names_a = [p.relative_to(tmp_path / "a") for p in files_a]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b]
    ok = names_a == names_b and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b)
    )
    report(10, "every CLI command replays byte-identically", ok,
           f"{len(files_a)} files compared")
