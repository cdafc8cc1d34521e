import math

import numpy as np
import pytest

from rng_oracle import ScalarRng
from uqkit.conformal import (
    adaptive_sets,
    baseline_sets,
    conformal_quantile,
    cqr_interval,
    cv_folds,
    cv_plus,
    jackknife_minmax,
    jackknife_plus,
    scalar_score_interval,
)
from uqkit.data import Dataset
from uqkit.rng import Rng


def labels(sets, i):
    """The classes in row i's set, read off the membership matrix."""
    return np.flatnonzero(sets.member[i]).tolist()


def mean_trainer(inputs, targets, seed):
    mu = float(np.mean(targets))
    return lambda x: np.full(np.asarray(x).shape[0], mu)


def regression_ds(targets):
    targets = np.asarray(targets, dtype=np.float64)
    n = targets.shape[0]
    return Dataset(
        inputs=np.arange(float(n)).reshape(n, 1),
        targets=targets,
        task="regression",
        feature_names=("x",),
    )


class TestQuantile:
    def test_rank_rule(self):
        # n=4, alpha=0.25 -> k = ceil(5 * 0.75) = 4
        assert conformal_quantile([0.1, 0.2, 0.3, 0.4], 0.25) == 0.4

    def test_exceeding_rank_gives_infinity(self):
        assert conformal_quantile([0.1, 0.2], 0.1) == math.inf

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            conformal_quantile([0.1], 1.5)


class TestBaselineSets:
    def test_hand_enumeration(self):
        # scores 1 - p[y] = {0.1, 0.2, 0.3, 0.4}; alpha 0.25 -> q = 0.4
        val_probs = np.array(
            [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]]
        )
        val_targets = [0, 0, 0, 0]
        sets = baseline_sets(val_probs, val_targets, [[0.7, 0.3]], 0.25)
        assert labels(sets, 0) == [0]

    def test_degenerate_quantile_gives_full_sets(self):
        sets = baseline_sets(
            [[0.6, 0.4], [0.5, 0.5]], [0, 1], [[0.99, 0.01], [0.2, 0.8]], 0.1
        )
        assert labels(sets, 0) == [0, 1]
        assert labels(sets, 1) == [0, 1]

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            baseline_sets([[0.9, 0.3]], [0], [[0.5, 0.5]], 0.1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match=r"^val_targets row 1: class label 2 .* below 2$"):
            baseline_sets([[0.9, 0.1]], [2], [[0.5, 0.5]], 0.1)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 4))
        val_probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        zt = rng.normal(size=(10, 4))
        test_probs = np.exp(zt) / np.exp(zt).sum(axis=1, keepdims=True)
        y = rng.integers(0, 4, size=30)
        perm = np.array([2, 0, 3, 1])  # new label of old class c is perm[c]
        inv = np.argsort(perm)
        base = baseline_sets(val_probs, y, test_probs, 0.2)
        relabeled = baseline_sets(
            val_probs[:, inv], perm[y], test_probs[:, inv], 0.2
        )
        for i in range(10):
            assert sorted(perm[labels(base, i)].tolist()) == labels(relabeled, i)


class TestAdaptiveSets:
    def test_prefix_rule(self):
        # build a validation set whose quantile is 0.8, then check the prefix
        # test row [0.5, 0.3, 0.2]: cumulative 0.5, 0.8 -> two classes
        val_probs = np.array([[0.8, 0.1, 0.1]] * 9)
        val_targets = [0] * 9  # deterministic scores all 0.8 -> q = 0.8
        sets = adaptive_sets(val_probs, val_targets, [[0.5, 0.3, 0.2]], 0.2)
        assert labels(sets, 0) == [0, 1]

    def test_quantile_at_total_mass_gives_full_set(self):
        val_probs = np.array([[0.2, 0.8], [0.3, 0.7]])
        val_targets = [0, 0]  # scores 1.0, 1.0 -> q = 1
        sets = adaptive_sets(val_probs, val_targets, [[0.9, 0.1]], 0.5)
        assert labels(sets, 0) == [0, 1]

    def test_randomized_needs_rng_and_replays(self):
        rng_probs = np.random.default_rng(0)
        z = rng_probs.normal(size=(50, 3))
        val_probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        y = rng_probs.integers(0, 3, size=50)
        zt = rng_probs.normal(size=(20, 3))
        test_probs = np.exp(zt) / np.exp(zt).sum(axis=1, keepdims=True)
        a = adaptive_sets(val_probs, y, test_probs, 0.2, Rng(5))
        b = adaptive_sets(val_probs, y, test_probs, 0.2, Rng(5))
        np.testing.assert_array_equal(a.member, b.member)
        # randomized sets are nested inside deterministic ones
        det = adaptive_sets(val_probs, y, test_probs, 0.2)
        assert np.all(det.member | ~a.member)


def adaptive_sets_row_loop(val_probs, val_targets, test_probs, alpha, mode="deterministic", rng=None):
    """The per-row construction ``adaptive_sets`` vectorizes, kept as its oracle."""
    from uqkit.conformal import _aps_val_scores, conformal_quantile

    vp, tp = np.asarray(val_probs, dtype=float), np.asarray(test_probs, dtype=float)
    y = np.asarray(val_targets)
    u_val = np.ones(len(vp)) if mode == "deterministic" else rng.uniforms(len(vp))
    q = conformal_quantile(_aps_val_scores(vp, y, u_val), alpha)
    m, k = tp.shape
    order = np.argsort(-tp, axis=1, kind="stable")
    sorted_p = np.take_along_axis(tp, order, axis=1)
    cum = np.cumsum(sorted_p, axis=1)
    member = np.zeros((m, k), dtype=bool)
    for i in range(m):
        if math.isinf(q) or cum[i, -1] < q:
            boundary = k - 1
        else:
            boundary = int(np.searchsorted(cum[i], q, side="left"))
        keep = boundary + 1
        if mode == "randomized" and not math.isinf(q):
            below = cum[i, boundary] - sorted_p[i, boundary]
            if below + rng.uniform() * sorted_p[i, boundary] > q:
                keep -= 1
        member[i, order[i, :keep]] = True
    return member


def _random_prob_rows(rng, n, k):
    """(valid rows, the same rows with 0.4 moved from the last class to the
    first in about a tenth of them). Moved rows that turned negative are
    kept unmoved in the valid rows."""
    z = rng.normal(size=(n, k)) * rng.choice([0.5, 3.0])
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    p[rng.random(n) < 0.1] = 1.0 / k  # exact ties
    moved = p.copy()
    sign = rng.random(n) < 0.1
    moved[sign, -1] -= 0.4
    moved[sign, 0] += 0.4
    negative = np.any(moved < 0.0, axis=1)
    return np.where(negative[:, None], p, moved), moved


@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
def test_adaptive_sets_equal_the_row_loop(mode):
    rng = np.random.default_rng(7)
    seen_empty = seen_full_inf = seen_negative = False
    for case in range(60):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 30))
        (vp, vp_moved), (tp, tp_moved) = _random_prob_rows(rng, n, k), _random_prob_rows(rng, 40, k)
        y = rng.integers(0, k, size=n)
        alpha = float(rng.choice([0.02, 0.1, 0.3, 0.7]))
        seed = int(rng.integers(1000))
        sets_rng = Rng(seed) if mode == "randomized" else None
        if np.any(vp_moved < 0.0) or np.any(tp_moved < 0.0):
            # rows summing to 1 with a negative entry are not probabilities
            with pytest.raises(ValueError, match="negative entry"):
                adaptive_sets(vp_moved, y, tp_moved, alpha, sets_rng)
            seen_negative = True
        got = adaptive_sets(vp, y, tp, alpha, sets_rng)
        want = adaptive_sets_row_loop(vp, y, tp, alpha, mode, ScalarRng(seed))
        np.testing.assert_array_equal(got.member, want, err_msg=f"case {case}")
        seen_empty |= bool(np.any(~want.any(axis=1)))
        seen_full_inf |= conformal_quantile(np.ones(n), alpha) == math.inf
    assert seen_full_inf and seen_negative
    assert seen_empty or mode == "deterministic"


class TestCqr:
    def test_shrinking_hand_example(self):
        # all intervals [0,1], targets 0.5 -> scores -0.5; alpha 0.5, k=2
        out = cqr_interval(
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.5, 0.5, 0.5],
            [0.0],
            [1.0],
            0.5,
        )
        np.testing.assert_allclose(out.lower, [0.5])
        np.testing.assert_allclose(out.upper, [0.5])
        assert not out.collapsed[0]

    def test_zero_quantile_is_identity(self):
        # scores all exactly 0: targets sit on the lower bound
        out = cqr_interval(
            [1.0, 2.0, 3.0],
            [2.0, 3.0, 4.0],
            [1.0, 2.0, 3.0],
            [10.0, 20.0],
            [11.0, 21.0],
            0.5,
        )
        np.testing.assert_array_equal(out.lower, [10.0, 20.0])
        np.testing.assert_array_equal(out.upper, [11.0, 21.0])

    def test_width_identity(self):
        rng = np.random.default_rng(8)
        lo = rng.normal(size=40)
        hi = lo + rng.uniform(0.5, 2.0, size=40)
        y = rng.normal(size=40)
        tl = rng.normal(size=15)
        tu = tl + rng.uniform(0.1, 3.0, size=15)
        out = cqr_interval(lo, hi, y, tl, tu, 0.2)
        q = conformal_quantile(np.maximum(lo - y, y - hi), 0.2)
        np.testing.assert_allclose(out.width(), (tu - tl) + 2 * q, atol=1e-12)

    def test_collapse_flag(self):
        # strongly negative quantile shrinks a narrow interval past itself
        out = cqr_interval(
            [0.0] * 9, [10.0] * 9, [5.0] * 9, [0.0], [1.0], 0.5
        )
        assert out.collapsed[0]
        assert out.lower[0] == out.upper[0] == 0.5

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            cqr_interval([1.0], [0.0], [0.5], [0.0], [1.0], 0.1)


class TestScalarScore:
    def test_zero_residuals_degenerate(self):
        out = scalar_score_interval(
            [1.0, 2.0], [1.0, 1.0], [1.0, 2.0], [5.0], [2.0], 0.5
        )
        np.testing.assert_array_equal(out.lower, [5.0])
        np.testing.assert_array_equal(out.upper, [5.0])

    def test_unit_sigma_reduces_to_absolute_residuals(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=30)
        y = mu + rng.normal(size=30)
        tm = rng.normal(size=7)
        out = scalar_score_interval(mu, np.ones(30), y, tm, np.ones(7), 0.2)
        q = conformal_quantile(np.abs(y - mu), 0.2)
        np.testing.assert_allclose(out.lower, tm - q, atol=1e-12)
        np.testing.assert_allclose(out.upper, tm + q, atol=1e-12)

    def test_order_statistic_enumeration(self):
        # scores {1,2,3,4}, alpha 0.25 -> q = 4 -> mu +/- 4 sigma
        mu = np.zeros(4)
        sig = np.ones(4)
        y = np.array([1.0, -2.0, 3.0, -4.0])
        out = scalar_score_interval(mu, sig, y, [10.0], [0.5], 0.25)
        np.testing.assert_allclose(out.lower, [8.0])
        np.testing.assert_allclose(out.upper, [12.0])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scalar_score_interval([0.0], [0.0], [0.0], [0.0], [1.0], 0.1)


class TestJackknife:
    def test_constant_trainer_zero_residuals(self):
        ds = regression_ds([2.0, 2.0, 2.0, 2.0])
        out = jackknife_plus(mean_trainer, ds, np.zeros((3, 1)), 0.3)
        np.testing.assert_array_equal(out.lower, [2.0] * 3)
        np.testing.assert_array_equal(out.upper, [2.0] * 3)

    def test_three_point_enumeration(self):
        # targets {0, 0, 3}: mu_{-i} = {1.5, 1.5, 0}, R = {1.5, 1.5, 3}
        ds = regression_ds([0.0, 0.0, 3.0])
        alpha = 0.4  # k_lo = floor(0.4*4) = 1, k_up = ceil(0.6*4) = 3
        out = jackknife_plus(mean_trainer, ds, np.zeros((1, 1)), alpha)
        # lower candidates {0, 0, -3} -> 1st smallest = -3
        # upper candidates {3, 3, 3} -> 3rd smallest = 3
        np.testing.assert_allclose(out.lower, [-3.0])
        np.testing.assert_allclose(out.upper, [3.0])

    def test_minmax_contains_plus(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(5, 20))
            ds = regression_ds(rng.normal(size=n))
            x = rng.normal(size=(6, 1))
            alpha = float(rng.uniform(0.1, 0.5))
            plus = jackknife_plus(mean_trainer, ds, x, alpha)
            minmax = jackknife_minmax(mean_trainer, ds, x, alpha)
            assert np.all(minmax.lower <= plus.lower + 1e-12)
            assert np.all(minmax.upper >= plus.upper - 1e-12)

    def test_trainer_failure_names_index(self):
        def flaky(inputs, targets, seed):
            if inputs.shape[0] == 3 and targets[0] == 0.0:
                raise RuntimeError("boom")
            return lambda x: np.zeros(np.asarray(x).shape[0])

        ds = regression_ds([1.0, 0.0, 2.0, 3.0])
        with pytest.raises(Exception, match="leave-out index 0"):
            jackknife_plus(flaky, ds, np.zeros((1, 1)), 0.3)


class TestCvPlus:
    def test_folds_are_contiguous_chunks_of_a_permutation(self):
        fold_of = cv_folds(10, 3, seed=4)
        counts = np.bincount(fold_of, minlength=3)
        assert counts.tolist() == [4, 3, 3]  # remainder to fold 0

    def test_k_equals_n_reproduces_jackknife_plus(self):
        rng = np.random.default_rng(6)
        ds = regression_ds(rng.normal(size=8))
        x = rng.normal(size=(5, 1))
        jk = jackknife_plus(mean_trainer, ds, x, 0.25)
        for seed in (0, 123):
            cv = cv_plus(mean_trainer, ds, 8, x, 0.25, seed=seed)
            np.testing.assert_allclose(cv.lower, jk.lower, atol=1e-12)
            np.testing.assert_allclose(cv.upper, jk.upper, atol=1e-12)

    def test_constant_predictor_degenerate(self):
        ds = regression_ds([1.0, 1.0, 1.0, 1.0])
        out = cv_plus(mean_trainer, ds, 2, np.zeros((2, 1)), 0.4, seed=0)
        np.testing.assert_array_equal(out.lower, [1.0, 1.0])
        np.testing.assert_array_equal(out.upper, [1.0, 1.0])

    def test_two_fold_hand_instance(self):
        # seed chosen so the permutation splits {a, b} | {c, d}; recompute
        # the CV+ endpoints directly from the fold structure
        targets = np.array([1.0, 2.0, 5.0, 6.0])
        ds = regression_ds(targets)
        seed = 3
        fold_of = cv_folds(4, 2, seed=seed)
        mu_fold = [targets[fold_of != f].mean() for f in (0, 1)]
        residuals = np.array([abs(targets[i] - mu_fold[fold_of[i]]) for i in range(4)])
        mu = np.array([mu_fold[fold_of[i]] for i in range(4)])
        alpha = 0.4  # k_lo = 2, k_up = 3
        expected_lower = np.sort(mu - residuals)[1]
        expected_upper = np.sort(mu + residuals)[2]
        out = cv_plus(mean_trainer, ds, 2, np.zeros((1, 1)), alpha, seed=seed)
        np.testing.assert_allclose(out.lower, [expected_lower])
        np.testing.assert_allclose(out.upper, [expected_upper])

    def test_bad_fold_count(self):
        ds = regression_ds([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            cv_plus(mean_trainer, ds, 4, np.zeros((1, 1)), 0.3, seed=0)


class TestMonotonicityInAlpha:
    def test_sets_and_intervals_nest(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(60, 3))
        val_probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        y = rng.integers(0, 3, size=60)
        zt = rng.normal(size=(25, 3))
        test_probs = np.exp(zt) / np.exp(zt).sum(axis=1, keepdims=True)
        alphas = [0.05, 0.1, 0.2, 0.4]
        for make in (baseline_sets, adaptive_sets):
            members = [make(val_probs, y, test_probs, a).member for a in alphas]
            for small, large in zip(members, members[1:]):
                assert np.all(small | ~large)  # larger alpha -> subset

        mu = rng.normal(size=60)
        targets = mu + rng.normal(size=60)
        tm = rng.normal(size=25)
        outs = [
            scalar_score_interval(mu, np.ones(60), targets, tm, np.ones(25), a)
            for a in alphas
        ]
        for wide, narrow in zip(outs, outs[1:]):
            assert np.all(wide.lower <= narrow.lower + 1e-12)
            assert np.all(wide.upper >= narrow.upper - 1e-12)
