import math
import warnings

import numpy as np
import pytest

from uqkit.numerics import check_labels, entropy, kth_smallest, log_sum_exp, softmax


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self):
        for x in (-3.0, 0.0, 123.456):
            np.testing.assert_allclose(
                softmax([x, x, x]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
            )
        base = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            softmax(base), softmax(base + 57.0), rtol=0, atol=1e-12
        )

    def test_direct_evaluation(self):
        # e^{ln 3} / (e^{ln 3} + 1) = 0.75
        np.testing.assert_allclose(
            softmax([math.log(3.0), 0.0]), [0.75, 0.25], atol=1e-15
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=30, size=(200, 6))
        p = softmax(z, axis=1)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_large_magnitudes_are_stable(self):
        p = softmax([1000.0, 999.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])


class TestLogSumExp:
    def test_single_entry(self):
        assert log_sum_exp([0.0]) == 0.0

    def test_pair_identity(self):
        a = 2.75
        np.testing.assert_allclose(log_sum_exp([a, a]), a + math.log(2.0), atol=1e-12)

    def test_no_overflow(self):
        np.testing.assert_allclose(
            log_sum_exp([1000.0, 1000.0]), 1000.0 + math.log(2.0), atol=1e-12
        )

    def test_bounds_and_max_limit(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(scale=5, size=8)
            assert log_sum_exp(v) >= v.max()
        # all non-max entries -> -inf: equals max + ln(count of maxima)
        v = np.array([3.0, 3.0, -np.inf, -np.inf])
        np.testing.assert_allclose(log_sum_exp(v), 3.0 + math.log(2.0), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])


class TestKthSmallest:
    def test_first_and_last(self):
        assert kth_smallest([0.3, 0.1, 0.2], 1) == 0.1
        assert kth_smallest([0.3, 0.1, 0.2], 3) == 0.3

    def test_ties(self):
        assert kth_smallest([5.0, 5.0, 1.0], 2) == 5.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            kth_smallest([1.0, 2.0], 0)
        with pytest.raises(IndexError):
            kth_smallest([1.0, 2.0], 3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            v = rng.normal(size=n)
            k = int(rng.integers(1, n + 1))
            expected = kth_smallest(v, k)
            assert kth_smallest(rng.permutation(v), k) == expected
            assert expected == np.sort(v)[k - 1]


class TestEntropy:
    def test_uniform(self):
        np.testing.assert_allclose(entropy([0.25] * 4), math.log(4.0), atol=1e-12)

    def test_one_hot(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0


class TestCheckLabels:
    def test_integral_float_labels_are_accepted(self):
        y = check_labels(np.array([0.0, 1.0]), 2)
        assert y.dtype == np.int64 and y.tolist() == [0, 1]

    def test_fractional_float_labels_are_rejected(self):
        message = r"^targets row 1: class label 0\.5 is not a nonnegative integer below 2$"
        with pytest.raises(ValueError, match=message):
            check_labels(np.array([0.5]), 2)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300, 2.0**63])
    def test_labels_past_the_int64_cast_are_rejected_without_a_warning(self, value):
        # the values are checked before the cast, which would warn and wrap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n_classes in (2, None):
                with pytest.raises(ValueError, match=r"^targets row 2: class label "):
                    check_labels(np.array([0.0, value]), n_classes)

    def test_without_a_class_count_labels_stay_below_2_to_the_53(self):
        assert check_labels(np.array([2.0**53 - 1])).tolist() == [2**53 - 1]
        with pytest.raises(ValueError, match="below 9007199254740992$"):
            check_labels(np.array([2.0**53]))
