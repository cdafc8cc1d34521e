import json
import math

import numpy as np
import pytest

from uqkit.conformal import Intervals
from uqkit.metrics import (
    accuracy,
    brier,
    classification_report,
    ece,
    interval_metrics,
    nll_classification,
)


def random_instance(rng, n=None, k=None):
    n = n or int(rng.integers(1, 21))
    k = k or int(rng.integers(2, 6))
    z = rng.normal(scale=2, size=(n, k))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    return probs, rng.integers(0, k, size=n)


# --- naive double-loop oracles -------------------------------------------

def nll_oracle(probs, targets):
    total = 0.0
    for i, y in enumerate(targets):
        total += -math.log(max(probs[i][y], 1e-300))
    return total / len(targets)


def brier_oracle(probs, targets):
    total = 0.0
    for i, y in enumerate(targets):
        for k in range(probs.shape[1]):
            total += (probs[i][k] - (1.0 if k == y else 0.0)) ** 2
    return total / len(targets)


def accuracy_oracle(probs, targets):
    hits = 0
    for i, y in enumerate(targets):
        best = 0
        for k in range(1, probs.shape[1]):
            if probs[i][k] > probs[i][best]:
                best = k
        hits += best == y
    return hits / len(targets)


def ece_oracle(probs, targets, n_bins):
    n = len(targets)
    total = 0.0
    for b in range(n_bins):
        lo, hi = b / n_bins, (b + 1) / n_bins
        members = []
        for i in range(n):
            conf = max(probs[i])
            inside = lo < conf <= hi or (b == 0 and conf == 0.0)
            if inside:
                members.append(i)
        if not members:
            continue
        acc = np.mean([probs[i].argmax() == targets[i] for i in members])
        conf = np.mean([max(probs[i]) for i in members])
        total += len(members) / n * abs(acc - conf)
    return total


def coverage_oracle(lower, upper, targets):
    hits = sum(1 for lo, hi, y in zip(lower, upper, targets) if lo <= y <= hi)
    return hits / len(targets)


class TestNll:
    def test_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert nll_classification(probs, [0, 1]) == 0.0

    def test_uniform_binary(self):
        np.testing.assert_allclose(
            nll_classification([[0.5, 0.5]], [1]), math.log(2.0), atol=1e-15
        )

    def test_direct_evaluation(self):
        value = nll_classification([[0.8, 0.2], [0.4, 0.6]], [0, 1])
        np.testing.assert_allclose(
            value, -(math.log(0.8) + math.log(0.6)) / 2, atol=1e-15
        )


class TestEce:
    def test_confident_and_correct(self):
        assert ece([[1.0, 0.0]] * 4, [0] * 4, 10) == 0.0

    def test_single_occupied_bin(self):
        probs = [[0.6, 0.4], [0.6, 0.4]]
        np.testing.assert_allclose(ece(probs, [0, 1], 10), 0.1, atol=1e-12)

    def test_one_bin_equals_accuracy_confidence_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs, y = random_instance(rng)
            gap = abs(accuracy(probs, y) - probs.max(axis=1).mean())
            np.testing.assert_allclose(ece(probs, y, 1), gap, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            probs, y = random_instance(rng)
            assert 0.0 <= ece(probs, y, 15) <= 1.0


class TestBrier:
    def test_perfect(self):
        assert brier([[1.0, 0.0]], [0]) == 0.0

    def test_uniform_binary(self):
        assert brier([[0.5, 0.5]], [1]) == 0.5

    def test_uniform_four_way(self):
        np.testing.assert_allclose(brier([[0.25] * 4], [2]), 0.75, atol=1e-15)


class TestAccuracy:
    def test_all_and_none(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(probs, [0, 1]) == 1.0
        assert accuracy(probs, [1, 0]) == 0.0

    def test_tie_takes_lowest_index(self):
        assert accuracy([[0.5, 0.5]], [0]) == 1.0
        assert accuracy([[0.5, 0.5]], [1]) == 0.0


class TestIntervalMetrics:
    def make(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        return Intervals(lower, upper, np.zeros(len(lower), dtype=bool))

    def test_interior_point_covered(self):
        coverage, width = interval_metrics(self.make([0.0], [1.0]), [0.5])
        assert coverage == 1.0 and width == 1.0

    def test_boundary_is_closed(self):
        coverage, _ = interval_metrics(self.make([0.0, 0.0], [1.0, 1.0]), [1.0, 0.0])
        assert coverage == 1.0


class TestAgainstOracles:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            probs, y = random_instance(rng)
            n_bins = int(rng.integers(1, 16))
            assert abs(nll_classification(probs, y) - nll_oracle(probs, y)) <= 1e-12
            assert abs(brier(probs, y) - brier_oracle(probs, y)) <= 1e-12
            assert abs(accuracy(probs, y) - accuracy_oracle(probs, y)) <= 1e-12
            assert abs(ece(probs, y, n_bins) - ece_oracle(probs, y, n_bins)) <= 1e-12
            lower = rng.normal(size=len(y))
            upper = lower + rng.uniform(0, 2, size=len(y))
            targets = rng.normal(size=len(y))
            cov, width = interval_metrics(
                Intervals(lower, upper, np.zeros(len(y), dtype=bool)), targets
            )
            assert abs(cov - coverage_oracle(lower, upper, targets)) <= 1e-12
            assert abs(width - np.mean(upper - lower)) <= 1e-12

    def test_permutation_invariance(self):
        # invariant up to summation order (last-ulp reassociation)
        rng = np.random.default_rng(9)
        probs, y = random_instance(rng, n=15)
        perm = rng.permutation(15)
        for fn in (nll_classification, brier, ece):
            assert fn(probs, y) == pytest.approx(fn(probs[perm], y[perm]), abs=1e-12)
        assert accuracy(probs, y) == accuracy(probs[perm], y[perm])


class TestReport:
    def test_field_names_exact(self):
        report = classification_report([[0.7, 0.3]], [0], n_bins=5)
        doc = json.loads(json.dumps(report.to_dict()))
        assert set(doc) == {"nll", "ece", "brier", "accuracy", "n", "bins"}

    def test_perfect_fixture(self):
        report = classification_report(np.eye(3), [0, 1, 2], n_bins=15)
        assert report.nll == 0.0
        assert report.ece == 0.0
        assert report.brier == 0.0
        assert report.accuracy == 1.0
        # fewer or more targets than rows must not broadcast
        for targets in ([0], [0, 1], [0, 1, 2, 0]):
            for fn in (nll_classification, ece, brier, accuracy, classification_report):
                with pytest.raises(ValueError, match="disagree on length"):
                    fn(np.eye(3), targets)
