"""Calibration and accuracy metrics.

Conventions, fixed here because reference definitions leave them open:
ECE uses equal-width bins over (0, 1] with (lo, hi] boundaries and a
confidence of exactly 0 assigned to the first bin; the Brier score is the
multiclass sum over classes; interval coverage uses closed endpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .conformal import Intervals
from .data import check_value
from .numerics import EXACT_INT_LIMIT, check_labels, check_prob_rows

DEFAULT_BINS = 15
# every count up to 2^53 is a float64, so confidence * bins is one rounding
# and the bin index fits an int64
MAX_BINS = EXACT_INT_LIMIT
# the bin count's schema fragment: a config's ``bins`` and the ECE's ``n_bins``
BINS_SCHEMA = {"type": "integer", "minimum": 1, "maximum": MAX_BINS}


@dataclass(frozen=True)
class Report:
    """Metric bundle serialized as JSON with exactly these field names."""

    nll: float
    ece: float
    brier: float
    accuracy: float
    n: int
    bins: int

    def to_dict(self) -> dict:
        return asdict(self)


def _checked(probs, targets) -> tuple[np.ndarray, np.ndarray]:
    """(probability matrix, int64 labels) with one in-range label per row."""
    p = check_prob_rows(probs, "probs")
    y = check_labels(targets, p.shape[1], "targets")
    if y.shape[0] != p.shape[0]:
        raise ValueError("probs and targets disagree on length")
    return p, y


def _nll(p: np.ndarray, y: np.ndarray) -> float:
    picked = np.maximum(p[np.arange(p.shape[0]), y], 1e-300)
    return float(-np.mean(np.log(picked)))


def nll_classification(probs, targets) -> float:
    """Mean negative log likelihood; probabilities floored at 1e-300."""
    return _nll(*_checked(probs, targets))


def _bin_index(confidence: np.ndarray, n_bins: int) -> np.ndarray:
    """(lo, hi] bins; confidence 0 goes to bin 0."""
    idx = np.ceil(confidence * n_bins).astype(np.int64) - 1
    return np.clip(idx, 0, n_bins - 1)


def _ece(p: np.ndarray, y: np.ndarray, n_bins: int) -> float:
    check_value(BINS_SCHEMA, n_bins, ("n_bins",))
    n = p.shape[0]
    confidence = p.max(axis=1)
    correct = (p.argmax(axis=1) == y).astype(np.float64)
    idx = _bin_index(confidence, n_bins)
    # the occupied bins in ascending order, each bin's rows in row order (a
    # stable sort): the every-bin sum's terms in its order, empty bins adding nothing
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    counts = np.diff(starts, append=n)
    total = 0.0
    for start, count in zip(starts.tolist(), counts.tolist()):
        rows = order[start : start + count]
        gap = abs(correct[rows].mean() - confidence[rows].mean())
        total += (count / n) * gap
    return float(total)


def ece(probs, targets, n_bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error of top-label confidence."""
    return _ece(*_checked(probs, targets), n_bins)


def _brier(p: np.ndarray, y: np.ndarray) -> float:
    # (p - onehot) ** 2 in one buffer: squaring is x * x either way
    sq = np.zeros_like(p)
    sq[np.arange(p.shape[0]), y] = 1.0
    np.subtract(p, sq, out=sq)
    return float(np.mean(np.sum(np.multiply(sq, sq, out=sq), axis=1)))


def brier(probs, targets) -> float:
    """Multiclass Brier score: mean squared distance to the one-hot target."""
    return _brier(*_checked(probs, targets))


def _accuracy(p: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(p.argmax(axis=1) == y))


def accuracy(probs, targets) -> float:
    """Fraction of rows whose argmax matches the target; ties take the
    lowest class index."""
    return _accuracy(*_checked(probs, targets))


def interval_metrics(intervals: Intervals, targets) -> tuple[float, float]:
    """(coverage, mean width) of closed intervals against targets."""
    return float(np.mean(intervals.contains(targets))), float(np.mean(intervals.width()))


def classification_report(probs, targets, n_bins: int = DEFAULT_BINS) -> Report:
    """Bundle all classification metrics over one prediction matrix."""
    p, y = _checked(probs, targets)
    return Report(
        nll=_nll(p, y),
        ece=_ece(p, y, n_bins),
        brier=_brier(p, y),
        accuracy=_accuracy(p, y),
        n=p.shape[0],
        bins=n_bins,
    )
