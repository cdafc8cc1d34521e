"""Stable probability transforms and order statistics.

All arrays are 64-bit floats. Matrices are 2-D row-major numpy arrays;
probability matrices hold one distribution per row.
"""

from __future__ import annotations

import numpy as np


def check_finite(arr: np.ndarray, name: str = "input") -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis``, computed with max-subtraction for stability.

    Output rows are positive and sum to 1 to within 1e-12; adding a
    constant to all logits leaves the result unchanged.
    """
    z = check_finite(logits, "logits")
    if z.size == 0:
        raise ValueError("softmax of an empty array")
    with np.errstate(over="ignore"):  # a gap past the float range is -inf: a 0 share
        e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / np.sum(e, axis=axis, keepdims=True)


def log_sum_exp(v, axis: int | None = None):
    """ln sum(exp(v)) along ``axis``, stable for large magnitudes."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty array")
    m = np.max(v, axis=axis, keepdims=True)
    # -inf entries are legal (they contribute zero mass)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(v - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def kth_smallest(scores, k: int) -> float:
    """k-th order statistic (1-based) of ``scores``.

    Ties resolve by value, so the result is invariant to permuting the
    input.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    n = s.size
    if not 1 <= k <= n:
        raise IndexError(f"k must be in [1, {n}], got {k}")
    return float(np.partition(s, k - 1)[k - 1])


def kth_smallest_columns(values: np.ndarray, k: int) -> np.ndarray:
    """k-th order statistic (1-based) of each column of a 2-D array."""
    return np.partition(values, k - 1, axis=0)[k - 1]


def entropy(probs, axis: int = -1) -> np.ndarray:
    """Shannon entropy in nats along ``axis``; 0 * log 0 counts as 0."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=axis)


# how far a probability row's sum may stray from 1
_PROB_SUM_TOL = 1e-6


def check_prob_rows(probs: np.ndarray, name: str = "probs") -> np.ndarray:
    """Validate a probability matrix: finite, nonnegative rows summing to 1
    within 1e-6. Messages count rows from 1, as CSV data rows do."""
    p = check_finite(probs, name)
    if p.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {p.shape}")
    negative = np.any(p < 0.0, axis=1)
    if np.any(negative):
        row = int(np.argmax(negative))
        raise ValueError(f"{name} row {row + 1} has a negative entry {p[row].min():.9g}")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > _PROB_SUM_TOL
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"{name} row {row + 1} sums to {sums[row]:.9g}, expected 1 within {_PROB_SUM_TOL}"
        )
    return p


# every integer up to 2^53 is a float64 exactly
EXACT_INT_LIMIT = 2**53


def check_labels(targets, n_classes: int | None = None, name: str = "targets") -> np.ndarray:
    """The one class-label rule: a 1-D vector whose values are each finite,
    integral, nonnegative and below ``n_classes`` (below 2^53 when it is
    None). The values are checked before the int64 cast, so the cast is
    exact; the message counts rows from 1, as ``check_prob_rows`` does."""
    y = np.asarray(targets)
    if y.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        y = np.asarray(y, dtype=np.float64)
    bound = EXACT_INT_LIMIT if n_classes is None else n_classes
    bad = ~((y >= 0) & (y < bound) & (y == np.round(y)))
    if np.any(bad):
        row = int(np.argmax(bad))
        raise ValueError(
            f"{name} row {row + 1}: class label {format(y[row], '.17g')} "
            f"is not a nonnegative integer below {bound}"
        )
    return y.astype(np.int64)
