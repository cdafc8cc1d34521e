"""The random stream one draw at a time: the oracle for ``uqkit.rng.Rng``.

``Rng`` makes its states in numpy batches and rejects bounded draws a batch
at a time. ``ScalarRng`` takes the same stream one state per draw in plain
Python integers and floats, as written in the xorshift64* and Box-Muller
definitions, and the tests compare the two bit for bit, stream state and
cached normal included.
"""

from __future__ import annotations

import math

import numpy as np

from uqkit.rng import _GOLDEN, _MASK64, _MULTIPLIER, _TO_UNIT, _TWO_PI, _mix64, _step


class ScalarRng:
    """Seeded xorshift64* stream, one draw per call."""

    def __init__(self, seed: int):
        state = _mix64((int(seed) + _GOLDEN) & _MASK64)
        # xorshift state must never be zero
        self._state = state if state != 0 else _GOLDEN
        self._cached_normal: float | None = None

    def next_uint64(self) -> int:
        x = self._state = _step(self._state)
        return (x * _MULTIPLIER) & _MASK64

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_uint64() >> 11) * _TO_UNIT

    def standard_normal(self) -> float:
        """N(0, 1) draw; Box-Muller, cos draw returned before the sin draw."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        # 1 - uniform() lies in (0, 1], so the log is always finite
        r = math.sqrt(-2.0 * math.log(1.0 - self.uniform()))
        a = _TWO_PI * self.uniform()
        self._cached_normal = r * math.sin(a)
        return r * math.cos(a)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        threshold = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            draw = self.next_uint64()
            if draw < threshold:
                return draw % bound

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.uniform() for _ in range(n)], dtype=np.float64)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.standard_normal() for _ in range(n)], dtype=np.float64)

    def permutation(self, n: int) -> np.ndarray:
        perm = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.integer(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
