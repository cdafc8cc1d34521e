"""Deterministic random number generation.

Stream derivation uses splitmix64; the draw stream itself comes from a
xorshift64* generator. Both are fixed-point arithmetic on 64-bit unsigned
integers, so a given seed replays the identical stream on any platform.
Normal variates use the Box-Muller transform with the (cos, sin) pair
consumed in order, which pins posterior-sampling golden values.

The array methods (``uniforms``, ``normals``, ``permutation``) define
the stream; ``tests/rng_oracle.py`` keeps the same stream one draw at a
time as their oracle. The states are made in numpy. The xorshift step is
linear over GF(2), so M^(2^j), the step applied 2^j times, is a 64x64 bit
matrix; applying it to the k states made so far gives the next k
(Haramoto et al. 2008, "Efficient jump ahead for F2-linear random number
generators"). Each M^(2^j) is kept as 8 byte-indexed 256-entry tables,
built at first use by squaring and shared by every stream. The output
multiply, the uniform scaling and ``np.sqrt`` are exact or correctly
rounded in numpy. The Box-Muller log stays ``math.log`` per value, since
``np.log`` can differ from it in the last bit; ``np.cos``/``np.sin`` are
used only after a first-use probe finds them equal to ``math`` on a fixed
set of angles, and ``math`` is used otherwise.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_MULTIPLIER = 0x2545F4914F6CDD1D
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53

# States are little-endian so that byte b of a state is column b of its
# uint8 view on any host.
_U64 = np.dtype("<u8")
_BYTE_OFFSETS = np.arange(0, 8 * 256, 256)

# _JUMPS[j] is M^(2^j) as 8 tables of 256 entries: entry [b, v] is the
# image of the state whose byte b is v and whose other bytes are 0. Filled
# at first use by _jump, under _JUMPS_LOCK so that streams in different
# threads never append a level twice; nothing is built at import.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()

# whether np.cos/np.sin equal math.cos/math.sin; probed at first use
_NUMPY_TRIG_EXACT: bool | None = None


def _mix64(x: int) -> int:
    """splitmix64 output function (Vigna's finalizer)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _step(x: int) -> int:
    """One xorshift64* state transition, M applied to ``x``."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & _MASK64
    return x ^ (x >> 27)


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """Byte tables, shape (8, 256), of the linear map whose image of bit i
    is ``images[i]``: the XOR of the images of the bits set in each byte."""
    cols = images.reshape(8, 8)
    tables = np.zeros((8, 256), dtype=_U64)
    for bit in range(8):
        w = 1 << bit
        tables[:, w : 2 * w] = tables[:, :w] ^ cols[:, bit : bit + 1]
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map held in ``tables`` applied to each state."""
    by_byte = states.view(np.uint8).reshape(-1, 8)
    if len(states) < 512:
        # few states: one gather over all 8 tables costs the fewest calls
        return np.bitwise_xor.reduce(tables.take(by_byte + _BYTE_OFFSETS), axis=1)
    # many states: a gather per byte is several times faster than one
    # (n, 8) gather and reduce
    out = tables[0].take(by_byte[:, 0])
    for b in range(1, 8):
        out ^= tables[b].take(by_byte[:, b])
    return out


def _jump(j: int) -> np.ndarray:
    """Byte tables of M^(2^j), squaring the last one built until j exists."""
    if j < len(_JUMPS):
        return _JUMPS[j]
    with _JUMPS_LOCK:
        while len(_JUMPS) <= j:
            if not _JUMPS:
                images = np.array([_step(1 << i) for i in range(64)], dtype=_U64)
            else:
                last = _JUMPS[-1]
                # the images of the 64 basis vectors under M^(2^j), mapped once more
                images = _apply(last, last[:, [1, 2, 4, 8, 16, 32, 64, 128]].ravel())
            _JUMPS.append(_byte_tables(images))
    return _JUMPS[j]


def _rejected(draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Which draws a bounded draw rejects for their bound: those at
    or above 2**64 - (2**64 % bound). When 2**64 % bound is 0 the threshold
    is 2**64, past every draw."""
    zero = np.uint64(0)
    excess = (zero - bounds) % bounds  # 2**64 % bound
    return (excess != 0) & (draws >= zero - excess)


def _numpy_trig_exact() -> bool:
    """Whether np.cos and np.sin equal math.cos and math.sin on a fixed set
    of angles spread over [0, 2 pi)."""
    angles = _TWO_PI * ((np.arange(4096) * 0.6180339887498949) % 1.0)
    angles = np.concatenate([angles, [0.0, math.pi / 2, math.pi, 1.5 * math.pi,
                                      math.nextafter(_TWO_PI, 0.0)]])
    values = angles.tolist()
    return (
        np.cos(angles).tolist() == list(map(math.cos, values))
        and np.sin(angles).tolist() == list(map(math.sin, values))
    )


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    global _NUMPY_TRIG_EXACT
    if _NUMPY_TRIG_EXACT is None:
        _NUMPY_TRIG_EXACT = _numpy_trig_exact()
    if _NUMPY_TRIG_EXACT:
        return np.cos(angles), np.sin(angles)
    values = angles.tolist()
    return (
        np.fromiter(map(math.cos, values), dtype=np.float64, count=len(values)),
        np.fromiter(map(math.sin, values), dtype=np.float64, count=len(values)),
    )


def child_seed(seed: int, index: int) -> int:
    """Seed of the index-th child stream of ``seed``.

    This is the index-th output of the splitmix64 sequence started at
    ``seed``, so distinct indices give independent streams by construction.
    """
    if index < 0:
        raise ValueError(f"child index must be nonnegative, got {index}")
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class Rng:
    """Seeded xorshift64* stream with splitmix64-derived state.

    Instances are single-owner mutable: callers that need parallelism
    derive independent child streams up front via :func:`child_seed`.
    """

    __slots__ = ("_state", "_cached_normal")

    def __init__(self, seed: int):
        state = _mix64((int(seed) + _GOLDEN) & _MASK64)
        # xorshift state must never be zero
        self._state = state if state != 0 else _GOLDEN
        self._cached_normal: float | None = None

    def _states(self, n: int) -> np.ndarray:
        """The stream's next n states, made by doubling jumps; the stream
        moves past them."""
        states = np.empty(n, dtype=_U64)
        if n == 0:
            return states
        states[0] = _step(self._state)
        k, j = 1, 0
        while k < n:
            m = min(k, n - k)
            states[k : k + m] = _apply(_jump(j), states[:m])
            k, j = k + m, j + 1
        self._state = int(states[-1])
        return states

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1), each the top 53 bits of an output."""
        draws = self._states(n) * np.uint64(_MULTIPLIER)
        return (draws >> np.uint64(11)).astype(np.float64) * _TO_UNIT

    def normals(self, n: int) -> np.ndarray:
        """n N(0, 1) draws by Box-Muller: each pair of uniforms gives its
        cos value, then its sin value. A cached sin half comes first, and an
        odd count leaves one for the next call."""
        out = np.empty(n, dtype=np.float64)
        start = 0
        if n and self._cached_normal is not None:
            out[0] = self._cached_normal
            self._cached_normal = None
            start = 1
        pairs = (n - start + 1) // 2
        u = self.uniforms(2 * pairs)
        # 1 - u lies in (0, 1], so the log is finite; it stays math.log,
        # value by value, since np.log can differ in the last bit
        logs = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), dtype=np.float64, count=pairs)
        radius = np.sqrt(-2.0 * logs)
        cos, sin = _cos_sin(_TWO_PI * u[1::2])
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = radius * cos
        z[1::2] = radius * sin
        out[start:] = z[: n - start]
        if (n - start) % 2:
            self._cached_normal = float(z[-1])
        return out

    def _bounded_draws(self, bounds: np.ndarray) -> list[int]:
        """A uniform integer in [0, b) for each b in ``bounds`` in turn,
        without modulo bias: a draw at or above 2**64 - (2**64 % b) is
        rejected and drawn again. A rejected draw spends its state, so the
        bounds from it onward draw again from that state."""
        out: list[int] = []
        while len(out) < len(bounds):
            open_bounds = bounds[len(out) :]
            states = self._states(len(open_bounds))
            draws = states * np.uint64(_MULTIPLIER)
            rejected = _rejected(draws, open_bounds)
            r = int(np.argmax(rejected)) if rejected.any() else len(open_bounds)
            out += (draws[:r] % open_bounds[:r]).tolist()
            if r < len(open_bounds):
                self._state = int(states[r])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        js = self._bounded_draws(np.arange(n, 1, -1, dtype=_U64))
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)
