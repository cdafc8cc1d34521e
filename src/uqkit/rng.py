"""Deterministic random number generation.

Stream derivation uses splitmix64; the draw stream itself comes from a
xorshift64* generator. Both are fixed-point arithmetic on 64-bit unsigned
integers, so a given seed replays the identical stream on any platform.
Normal variates use the Box-Muller transform with the (cos, sin) pair
consumed in order, which pins posterior-sampling golden values.

The array methods (``uniforms``, ``normals``, ``permutation``) and
``permutations`` define the stream; ``tests/rng_oracle.py`` keeps the
same stream one draw at a time as their oracle. The states are made in
numpy. The xorshift step is linear over GF(2), so M^(2^j), the step
applied 2^j times, is a 64x64 bit matrix; applying it to the k states
made so far gives the next k (Haramoto et al. 2008, "Efficient jump ahead
for F2-linear random number generators"). Each M^(2^j) is kept as 8
byte-indexed 256-entry tables, built at first use by squaring and shared
by every stream. One pass makes the next n states of any number of
streams at once, a stream being the one-stream case. ``permutations``
draws the Fisher-Yates permutations of many streams (a training epoch's
lanes, say) from one such pass; ``Rng.permutation`` is its one-stream
case, and ``Rng.uniforms`` and ``Rng.normals`` draw from one-stream
passes. From 256 states in all on, only every B-th state of a stream is
made by jumps (of M^(B 2^j)), and the B - 1 after each by plain xorshift
steps across all of them at once: B = 4 from 256 states, 8 from 2,048 and
16 from 16,384. The output multiply, the uniform scaling and
``np.sqrt`` are exact or correctly rounded in numpy. The Box-Muller log
stays ``math.log`` per value, since ``np.log`` can differ from it in the
last bit; ``np.cos``/``np.sin`` are used only after a first-use probe
finds them equal to ``math`` on a fixed set of angles, and ``math`` is
used otherwise.
"""

from __future__ import annotations

import bisect
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

# blocked stepping: _pass makes each stream's states in blocks of B = 2**b,
# with b _BLOCK_BITS[i] for the number i of _BLOCK_FROM's counts that the
# states of all streams together reach
_BLOCK_FROM = (256, 2048, 16384)
_BLOCK_BITS = (0, 2, 3, 4)
_SHIFTS = np.uint64(12), np.uint64(25), np.uint64(27)

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


def _step_into(prev: np.ndarray, out: np.ndarray) -> None:
    """One xorshift step of each state of ``prev``, written to ``out``."""
    right, left, last = _SHIFTS
    np.right_shift(prev, right, out=out)
    out ^= prev
    out ^= out << left
    out ^= out >> last


def _pass(starts: np.ndarray, n: int) -> np.ndarray:
    """The next n states of each stream whose state is in ``starts``, one
    row per stream, made in one pass over all of them.

    Every B-th state of a stream (every state when B is 1) comes from
    doubling jumps of M^B, taken across all streams at once; row t of a
    stream's ``(B, n / B)`` block is then row t - 1 stepped once, and the
    block read column by column is the stream."""
    s = len(starts)
    b = _BLOCK_BITS[bisect.bisect(_BLOCK_FROM, s * n)]
    h = -(-n >> b)
    block = np.empty((1 << b, h, s), dtype=_U64)
    heads = block[0].reshape(-1)  # head t of stream i at t * s + i
    if h:
        heads[:s] = [_step(x) for x in starts.tolist()]
    k, j = 1, 0
    while k < h:
        m = min(k, h - k)
        heads[k * s : (k + m) * s] = _apply(_jump(j + b), heads[: m * s])
        k, j = k + m, j + 1
    for prev, x in zip(block, block[1:]):
        _step_into(prev, x)
    return block.transpose(2, 1, 0).reshape(s, h << b)[:, :n]


def _uniforms(states: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) of each state: the top 53 bits of its output."""
    draws = states * np.uint64(_MULTIPLIER)
    return (draws >> np.uint64(11)).astype(np.float64) * _TO_UNIT


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


# The seeds a stream tells apart, 0 to 2**64 - 1: the seeds Rng takes. The
# schema fragment of a config's seed, of each of its seeds and of every
# --seed flag.
SEED_SCHEMA = {"type": "integer", "minimum": 0, "maximum": _MASK64}


class Rng:
    """Seeded xorshift64* stream with splitmix64-derived state.

    Instances are single-owner mutable: callers that need parallelism
    derive independent child streams up front via :func:`child_seed`. A
    seed outside ``SEED_SCHEMA`` is a ``ValueError`` worded as a config's.
    """

    __slots__ = ("_state", "_cached_normal")

    def __init__(self, seed: int):
        if not SEED_SCHEMA["minimum"] <= seed <= SEED_SCHEMA["maximum"]:
            from .data import check_value  # at call time: data imports rng

            check_value(SEED_SCHEMA, seed, ("seed",))
        state = _mix64((int(seed) + _GOLDEN) & _MASK64)
        # xorshift state must never be zero
        self._state = state if state != 0 else _GOLDEN
        self._cached_normal: float | None = None

    def _states(self, n: int) -> np.ndarray:
        """The stream's next n states; the stream moves past them."""
        states = _pass(np.array([self._state], dtype=_U64), n)[0]
        if n:
            self._state = int(states[-1])
        return states

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform draws in [0, 1), each the top 53 bits of an output."""
        return _uniforms(self._states(n))

    def normals(self, n: int) -> np.ndarray:
        """n N(0, 1) draws by Box-Muller: each pair of uniforms gives its
        cos value, then its sin value. A cached sin half comes first, and an
        odd count leaves one for the next call."""
        out = np.empty(n)
        held = n > 0 and self._cached_normal is not None
        if held:
            out[0], self._cached_normal = self._cached_normal, None
        u = _uniforms(self._states(2 * ((n - held + 1) // 2))).reshape(-1, 2)
        # 1 - u lies in (0, 1], so the log is finite; it stays math.log,
        # value by value, since np.log can differ in the last bit
        logs = np.fromiter(map(math.log, (1.0 - u[:, 0]).tolist()), dtype=np.float64, count=len(u))
        radius = np.sqrt(-2.0 * logs)
        cos, sin = _cos_sin(_TWO_PI * u[:, 1])
        z = np.stack((radius * cos, radius * sin), axis=1).reshape(-1)  # cos, sin, cos, ...
        out[held:] = z[: n - held]
        if (n - held) % 2:
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
        """Fisher-Yates permutation of range(n): the one-stream case of
        :func:`permutations`."""
        return permutations([self], n)[0]


def permutations(streams: list[Rng], n: int) -> np.ndarray:
    """Fisher-Yates permutations of range(n), row s drawn from
    ``streams[s]``, which moves past its draws: row s is
    ``streams[s].permutation(n)``. Draw k of a stream is a uniform
    integer below n - k. Every stream's draws come from one pass and one
    rejection check; only a stream with a rejected draw (about one in
    2**64 / n) draws again, alone, through ``Rng._bounded_draws``."""
    bounds = np.arange(n, 1, -1, dtype=_U64)
    states = _pass(np.array([r._state for r in streams], dtype=_U64), len(bounds))
    draws = states * np.uint64(_MULTIPLIER)
    rejected = _rejected(draws, bounds).any(axis=1).tolist()
    perms = np.empty((len(streams), n), dtype=np.int64)
    for s, (stream, js) in enumerate(zip(streams, (draws % bounds).tolist())):
        if rejected[s]:
            js = stream._bounded_draws(bounds)
        elif len(bounds):
            stream._state = int(states[s, -1])
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        perms[s] = perm
    return perms
