import hashlib
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqkit.rng as rng_module
from rng_oracle import ScalarRng
from uqkit.rng import Rng, child_seed


def test_replay_is_bit_identical():
    a = Rng(1234)
    b = Rng(1234)
    assert a.uniforms(50).tolist() == b.uniforms(50).tolist()
    a2, b2 = Rng(99), Rng(99)
    assert a2.normals(31).tolist() == b2.normals(31).tolist()


def test_two_calls_replay_as_pair():
    r = Rng(7)
    pair = (r.normals(1)[0], r.normals(1)[0])
    r2 = Rng(7)
    assert pair == (r2.normals(1)[0], r2.normals(1)[0])


def test_distinct_seeds_differ():
    assert Rng(0).normals(8).tolist() != Rng(1).normals(8).tolist()


def test_child_streams_differ_pairwise():
    streams = [Rng(child_seed(42, i)).normals(4).tolist() for i in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert streams[i] != streams[j]


def test_child_seed_is_pure_function_of_seed_and_index():
    assert child_seed(5, 3) == child_seed(5, 3)
    assert child_seed(5, 3) != child_seed(5, 4)
    assert child_seed(5, 3) != child_seed(6, 3)


@pytest.mark.parametrize("seed, fault", [
    (-1, "-1 is below the minimum 0"),
    (2**64, "18446744073709551616 is above the maximum 18446744073709551615"),
])
def test_seed_outside_the_stream_is_refused_as_a_config_seed(seed, fault):
    # a seed was taken modulo 2**64: Rng(2**64) replayed Rng(0), and Rng(-1)
    # replayed Rng(2**64 - 1)
    with pytest.raises(ValueError, match=f"^at seed: {fault}$"):
        Rng(seed)
    assert Rng(2**64 - 1).uniforms(4).tolist() != Rng(0).uniforms(4).tolist()


def test_uniform_range():
    r = Rng(11)
    draws = r.uniforms(10_000)
    assert np.all(draws >= 0.0)
    assert np.all(draws < 1.0)


def test_normal_moments():
    # Monte Carlo oracle: mean of 1e6 standard normals within +/- 0.01
    r = Rng(2024)
    draws = r.normals(1_000_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_box_muller_pair_is_cos_then_sin():
    z0, z1 = Rng(3).normals(2).tolist()
    # replay the uniforms by hand and apply the documented transform
    u1, u2 = Rng(3).uniforms(2).tolist()
    radius = math.sqrt(-2.0 * math.log(1.0 - u1))
    assert z0 == radius * math.cos(2.0 * math.pi * u2)
    assert z1 == radius * math.sin(2.0 * math.pi * u2)


def test_integer_bounds_and_determinism():
    bounds = np.full(2000, 7, dtype=np.uint64)
    draws = Rng(5)._bounded_draws(bounds)
    assert min(draws) == 0 and max(draws) == 6
    assert draws == Rng(5)._bounded_draws(bounds)


def test_permutation_is_a_permutation():
    for seed in (0, 1, 17):
        perm = Rng(seed).permutation(40)
        assert sorted(perm.tolist()) == list(range(40))


# ---------------------------------------------------------------------------
# guards on the stream's bytes

# sha256 of (first 1e5 uniforms, first 1e5 normals, permutation(10_000)),
# each drawn from a fresh Rng(seed), as first produced by the one-draw-at-a-time
# generator that ScalarRng keeps
_GOLDEN_STREAM = {
    0: (
        "9dadded310086aa75a6104d1eaa1a4e5bcbcb6444833c79dd3678c91e920a2cd",
        "9abcf7e9e86bf090f68979a1cf600df4c22ba187ef0e8c6e7354f620faab703c",
        "fc9dd48f38877ff603da9968cbe9d02730882d87f68be87c56c7c8f6100d6d98",
    ),
    7: (
        "029928564fa3363a6f16e47180882c46dcbaaa4a2b35bdadd26b22ec678475ed",
        "97fea2a3d6d64573153f1e27082345327efebf05094010d4794bb56a7e79adb4",
        "2b661edd45050ed02bc7685a76a3b0bd6380e802c2b3098bd81e0b8e1ca64c17",
    ),
    2**64 - 1: (
        "8c673b2716dfef83f4ef8d0b0bc09c7991e54524dcf5808ac178d364d59d8dae",
        "63b82eb5fee2c0a1d9864b1cee94e7d57feac63a35fe48b9b12029353bb11383",
        "73974151021a235933d7a6259623bfbb11db0189ab7cd2f3f2585d91d3e16140",
    ),
}


@pytest.mark.parametrize("seed", sorted(_GOLDEN_STREAM))
def test_stream_golden_digests(seed):
    arrays = (
        Rng(seed).uniforms(100_000),
        Rng(seed).normals(100_000),
        Rng(seed).permutation(10_000),
    )
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays)
    assert got == _GOLDEN_STREAM[seed]


_SIZES = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 149, 150, 151, 152, 255, 256, 257]),
    st.integers(0, 700),
)
_BOUNDS = st.one_of(
    st.integers(1, 50),
    st.sampled_from([2**k for k in range(64)] + [3 * 2**61, 2**63 + 1, 2**64 - 1]),
    st.integers(1, 2**64 - 1),
)
_CALLS = st.lists(
    st.tuples(st.sampled_from(["uniforms", "normals", "permutation"]), _SIZES),
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), calls=_CALLS)
def test_mixed_calls_equal_the_scalar_stream(seed, calls):
    fast, slow = Rng(seed), ScalarRng(seed)
    for name, n in calls:
        got, want = getattr(fast, name)(n), getattr(slow, name)(n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (name, n)
    assert fast._state == slow._state
    assert fast._cached_normal == slow._cached_normal


# counts at and around each blocked-stepping threshold, most of them not a
# multiple of the block length there, and counts between the thresholds
_BLOCKED_SIZES = st.one_of(
    st.sampled_from([t + d for t in rng_module._BLOCK_FROM for d in (-1, 0, 1, 3, 7, 9)]),
    st.integers(rng_module._BLOCK_FROM[0] - 2, rng_module._BLOCK_FROM[-1] + 40),
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    method=st.sampled_from(["_states", "uniforms", "normals", "permutation"]),
    n=_BLOCKED_SIZES,
    cached=st.booleans(),
)
def test_blocked_stepping_equals_the_scalar_stream(seed, method, n, cached):
    fast, slow = Rng(seed), ScalarRng(seed)
    if cached:  # an odd normals call leaves the sin half cached
        assert fast.normals(3).tobytes() == slow.normals(3).tobytes()
    if method == "_states":
        got = fast._states(n).tolist()
        want = [(slow.next_uint64(), slow._state)[1] for _ in range(n)]
    else:
        got, want = getattr(fast, method)(n).tobytes(), getattr(slow, method)(n).tobytes()
    assert got == want
    assert fast._state == slow._state
    assert fast._cached_normal == slow._cached_normal


def test_normals_do_not_depend_on_how_the_calls_split():
    whole = Rng(11).normals(1001)
    r = Rng(11)
    parts = [r.normals(k) for k in (151, 1, 300, 0, 2, 547)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_rejection_mask_matches_the_integer_rule():
    bounds, draws = [], []
    for b in [1, 2, 3, 5, 7, 10, 300, 2**32, 2**32 + 1, 2**63, 2**63 + 1, 3 * 2**61, 2**64 - 1]:
        threshold = 2**64 - 2**64 % b
        for d in {threshold - 1, threshold % 2**64, 2**64 - 1, 0, b - 1}:
            bounds.append(b)
            draws.append(d)
    got = rng_module._rejected(np.array(draws, dtype=np.uint64), np.array(bounds, dtype=np.uint64))
    want = [d >= 2**64 - 2**64 % b for d, b in zip(draws, bounds)]
    assert got.tolist() == want
    assert any(want) and not all(want)


class _BudgetedRng(Rng):
    """An Rng whose ``_states`` fails past a call budget, so that a bounded
    draw loop that stops making progress fails instead of hanging."""

    __slots__ = ("calls_left",)

    def _states(self, n):
        self.calls_left -= 1
        assert self.calls_left >= 0, "bounded draws made no progress"
        return super()._states(n)


def _bounded_draws_and_oracle(seed, bounds):
    """(draws, final state, batches made) of ``_bounded_draws``, and the
    draws and final state of ``ScalarRng.integer`` over the same bounds."""
    fast, slow = _BudgetedRng(seed), ScalarRng(seed)
    # a batch follows each rejection, and even the bound 2**63 + 1 rejects
    # only about half its draws
    budget = fast.calls_left = 10 * len(bounds) + 10
    got = fast._bounded_draws(np.array(bounds, dtype=np.uint64))
    want = [slow.integer(b) for b in bounds]
    return (got, fast._state, budget - fast.calls_left), (want, slow._state)


# bounds whose draws really are rejected: a quarter of all draws for
# 3 * 2**61, about half for 2**63 + 1, and one output value for 2**64 - 1
_REJECTING = st.sampled_from([3 * 2**61, 2**63 + 1, 2**64 - 1])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    bounds=st.lists(st.one_of(_REJECTING, _BOUNDS), max_size=40),
)
def test_bounded_draws_equal_the_scalar_integer_loop(seed, bounds):
    (got, state, _), (want, want_state) = _bounded_draws_and_oracle(seed, bounds)
    assert got == want
    assert state == want_state


def test_bounded_draws_redraw_after_rejections_in_a_batch():
    # bounds that reject often, so the loop takes many batches
    bounds = [3 * 2**61, 2**63 + 1, 5] * 30
    (got, state, batches), (want, want_state) = _bounded_draws_and_oracle(1, bounds)
    assert batches > 10
    assert got == want and state == want_state


_PERMUTATION_SIZES = st.sampled_from([0, 1, 2, 255, 300, 2049])
_STREAM_SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(seeds=_STREAM_SEEDS, n=_PERMUTATION_SIZES)
def test_many_stream_permutations_equal_each_streams_own(seeds, n):
    streams = [Rng(seed) for seed in seeds]
    got = rng_module.permutations(streams, n)
    assert got.shape == (len(seeds), n) and got.dtype == np.int64
    for row, stream, seed in zip(got, streams, seeds):
        alone = Rng(seed)
        assert row.tobytes() == alone.permutation(n).tobytes()
        assert stream._state == alone._state


def _permutation_rejecting(seed, n, forced):
    """``ScalarRng(seed).permutation(n)`` whose bounded draws also reject
    the output ``forced``, and the stream's state after it."""
    slow, perm = ScalarRng(seed), list(range(n))
    for i in range(n - 1, 0, -1):
        draw = slow.next_uint64()
        while draw == forced or draw >= 2**64 - 2**64 % (i + 1):
            draw = slow.next_uint64()
        j = draw % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm, slow._state


@settings(max_examples=30, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
    n=_PERMUTATION_SIZES.filter(lambda n: n >= 2),
    data=st.data(),
)
def test_only_a_stream_with_a_rejected_draw_draws_again(seeds, n, data):
    # rejections are about n / 2**64 per draw, so one is forced: the k-th
    # output of stream i counts as rejected wherever it is checked (the
    # seeds differ, so no other stream draws that output)
    i = data.draw(st.integers(0, len(seeds) - 1), label="stream")
    k = data.draw(st.integers(0, n - 2), label="draw")
    slow = ScalarRng(seeds[i])
    forced = [slow.next_uint64() for _ in range(k + 1)][-1]
    rejected, redrawn = rng_module._rejected, []
    bounded_draws = Rng._bounded_draws

    def record(stream, bounds):
        redrawn.append(stream)
        return bounded_draws(stream, bounds)

    streams = [Rng(seed) for seed in seeds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "_rejected", lambda d, b: rejected(d, b) | (d == np.uint64(forced)))
        mp.setattr(Rng, "_bounded_draws", record)
        got = rng_module.permutations(streams, n)
    assert redrawn == [streams[i]]
    for s, (row, stream, seed) in enumerate(zip(got, streams, seeds)):
        alone = Rng(seed)
        want = alone.permutation(n).tolist(), alone._state
        if s == i:
            want = _permutation_rejecting(seed, n, forced)
        assert (row.tolist(), stream._state) == want


def test_scalar_trig_fallback_gives_the_same_normals(monkeypatch):
    monkeypatch.setattr(rng_module, "_NUMPY_TRIG_EXACT", False)
    assert Rng(4).normals(999).tobytes() == ScalarRng(4).normals(999).tobytes()


def test_trig_probe_agrees_with_stream_angles():
    angles = 2.0 * np.pi * Rng(21).uniforms(200_000)
    values = angles.tolist()
    exact = (
        np.cos(angles).tolist() == [math.cos(a) for a in values]
        and np.sin(angles).tolist() == [math.sin(a) for a in values]
    )
    assert rng_module._numpy_trig_exact() == exact


def test_importing_the_package_builds_no_jump_table():
    code = "import uqkit, uqkit.cli, uqkit.rng as r; print(len(r._JUMPS), r._NUMPY_TRIG_EXACT)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "None"]


def test_jump_tables_equal_repeated_steps():
    x = 0x0123456789ABCDEF
    for j in range(6):
        want = x
        for _ in range(2**j):
            want = rng_module._step(want)
        got = rng_module._apply(rng_module._jump(j), np.array([x], dtype=np.uint64))
        assert int(got[0]) == want


def test_threads_building_the_tables_at_once_get_the_scalar_stream(monkeypatch):
    monkeypatch.setattr(rng_module, "_JUMPS", [])
    seeds = range(6)  # more threads than the cores of a small host
    want = {s: ScalarRng(s).normals(3000).tobytes() for s in seeds}
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda s=s: got.__setitem__(s, Rng(s).normals(3000).tobytes()))
            for s in seeds
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert len(rng_module._JUMPS) == 12
