import hashlib
import importlib.util
import math
import struct
import sys
from array import array

import numpy as np
import pytest

from continualdp import RandomSource, concentration_bound, noise, sample_laplace
from continualdp.errors import BadDelta, EmptyList, NonPositiveScale
from continualdp.noise import laplace_array, laplace_block

# the block samplers, each with a test of the container it returns
SAMPLERS = [(laplace_block, lambda d: isinstance(d, np.ndarray) and d.dtype == np.float64),
            (laplace_array, lambda d: isinstance(d, array) and d.typecode == "d")]


def test_same_seed_reproduces_the_stream():
    a, b = RandomSource(123), RandomSource(123)
    assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]


def test_seed_is_masked_to_64_bits():
    assert RandomSource(2**64 + 5).seed == 5


def test_children_are_deterministic_and_distinct():
    root = RandomSource(1)
    assert root.child("x").seed == RandomSource(1).child("x").seed
    assert root.child("x").seed != root.child("y").seed
    assert root.child("x").seed != root.seed


def test_unset_seed_uses_entropy():
    # an unseeded source has no seed: its key is 32 bytes of OS entropy
    a, b = RandomSource(), RandomSource()
    assert a.seed is None and b.seed is None
    assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]
    # its children are keyed by its key, so they are unseeded and distinct too
    x, y, other = a.child("x"), a.child("y"), b.child("x")
    assert x.seed is None and y.seed is None and other.seed is None
    assert len({x.uniform(), y.uniform(), other.uniform()}) == 3


def test_stream_known_answer():
    # the key is derived from the seed under a fixed label; the stream is
    # shake_256(key || counter).digest(4096) as big-endian 64-bit words
    key = hashlib.shake_256(b"continualdp.noise.RandomSource seed key v1:"
                            + (123).to_bytes(8, "big")).digest(32)
    stream = b"".join(hashlib.shake_256(key + i.to_bytes(8, "big")).digest(4096)
                      for i in range(2))
    words = struct.unpack(">1024Q", stream)
    rng = RandomSource(123)
    # 600 draws cross the first chunk boundary, at word 512
    assert [rng.uniform() for _ in range(600)] == [(w >> 11) * 2.0**-53 for w in words[:600]]
    assert rng.integers(0, 2**64) == words[600]


def _shake_stream(key: bytes, chunks: int) -> bytes:
    return b"".join(hashlib.shake_256(key + i.to_bytes(8, "big")).digest(4096)
                    for i in range(chunks))


def _fresh_noise(monkeypatch, fallback: bool):
    """A fresh copy of the noise module; with ``fallback``, as a build
    without CPython's built-in _sha3 and _blake2 imports it."""
    if fallback:
        for name in ("_sha3", "_blake2"):
            monkeypatch.setitem(sys.modules, name, None)  # importing it raises ImportError
    spec = importlib.util.spec_from_file_location("continualdp._noise_copy", noise.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fallback", [False, True], ids=["builtin", "hashlib"])
def test_stream_bytes_equal_hashlib_shake(monkeypatch, fallback):
    mod = _fresh_noise(monkeypatch, fallback)
    if fallback:
        assert (mod.shake_256, mod.blake2b) == (hashlib.shake_256, hashlib.blake2b)
    else:
        sha3, blake2 = pytest.importorskip("_sha3"), pytest.importorskip("_blake2")
        assert (mod.shake_256, mod.blake2b) == (sha3.shake_256, blake2.blake2b)
    seeded = mod.RandomSource(123)
    key = hashlib.shake_256(b"continualdp.noise.RandomSource seed key v1:"
                            + (123).to_bytes(8, "big")).digest(32)
    child_seed = hashlib.blake2b(b"123:trial 2", digest_size=8).digest()
    child_key = hashlib.shake_256(b"continualdp.noise.RandomSource seed key v1:"
                                  + child_seed).digest(32)
    unseeded = mod.RandomSource()
    unseeded_child_key = hashlib.blake2b(b"x", key=unseeded._key, digest_size=32).digest()
    cases = [(seeded, key), (seeded.child("trial 2"), child_key),
             (unseeded.child("x"), unseeded_child_key)]
    for rng, key in cases:
        # three reads that cross the first two chunk boundaries mid-word
        got = rng._read(5) + rng._read(8000) + rng._read(4 * 4096 - 8005)
        assert got == _shake_stream(key, 4)


def test_laplace_scale_validation():
    for b in (0.0, -1.0, math.inf, math.nan):
        rng = RandomSource(0)
        with pytest.raises(NonPositiveScale, match="scale must be positive and finite"):
            sample_laplace(rng, b)
        for sampler, _ in SAMPLERS:
            with pytest.raises(NonPositiveScale, match="scale must be positive and finite"):
                sampler(rng, b, 3)
        assert rng.uniform() == RandomSource(0).uniform()  # refused before any draw


# one chunk of the stream holds 512 words; a log1p slice takes 4096 draws
@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097, 5000])
def test_laplace_block_equals_scalar_draws(n):
    for sampler, holds in SAMPLERS:
        block, scalar = RandomSource(7), RandomSource(7)
        draws = sampler(block, 1.5, n)
        assert holds(draws) and len(draws) == n
        assert draws.tolist() == [sample_laplace(scalar, 1.5) for _ in range(n)]
        # both sources stand at the same place in the stream
        assert block.uniform() == scalar.uniform()


def test_laplace_block_continues_a_partly_read_chunk():
    for sampler, _ in SAMPLERS:
        block, scalar = RandomSource(8), RandomSource(8)
        assert [block.uniform() for _ in range(300)] == [scalar.uniform() for _ in range(300)]
        draws = sampler(block, 0.5, 4500)
        assert draws.tolist() == [sample_laplace(scalar, 0.5) for _ in range(4500)]
        assert block.integers(0, 10**9) == scalar.integers(0, 10**9)


def _stubbed(words):
    """A source whose stream begins with ``words``, then goes on as seed 3's."""
    rng = RandomSource(3)
    rng._refill()
    head = struct.pack(f">{len(words)}Q", *words)
    rng._chunk = head + rng._chunk[len(head):]
    return rng


def test_laplace_block_skips_exact_zero_uniforms():
    # a uniform is the word's top 53 bits times 2^-53
    head = [int(u * 2**53) << 11 for u in (0.25, 0.0, 0.0, 0.75, 0.0, 0.5)]
    for sampler, _ in SAMPLERS:
        block, scalar = _stubbed(head), _stubbed(head)
        draws = sampler(block, 2.0, 6)
        assert draws.tolist() == [sample_laplace(scalar, 2.0) for _ in range(6)]
        # u = 0.25 - 0.5 and, after two skipped zeros, u = 0.75 - 0.5
        assert draws[0] == 2.0 * math.log1p(-0.5) and draws[1] == -2.0 * math.log1p(-0.5)
        # u = 0.5 - 0.5 = +0.0 draws -2.0 * log1p(-0.0) = +0.0, as the scalar draw does
        assert math.copysign(1.0, draws[2]) == 1.0 and draws[2] == 0.0
        assert block.uniform() == scalar.uniform()


def test_integers_of_a_span_of_one():
    rng = RandomSource(4)
    assert [rng.integers(5, 6) for _ in range(10)] == [5] * 10
    assert rng.integers(-(2**70), -(2**70) + 1) == -(2**70)


def test_integers_reject_the_words_past_the_last_whole_span():
    # 3 does not divide 2^64: words at or above 2^64 - 1 would favour 0
    rng = _stubbed([2**64 - 1, 2**64 - 1, 5, 2**64 - 2])
    assert rng.integers(10, 13) == 10 + 5 % 3
    assert rng.integers(10, 13) == 10 + (2**64 - 2) % 3
    rng = RandomSource(9)
    draws = [rng.integers(-2, 5) for _ in range(7000)]
    assert set(draws) == set(range(-2, 5))
    assert all(900 < draws.count(v) < 1100 for v in range(-2, 5))


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**64 + 1)])
def test_integers_refuse_an_empty_or_too_wide_range(low, high):
    # numpy's Generator.integers raises ValueError for high <= low as well
    with pytest.raises(ValueError):
        RandomSource(0).integers(low, high)


def test_laplace_empirical_moments():
    rng = RandomSource(99)
    b = 2.5
    draws = [sample_laplace(rng, b) for _ in range(20000)]
    mean = sum(draws) / len(draws)
    mean_abs = sum(abs(x) for x in draws) / len(draws)
    assert abs(mean) < 0.1
    # E|X| = b for Laplace(0, b)
    assert abs(mean_abs - b) < 0.1


def test_laplace_symmetric_tails():
    rng = RandomSource(5)
    draws = [sample_laplace(rng, 1.0) for _ in range(20000)]
    pos = sum(x > 0 for x in draws)
    assert 0.47 < pos / len(draws) < 0.53


def test_concentration_bound_value():
    delta = 0.05
    log_term = math.log(2 / delta)
    expected = math.sqrt(3 * 4.0**2) * log_term * math.sqrt(8)
    assert concentration_bound([4.0, 4.0, 4.0], delta) == pytest.approx(expected)


def test_concentration_bound_monotone_in_delta():
    assert concentration_bound([1.0], 0.01) > concentration_bound([1.0], 0.1)


def test_concentration_bound_validation():
    with pytest.raises(EmptyList):
        concentration_bound([], 0.05)
    with pytest.raises(BadDelta):
        concentration_bound([1.0], 1.5)
    for b in (-1.0, math.inf, math.nan):
        with pytest.raises(NonPositiveScale, match="scale must be positive and finite"):
            concentration_bound([1.0, b], 0.05)
    # finite scales whose bound overflows a float
    with pytest.raises(NonPositiveScale, match="too large for a float"):
        concentration_bound([1e300], 0.05)


def test_concentration_bound_holds_empirically():
    rng = RandomSource(11)
    scales = [1.0] * 8
    delta = 0.05
    bound = concentration_bound(scales, delta)
    trials = 2000
    exceed = sum(
        abs(sum(sample_laplace(rng, b) for b in scales)) > bound
        for _ in range(trials)
    )
    assert exceed / trials <= delta
