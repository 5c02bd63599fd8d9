"""Keyed randomness, Laplace sampling, and the concentration bound.

All mechanism noise flows through :class:`RandomSource`, a SHAKE-256
byte stream under a 32-byte key.  A seeded source derives its key from a
64-bit seed, so its draws are bitwise reproducible from that seed; an
unseeded source takes its key from OS entropy and cannot be replayed.
Child sources derived from (seed, label) pairs keep parallel trials
independent yet replayable.

The stream is hashed by CPython's built-in SHAKE-256 and BLAKE2b, which
load no OpenSSL; a build configured without them, as FIPS builds can be,
falls back to ``hashlib``, with the same bytes.  ``laplace_array`` draws a
block of Laplace noise into an ``array('d')`` without numpy;
``laplace_block`` draws the same values into a numpy array, reading its
chunks through ``hashlib``'s faster OpenSSL SHAKE, as that path loads
numpy anyway.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from math import copysign, log1p
from typing import TYPE_CHECKING

try:  # CPython's own hashes: hashlib would map OpenSSL's libcrypto
    from _blake2 import blake2b
    from _sha3 import shake_256
except ImportError:
    from hashlib import blake2b, shake_256

from .errors import BadDelta, EmptyList, NonPositiveScale

if TYPE_CHECKING:
    import numpy as np

_SEED_KEY_LABEL = b"continualdp.noise.RandomSource seed key v1:"
# bytes per SHAKE-256 call; fixed, so reads of any size see the same stream
_CHUNK = 4096
_WORD = struct.Struct(">Q")
_WORDS = 1 << 64
_ULP = 2.0**-53  # a uniform is the top 53 bits of a word, times 2^-53
_SLICE = 4096  # draws per math.log1p pass of laplace_array and laplace_block


class RandomSource:
    """A keyed stream of uniform draws with deterministic child derivation.

    The stream is ``shake_256(key || counter).digest(4096)`` for counter
    0, 1, 2, ... as 8-byte big-endian words.  ``seed`` is the 64-bit seed
    the key came from, or None when the key came from OS entropy.
    """

    __slots__ = ("seed", "_key", "_counter", "_chunk", "_pos")

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            self.seed = None
            self._start(os.urandom(32))
        else:
            self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
            seed_bytes = self.seed.to_bytes(8, "big")
            self._start(shake_256(_SEED_KEY_LABEL + seed_bytes).digest(32))

    def _start(self, key: bytes) -> None:
        self._key = key
        self._counter = 0
        self._chunk = b""
        self._pos = 0

    def child(self, label: str | int) -> "RandomSource":
        """Derive an independent source keyed by (seed, label), or by
        (key, label) for an unseeded source, which has nothing to replay."""
        if self.seed is None:
            child = RandomSource.__new__(RandomSource)
            child.seed = None
            key = blake2b(str(label).encode(), key=self._key, digest_size=32)
            child._start(key.digest())
            return child
        h = blake2b(f"{self.seed}:{label}".encode(), digest_size=8)
        return RandomSource(int.from_bytes(h.digest(), "big"))

    def _refill(self, shake=shake_256) -> None:
        counter = self._counter.to_bytes(8, "big")
        self._chunk = shake(self._key + counter).digest(_CHUNK)
        self._counter += 1
        self._pos = 0

    def _word(self) -> int:
        """The next 64-bit word of the stream."""
        if self._pos == len(self._chunk):
            self._refill()
        pos = self._pos
        self._pos = pos + 8
        return _WORD.unpack_from(self._chunk, pos)[0]

    def _read(self, size: int, shake=shake_256) -> bytes:
        """The next ``size`` bytes of the stream; ``shake`` hashes any new chunk."""
        parts = []
        while size:
            if self._pos == len(self._chunk):
                self._refill(shake)
            part = self._chunk[self._pos:self._pos + size]
            self._pos += len(part)
            size -= len(part)
            parts.append(part)
        return b"".join(parts)

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n draws of ``uniform()``, as an array."""
        import hashlib

        import numpy as np

        return (np.frombuffer(self._read(8 * n, hashlib.shake_256), ">u8") >> 11) * _ULP

    def uniform(self) -> float:
        """One uniform draw in [0, 1), a multiple of 2^-53."""
        return (self._word() >> 11) * _ULP

    def integers(self, low: int, high: int) -> int:
        """One uniform integer in [low, high), by rejection: no modulo bias."""
        span = high - low
        if not 0 < span <= _WORDS:
            raise ValueError(f"need 0 < high - low <= 2**64, got [{low}, {high})")
        limit = _WORDS - _WORDS % span
        word = self._word()
        while word >= limit:
            word = self._word()
        return low + word % span


def _check_scale(b: float) -> None:
    """Refuse a Laplace scale outside (0, inf), before anything is drawn."""
    if not 0 < b < math.inf:
        raise NonPositiveScale(f"scale must be positive and finite, got {b}")


def sample_laplace(rng: RandomSource, b: float) -> float:
    """Sample Lap(0, b) by inverse CDF on one uniform in (-1/2, 1/2)."""
    _check_scale(b)
    u = rng.uniform() - 0.5
    while u == -0.5:  # ln(0) guard; probability ~2^-53 per draw
        u = rng.uniform() - 0.5
    return -b * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def laplace_array(rng: RandomSource, b: float, n: int) -> array:
    """The next n draws of ``sample_laplace(rng, b)``, bit for bit, as an
    ``array('d')``, read and transformed a slice at a time without numpy."""
    _check_scale(b)
    out = array("d")
    while len(out) < n:
        m = min(n - len(out), _SLICE)
        words = struct.unpack(f">{m}Q", rng._read(8 * m))
        # sample_laplace's arithmetic, skipping exact zero uniforms as it does
        out.extend([-b * copysign(1.0, u) * log1p(-2.0 * abs(u))
                    for w in words if (u := (w >> 11) * _ULP - 0.5) != -0.5])
    return out


def laplace_block(rng: RandomSource, b: float, n: int) -> np.ndarray:
    """The next n draws of ``sample_laplace(rng, b)``, bit for bit, as an array."""
    import numpy as np

    _check_scale(b)
    out = np.empty(n)
    done = 0
    while done < n:
        u = rng._uniforms(min(n - done, _SLICE))
        u = u[u != 0.0] - 0.5  # skip exact zero uniforms, as the scalar loop does
        # np.log1p differs from math.log1p by an ulp on some inputs
        logs = np.fromiter(map(math.log1p, (-2.0 * np.abs(u)).tolist()), float, len(u))
        out[done:done + len(u)] = -b * np.copysign(1.0, u) * logs
        done += len(u)
    return out


def concentration_bound(scales, delta: float) -> float:
    """High-probability bound on |sum of independent Laplace draws|.

    For scales b_i and failure probability delta, returns
    nu * sqrt(8 ln(2/delta)) with nu = sqrt(sum b_i^2) * sqrt(ln(2/delta)).
    Every scale must lie in (0, inf), and the bound must be finite.
    """
    scales = list(scales)
    if not scales:
        raise EmptyList("need at least one scale")
    if not 0 < delta < 1:
        raise BadDelta(f"delta must be in (0, 1), got {delta}")
    for b in scales:
        _check_scale(b)
    log_term = math.log(2.0 / delta)
    nu = math.sqrt(sum(b * b for b in scales)) * math.sqrt(log_term)
    bound = nu * math.sqrt(8.0 * log_term)
    if not math.isfinite(bound):
        raise NonPositiveScale(f"scales up to {max(scales)} give a bound too large for a float")
    return bound
