"""Seeded randomness, Laplace sampling, and the concentration bound.

All mechanism noise flows through :class:`RandomSource` so runs are
bitwise reproducible from a single 64-bit seed.  Child sources derived
from (seed, label) pairs keep parallel trials independent yet
replayable.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from .errors import BadDelta, EmptyList, NonPositiveScale


class RandomSource:
    """A seeded uniform generator with deterministic child derivation."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, label: str | int) -> "RandomSource":
        """Derive an independent source keyed by (seed, label)."""
        h = hashlib.blake2b(f"{self.seed}:{label}".encode(), digest_size=8)
        return RandomSource(int.from_bytes(h.digest(), "big"))

    def uniform(self) -> float:
        """One uniform draw in [0, 1)."""
        return float(self._gen.random())

    def integers(self, low: int, high: int) -> int:
        """One uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))


def sample_laplace(rng: RandomSource, b: float) -> float:
    """Sample Lap(0, b) by inverse CDF on one uniform in (-1/2, 1/2)."""
    if b <= 0:
        raise NonPositiveScale(f"scale must be positive, got {b}")
    u = rng.uniform() - 0.5
    while u == -0.5:  # ln(0) guard; probability ~2^-53 per draw
        u = rng.uniform() - 0.5
    return -b * math.copysign(1.0, u) * math.log1p(-2.0 * abs(u))


def laplace_block(rng: RandomSource, b: float, n: int) -> np.ndarray:
    """The next n draws of ``sample_laplace(rng, b)``, bit for bit, as an array."""
    if b <= 0:
        raise NonPositiveScale(f"scale must be positive, got {b}")
    u = np.empty(0)
    while len(u) < n:  # skip exact zero uniforms, as the scalar loop does
        fresh = rng._gen.random(n - len(u)) - 0.5
        u = np.concatenate([u, fresh[fresh != -0.5]])
    # np.log1p differs from math.log1p by an ulp on some inputs
    logs = np.array(list(map(math.log1p, (-2.0 * np.abs(u)).tolist())))
    return -b * np.copysign(1.0, u) * logs


def concentration_bound(scales, delta: float) -> float:
    """High-probability bound on |sum of independent Laplace draws|.

    For scales b_i and failure probability delta, returns
    nu * sqrt(8 ln(2/delta)) with nu = sqrt(sum b_i^2) * sqrt(ln(2/delta)).
    """
    scales = list(scales)
    if not scales:
        raise EmptyList("need at least one scale")
    if not 0 < delta < 1:
        raise BadDelta(f"delta must be in (0, 1), got {delta}")
    for b in scales:
        if b <= 0:
            raise NonPositiveScale(f"scale must be positive, got {b}")
    log_term = math.log(2.0 / delta)
    nu = math.sqrt(sum(b * b for b in scales)) * math.sqrt(log_term)
    return nu * math.sqrt(8.0 * log_term)
