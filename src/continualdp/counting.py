"""p-sum framework and the binary mechanism for continual counting.

Streams carry integers in a declared range [L1, L2].  The mechanism
maintains one running partial sum per dyadic level; a level-i p-sum
covers an interval of length 2^i and closes when the time index is
divisible by 2^i.  Each closed p-sum is released once with Laplace
noise of scale ``item_width * x / epsilon`` where ``x = floor(log2 T)+1``
is the number of levels, so every stream item touches at most x noisy
values.  The running count at time t is the sum of the at most
``y = floor(log2(T+1))`` closed p-sums given by the binary expansion
of t.

The horizon T must be declared up front.  When T is not a power of two
the dyadic tree is padded virtually; p-sums that would extend past T
never close.

A vector stream takes one source per coordinate, and coordinate i releases
exactly what a scalar mechanism on source i would.  Noise is drawn in blocks
of at most ``_BLOCK`` per source, never past the draws owed before T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDelta,
    HorizonExceeded,
    ItemOutOfBounds,
    NonPositiveScale,
    OutOfRange,
)
from .noise import RandomSource, concentration_bound, laplace_block

# noise draws per coordinate per refill; above any level count x
_BLOCK = 1024


@dataclass(frozen=True)
class StreamBounds:
    """Declared item range {L1, ..., L2}."""

    L1: int
    L2: int

    def __post_init__(self) -> None:
        if self.L1 > self.L2:
            raise OutOfRange(f"L1={self.L1} exceeds L2={self.L2}")

    @property
    def width(self) -> int:
        return self.L2 - self.L1


BINARY = StreamBounds(0, 1)


@dataclass(frozen=True)
class PSumRecord:
    """One released p-sum: interval, clean value, noisy value, scale."""

    level: int
    start: int
    end: int
    clean: float | np.ndarray
    noisy: float | np.ndarray
    scale: float


def num_levels(T: int) -> int:
    """x = floor(log2 T) + 1, the number of dyadic levels for horizon T."""
    if T < 1:
        raise OutOfRange(f"horizon must be >= 1, got {T}")
    return T.bit_length()


def max_summands(T: int) -> int:
    """y = floor(log2(T+1)), the largest number of p-sums in any estimate.

    Equals the maximum popcount of any t <= T.
    """
    if T < 1:
        raise OutOfRange(f"horizon must be >= 1, got {T}")
    return (T + 1).bit_length() - 1


def prefix_intervals(t: int) -> list[tuple[int, int, int]]:
    """Dyadic decomposition of [1, t] as (level, start, end) triples."""
    if t < 1:
        raise OutOfRange(f"time must be >= 1, got {t}")
    out = []
    pos = 0
    for i in range(t.bit_length() - 1, -1, -1):
        if t >> i & 1:
            out.append((i, pos + 1, pos + (1 << i)))
            pos += 1 << i
    return out


def psum_index(i: int, t: int, T: int) -> int:
    """Bijective label of the level-i p-sum interval containing time t.

    Levels are laid out consecutively: level j contributes
    ceil(T / 2^j) intervals, and within level i the interval containing
    t has ordinal (t-1) >> i.
    """
    x = num_levels(T)
    if not 0 <= i < x:
        raise OutOfRange(f"level {i} outside [0, {x - 1}]")
    if not 1 <= t <= T:
        raise OutOfRange(f"time {t} outside [1, {T}]")
    offset = sum((T + (1 << j) - 1) >> j for j in range(i))
    return offset + ((t - 1) >> i)


class BinaryMechanism:
    """Continual counting over a declared horizon T.

    ``item_width`` is the sensitivity of one stream item (L2 - L1 for
    plain counting, or the difference-sequence sensitivity Gamma).  The
    total budget ``epsilon`` is split as epsilon/x per p-sum; passing
    ``per_psum_scale`` instead selects a raw mode with an explicit
    noise scale.  ``noise_off`` is a test hook that substitutes 0 for
    every Laplace draw and is flagged in the trace metadata.

    ``rng`` is one source, or a list of k sources for a stream of length-k
    arrays, whose p-sums and estimates are then arrays too.
    """

    def __init__(
        self,
        T: int,
        epsilon: float,
        rng: RandomSource | list[RandomSource],
        *,
        item_width: float = 1.0,
        bounds: StreamBounds | None = None,
        per_psum_scale: float | None = None,
        noise_off: bool = False,
    ) -> None:
        self.T = T
        self.x = num_levels(T)
        self.y = max_summands(T)
        if per_psum_scale is None:
            if not 0 < epsilon < math.inf:
                raise NonPositiveScale(f"epsilon must be positive and finite, got {epsilon}")
            per_psum_scale = item_width * self.x / epsilon
        elif per_psum_scale <= 0:
            raise NonPositiveScale(f"per_psum_scale must be positive, got {per_psum_scale}")
        self.epsilon = epsilon
        self.item_width = item_width
        self.per_psum_scale = per_psum_scale
        self.bounds = bounds
        self.noise_off = noise_off
        self._scalar = isinstance(rng, RandomSource)
        self._rngs = [rng] if self._scalar else list(rng)
        self._t = 0
        self._acc = np.zeros((self.x, len(self._rngs)))
        # unused noise, one row per coordinate; draws each row owes up to T
        self._noise = np.zeros((len(self._rngs), 0))
        self._owed = sum(T >> i for i in range(self.x))
        # keyed by (level, start); insertion order is release order
        self._released: dict[tuple[int, int], PSumRecord] = {}

    @property
    def t(self) -> int:
        return self._t

    def _draw(self, n: int) -> np.ndarray:
        """The next n Laplace draws of every coordinate, shape (n, k)."""
        if self._noise.shape[1] < n:
            m = min(self._owed, _BLOCK)
            fresh = [laplace_block(r, self.per_psum_scale, m) for r in self._rngs]
            self._noise = np.hstack([self._noise, np.reshape(fresh, (len(fresh), m))])
            self._owed -= m
        out, self._noise = self._noise[:, :n], self._noise[:, n:]
        return out.T

    def feed(self, item: float | np.ndarray) -> tuple[list[PSumRecord], float | np.ndarray]:
        """Consume one item; returns (newly released p-sums, estimate)."""
        if self._t >= self.T:
            raise HorizonExceeded(f"horizon T={self.T} already reached")
        b = self.bounds
        if b is not None and not b.L1 <= np.min(item) <= np.max(item) <= b.L2:
            raise ItemOutOfBounds(f"item {item} outside [{b.L1}, {b.L2}]")
        self._t += 1
        t = self._t
        self._acc += item
        closing = (t & -t).bit_length()  # levels 0..ctz(t) close at t
        clean = self._acc[:closing].copy()
        self._acc[:closing] = 0.0
        noisy = clean + (0.0 if self.noise_off else self._draw(closing))
        if self._scalar:
            clean, noisy = clean[:, 0].tolist(), noisy[:, 0].tolist()
        released: list[PSumRecord] = []
        for i in range(closing):
            rec = PSumRecord(i, t - (1 << i) + 1, t, clean[i], noisy[i], self.per_psum_scale)
            self._released[(i, rec.start)] = rec
            released.append(rec)
        return released, self.estimate(t)

    def estimate(self, t: int | None = None) -> float | np.ndarray:
        """Noisy prefix sum at time t (defaults to the current time)."""
        if t is None:
            t = self._t
        if not 1 <= t <= self._t:
            raise OutOfRange(f"no estimate available for t={t}")
        # prefix_intervals(t): per set bit i, highest first, the level-i p-sum
        return sum(self._released[(i, (t >> i + 1 << i + 1) + 1)].noisy
                   for i in reversed(range(t.bit_length())) if t >> i & 1)

    def trace(self) -> list[PSumRecord]:
        """All released p-sums in release order (audit hook)."""
        return list(self._released.values())


def theoretical_count_error(width: float, epsilon: float, delta: float, T: int) -> float:
    """Explicit high-probability error bound for the binary mechanism.

    concentration_bound over y scales of width*x/epsilon each.
    """
    if width <= 0 or epsilon <= 0:
        raise NonPositiveScale("width and epsilon must be positive")
    if not 0 < delta < 1:
        raise BadDelta(f"delta must be in (0, 1), got {delta}")
    x = num_levels(T)
    y = max_summands(T)
    return concentration_bound([width * x / epsilon] * y, delta)
