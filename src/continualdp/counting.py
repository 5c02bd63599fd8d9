"""p-sum framework and the binary mechanism for continual counting.

Streams carry integers in a declared range [L1, L2].  A level-i p-sum
covers an interval of length 2^i and closes when the time index is
divisible by 2^i.  Each closed p-sum is released once with Laplace
noise of scale ``item_width * x / epsilon`` where ``x = floor(log2 T)+1``
is the number of levels, so every stream item touches at most x noisy
values.  The running count at time t is the sum of the at most
``y = floor(log2(T+1))`` closed p-sums given by the binary expansion
of t, added from the highest level down.

The horizon T must be declared up front.  When T is not a power of two
the dyadic tree is padded virtually; p-sums that would extend past T
never close.

A vector stream takes one source per coordinate, and coordinate i releases
exactly what a scalar mechanism on source i would.  All noise is drawn when
the mechanism is built: one block of ``sum(T >> i)`` Laplace draws per
source, in release order, one per p-sum the horizon can close.

``feed`` takes one item or a block of consecutive items along a leading
time axis, and the two can be mixed.  Both compute the p-sum of level i
ending at e as ``S_e - S_(e - 2^i)`` from the running prefix total S and
add its own stored draw, so any split of a stream into blocks releases bit
for bit what feeding it item by item does.  On integer streams (exact in
float64) every p-sum is the exact interval sum.  The p-sums are kept in one
store, one clean and one noisy array per level, row ``(e >> i) - 1`` (a
noisy row holds its draw until the p-sum closes); ``estimate`` and
``trace`` read it, and a block's p-sums are a view of it whose records are
built only when read.  Only the noisy p-sums and the estimates summed from
them are private; the clean arrays are the exact interval sums of the data,
kept for audits (``verify bounds`` rebuilds every count from them).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDelta,
    HorizonExceeded,
    ItemOutOfBounds,
    NonPositiveScale,
    OutOfRange,
)
from .noise import RandomSource, concentration_bound, laplace_block


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


class PSumRecord(NamedTuple):
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


def _check_scale(epsilon: float, item_width: float) -> None:
    """Refuse an epsilon or item width outside (0, inf), in that order."""
    if not 0 < epsilon < math.inf:
        raise NonPositiveScale(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < item_width < math.inf:
        raise NonPositiveScale(f"item width must be positive and finite, got {item_width}")


class BinaryMechanism:
    """Continual counting over a declared horizon T.

    ``item_width`` is the sensitivity of one stream item (L2 - L1 for
    plain counting, or the difference-sequence sensitivity Gamma).  The
    total budget ``epsilon`` is split as epsilon/x per p-sum, so each
    p-sum's noise scale is ``per_psum_scale = item_width * x / epsilon``.
    Every released p-sum carries its Laplace draw.

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
    ) -> None:
        self.T = T
        self.x = num_levels(T)
        self.y = max_summands(T)
        _check_scale(epsilon, item_width)
        self.epsilon = epsilon
        self.item_width = item_width
        self.per_psum_scale = item_width * self.x / epsilon
        self.bounds = bounds
        self._scalar = isinstance(rng, RandomSource)
        self._rngs = [rng] if self._scalar else list(rng)
        k = len(self._rngs)
        self._t = 0
        # running prefix total S_t, and S at each level's last close
        self._total = np.zeros(k)
        self._last = np.zeros((self.x, k))
        # the p-sums: level i's ending at e is row (e >> i) - 1, a draw until it closes
        draws = np.transpose([laplace_block(r, self.per_psum_scale, _count(0, T))
                              for r in self._rngs])
        self._noisy = [draws[pos] for _ends, pos in _schedule(0, T)]
        self._clean = [np.zeros((T >> i, k)) for i in range(self.x)]
        # row i: the estimate at the last multiple of 2^i so far (0 at t=0)
        self._head = np.zeros((self.x + 1, k))

    @property
    def t(self) -> int:
        return self._t

    def _check(self, items, n: int) -> None:
        """Refuse n more items past T, or an item outside ``bounds``."""
        if self._t + n > self.T:
            raise HorizonExceeded(f"{n} more items at t={self._t} exceed horizon T={self.T}")
        b = self.bounds
        if b is not None and np.size(items):
            lo, hi = np.min(items), np.max(items)
            if not b.L1 <= lo <= hi <= b.L2:
                raise ItemOutOfBounds(f"item {lo if lo < b.L1 else hi} outside [{b.L1}, {b.L2}]")

    def feed(self, item: float | np.ndarray) -> tuple[Sequence[PSumRecord], float | np.ndarray]:
        """Consume one item, or a block of consecutive items.

        One item returns (list of newly released p-sums, estimate).  A block
        is a 1-D array for one source, or an (n, k) array for k sources,
        along the time axis; it returns the p-sums released at any of its n
        steps, in release order, as a read-only ``PSumView``, and an array
        of the n estimates, one per step.
        """
        if getattr(item, "ndim", 0) == (1 if self._scalar else 2):
            return self._feed_block(np.asarray(item, float))
        self._check(item, 1)
        self._t += 1
        t = self._t
        self._total += item
        closing = (t & -t).bit_length()  # levels 0..ctz(t) close at t
        clean = self._total - self._last[:closing]
        self._last[:closing] = self._total
        noisy = clean + [self._noisy[i][(t >> i) - 1] for i in range(closing)]
        for i in range(closing):
            self._clean[i][(t >> i) - 1] = clean[i]
            self._noisy[i][(t >> i) - 1] = noisy[i]
        # the estimate at t minus its lowest bit, plus that bit's p-sum
        est = self._head[closing] + noisy[-1]
        self._head[:closing] = est
        if self._scalar:
            clean, noisy, est = clean[:, 0].tolist(), noisy[:, 0].tolist(), est[0].item()
        released = [PSumRecord(i, t - (1 << i) + 1, t, clean[i], noisy[i], self.per_psum_scale)
                    for i in range(closing)]
        return released, est

    def _feed_block(self, items: np.ndarray) -> tuple[PSumView, np.ndarray]:
        n, k = len(items), len(self._rngs)
        self._check(items, n)
        t0 = self._t
        # prefix totals S_{t0}, ..., S_{t0+n}, summed in stream order
        S = np.cumsum(np.vstack([self._total, items.reshape(n, k)]), axis=0)
        for i in range(self.x):
            first = ((t0 >> i) + 1) << i  # level i closes at first, first + 2^i, ...
            if first > t0 + n:
                break
            steps = slice(first - t0 - 1, n, 1 << i)
            at = S[1:][steps]
            c = np.diff(at, axis=0, prepend=self._last[i:i + 1])
            self._last[i] = at[-1]
            rows = slice(t0 >> i, (t0 + n) >> i)
            self._clean[i][rows] = c
            self._noisy[i][rows] += c
        self._total = S[-1]
        self._t = t0 + n
        ts = np.arange(t0 + 1, t0 + n + 1)
        # highest level first, as estimate(t) sums
        est = np.zeros((n, k))
        for i in reversed(range(self.x)):
            on = np.flatnonzero(ts >> i & 1)
            est[on] += self._noisy[i][(ts[on] >> i) - 1]
        for i in range(self.x + 1):
            if (last := self._t >> i << i) > t0:
                self._head[i] = est[last - t0 - 1]
        return PSumView(self, t0, self._t), est[:, 0] if self._scalar else est

    def estimate(self, t: int | None = None) -> float | np.ndarray:
        """Noisy prefix sum at time t (defaults to the current time)."""
        if t is None:
            t = self._t
        if not 1 <= t <= self._t:
            raise OutOfRange(f"no estimate available for t={t}")
        # prefix_intervals(t): per set bit i, highest first, the level-i p-sum
        est = sum(self._noisy[i][(t >> i) - 1]
                  for i in reversed(range(t.bit_length())) if t >> i & 1)
        return float(est[0]) if self._scalar else est

    def trace(self) -> list[PSumRecord]:
        """All released p-sums in release order (audit hook)."""
        return _psum_records(self, 0, self._t)


def _schedule(t0: int, t1: int):
    """Per level i = 0, 1, ...: the ends and release-order positions of its
    p-sums that close at steps t0+1..t1 (store rows ``t0 >> i`` to
    ``t1 >> i``).  Step t closes levels 0..ctz(t), lowest first."""
    ts = np.arange(t0 + 1, t1 + 1)
    closing = np.frexp(ts & -ts)[1]
    offset = np.cumsum(closing) - closing  # step t's first position is offset[t - t0 - 1]
    for i in range(t1.bit_length()):
        steps = slice((((t0 >> i) + 1) << i) - t0 - 1, t1 - t0, 1 << i)
        yield ts[steps], offset[steps] + i


def _count(t0: int, t1: int) -> int:
    """How many p-sums close at steps t0+1..t1: level i's at the multiples of 2^i."""
    return sum((t1 >> i) - (t0 >> i) for i in range(t1.bit_length()))


def _psum_records(mech: BinaryMechanism, t0: int, t1: int) -> list[PSumRecord]:
    """Records of the p-sums released at steps t0+1..t1, in release order.
    Vector rows are copied out, so no record aliases the store."""
    total, k = _count(t0, t1), len(mech._rngs)
    levels, ends = np.empty(total, int), np.empty(total, int)
    clean, noisy = np.empty((total, k)), np.empty((total, k))
    for i, (e, pos) in enumerate(_schedule(t0, t1)):
        rows = slice(t0 >> i, t1 >> i)
        levels[pos], ends[pos] = i, e
        clean[pos], noisy[pos] = mech._clean[i][rows], mech._noisy[i][rows]
    if mech._scalar:
        clean, noisy = clean[:, 0].tolist(), noisy[:, 0].tolist()
    fields = zip(levels.tolist(), (ends - (1 << levels) + 1).tolist(), ends.tolist(),
                 clean, noisy, repeat(mech.per_psum_scale))
    # tuple.__new__ skips the generated PSumRecord.__new__, a Python call per record
    return list(map(partial(tuple.__new__, PSumRecord), fields))


class PSumView(Sequence):
    """The p-sums a block feed released (steps t0+1..t1, release order), read
    from the store when iterated or indexed; ``len`` builds no record.  A
    released row is never written again, so later feeds leave the view as is."""

    def __init__(self, mech: BinaryMechanism, t0: int, t1: int) -> None:
        self._mech, self._t0, self._t1 = mech, t0, t1

    def __len__(self) -> int:
        return _count(self._t0, self._t1)

    def __getitem__(self, index):
        return _psum_records(self._mech, self._t0, self._t1)[index]

    def __iter__(self):
        return iter(_psum_records(self._mech, self._t0, self._t1))


def theoretical_count_error(width: float, epsilon: float, delta: float, T: int) -> float:
    """Explicit high-probability error bound for the binary mechanism.

    concentration_bound over y scales of width*x/epsilon each.  T, epsilon
    and the width are refused as ``BinaryMechanism`` refuses them, in the
    same order, and then delta.
    """
    x = num_levels(T)
    _check_scale(epsilon, width)
    if not 0 < delta < 1:
        raise BadDelta(f"delta must be in (0, 1), got {delta}")
    return concentration_bound([width * x / epsilon] * max_summands(T), delta)
