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
exactly what a scalar mechanism on source i would.  ``feed`` takes one
item or a block of consecutive items along a leading time axis, and the
two can be mixed: every feed runs one step loop, an item at a time, so
any split of a stream into blocks releases bit for bit what feeding it
item by item does.  The mechanism keeps the prefix totals S_0..S_T, row t
written once, at step t, and one Laplace draw per p-sum the horizon can
close, ``sum(T >> i)`` per source, all drawn in release order when the
mechanism is built and never written again.  Every reader (the step
loop, ``estimate``, ``trace`` and a block's view) computes the p-sum of
level i ending at e as ``S_e - S_(e - 2^i)`` plus its draw.  One source
keeps its totals and draws in ``array('d')`` stores,
drawn in one pass by ``laplace_array``, with no numpy; k sources keep numpy
arrays, drawn by ``laplace_block`` to equal values.
On integer streams (exact in float64) every p-sum is the exact interval sum.
Only the noisy p-sums and the estimates summed from them are private; the
clean p-sums in the records are the exact interval sums of the data, kept
for audits (``verify bounds`` rebuilds every count from them).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    BadDelta,
    HorizonExceeded,
    ItemOutOfBounds,
    NonPositiveScale,
    OutOfRange,
)
from .noise import RandomSource, concentration_bound, laplace_array, laplace_block

if TYPE_CHECKING:
    import numpy as np


class _StreamBounds(NamedTuple):
    L1: int
    L2: int


class StreamBounds(_StreamBounds):
    """Declared item range {L1, ..., L2}."""

    __slots__ = ()

    def __new__(cls, L1: int, L2: int) -> StreamBounds:
        if L1 > L2:
            raise OutOfRange(f"L1={L1} exceeds L2={L2}")
        return super().__new__(cls, L1, L2)

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
        self._t = 0
        n = _count(0, T)  # one draw per p-sum the horizon can close, in release order
        # S[t]: the total of the first t items, written at step t; head[i]: the
        # estimate at the last multiple of 2^i so far (0 at t=0)
        if self._scalar:
            self._S = array("d", [0.0]) * (T + 1)
            self._draws = laplace_array(rng, self.per_psum_scale, n)
            self._head = [0.0] * (self.x + 1)
        else:
            import numpy as np

            k = len(self._rngs)
            self._S = np.zeros((T + 1, k))
            self._draws = np.empty((n, k))
            for j, r in enumerate(self._rngs):
                self._draws[:, j] = laplace_block(r, self.per_psum_scale, n)
            self._head = np.zeros((self.x + 1, k))

    @property
    def t(self) -> int:
        return self._t

    def _check(self, items, block: bool):
        """Refuse a wrong-shaped or non-numeric item or block, items past T, or
        one outside ``bounds``, in that order.  One source is checked with
        builtins, and its item comes back as a float, a block as a list of ints
        and floats; k sources' come back as a float array."""
        if self._scalar:
            if not block:
                items = _number(items)
            else:
                items = items if isinstance(items, list) else items.tolist()
                if not {*map(type, items)} <= {float, int}:
                    items = [*map(_number, items)]
        else:
            import numpy as np

            shape = (len(self._rngs),)
            try:
                a = np.asarray(items)
                got = f"{a.dtype} of shape {a.shape}"
            except ValueError:
                a, got = None, "a ragged item"
            if a is None or a.dtype.kind not in "biuf" or a.shape[block:] != shape:
                raise OutOfRange(f"an item must have shape {shape} and a block shape "
                                 f"{('n', *shape)}, of numbers; got {got}")
            items = a.astype(float, copy=False)
        n = len(items) if block else 1
        if self._t + n > self.T:
            raise HorizonExceeded(f"{n} more items at t={self._t} exceed horizon T={self.T}")
        b, bad = self.bounds, None
        if b is not None and self._scalar:
            bad = next((v for v in (items if block else [items]) if not b.L1 <= v <= b.L2), None)
        elif b is not None and np.size(items):
            lo, hi = np.min(items), np.max(items)
            bad = None if b.L1 <= lo <= hi <= b.L2 else lo if lo < b.L1 else hi
        if bad is not None:
            raise ItemOutOfBounds(f"item {bad} outside [{b.L1}, {b.L2}]")
        return items

    def feed(self, item) -> tuple[Sequence[PSumRecord], float | list[float] | np.ndarray]:
        """Consume one item, or a block of consecutive items.

        One item returns (list of newly released p-sums, estimate).  A block
        is a list or 1-D array for one source, or an (n, k) array for k
        sources, along the time axis; it returns the p-sums released at any
        of its n steps, in release order, as a read-only ``PSumView``, and
        the n estimates, one per step: a list for one source, an (n, k)
        array for k.  Every feed runs the same step loop, one item at a time.
        """
        ndim = 1 if isinstance(item, list) else getattr(item, "ndim", 0)
        block = ndim == (1 if self._scalar else 2)
        t0, items = self._t, self._check(item, block)
        if not block:
            est = self._run([items], [0.0])[0]
            return _psum_records(self, t0, self._t), est
        if self._scalar:
            out = [0.0] * len(items)
        else:
            import numpy as np

            out = np.empty_like(items)
        est = self._run(items, out)
        return PSumView(self, t0, self._t), est

    def _run(self, rows, out):
        """Feed rows one step each and write their estimates into ``out``, which
        it returns: at t, the estimate at t minus its lowest bit plus that bit's
        p-sum.  A row is a float for one source and a (k,) array for k."""
        S, head, draws = self._S, self._head, self._draws
        t, n = self._t, _count(0, self._t)  # n: the p-sums released so far
        s = S[t]  # S_t, carried so that no step reads it back
        for j, row in enumerate(rows):
            t += 1
            S[t] = s = s + row  # row t is read only from step t on
            closing = (t & -t).bit_length()  # levels 0..ctz(t) close at t
            n += closing
            out[j] = est = head[closing] + (s - S[t - (1 << closing - 1)] + draws[n - 1])
            for i in range(closing):
                head[i] = est
        self._t = t
        return out

    def estimate(self, t: int | None = None) -> float | np.ndarray:
        """Noisy prefix sum at time t (defaults to the current time)."""
        if t is None:
            t = self._t
        if not 1 <= t <= self._t:
            raise OutOfRange(f"no estimate available for t={t}")
        S, draws = self._S, self._draws
        # highest level first, as the feeds sum
        return sum(S[e] - S[start - 1] + draws[_count(0, e - 1) + i]
                   for i, start, e in prefix_intervals(t))

    def trace(self) -> list[PSumRecord]:
        """All released p-sums in release order (audit hook)."""
        return _psum_records(self, 0, self._t)


def _number(v) -> float:
    """One source's item as a float: a number, or anything of shape ()."""
    if isinstance(v, (int, float)) or getattr(v, "shape", None) == ():
        return float(v)
    raise OutOfRange("an item must have shape () and a block shape ('n',), got "
                     f"{getattr(v, 'shape', type(v).__name__)}")


def _count(t0: int, t1: int) -> int:
    """How many p-sums close at steps t0+1..t1; up to t, sum_i t >> i = 2t - popcount(t)."""
    return 2 * (t1 - t0) - t1.bit_count() + t0.bit_count()


# tuple.__new__ skips the generated PSumRecord.__new__, a Python call per record
_record = partial(tuple.__new__, PSumRecord)


def _psum_records(mech: BinaryMechanism, t0: int, t1: int) -> list[PSumRecord]:
    """Records of the p-sums released at steps t0+1..t1, in release order.
    Vector rows are computed afresh, so no record aliases the store."""
    S, draws, scale = mech._S, mech._draws, mech.per_psum_scale
    n = _count(0, t0)
    out = []
    for t in range(t0 + 1, t1 + 1):
        for i in range((t & -t).bit_length()):
            clean = S[t] - S[t - (1 << i)]
            out.append(_record((i, t - (1 << i) + 1, t, clean, clean + draws[n], scale)))
            n += 1
    return out


class PSumView(Sequence):
    """The p-sums a block feed released (steps t0+1..t1, release order), read
    from the prefix totals and draws when iterated or indexed; ``len`` builds
    no record, and an index or slice builds only the steps it covers.  Later
    feeds write neither S_0..S_t1 nor the draws, so they leave the view as is."""

    def __init__(self, mech: BinaryMechanism, t0: int, t1: int) -> None:
        self._mech, self._t0, self._t1 = mech, t0, t1

    def __len__(self) -> int:
        return _count(self._t0, self._t1)

    def __getitem__(self, index):
        picked = range(len(self))[index]  # raises IndexError as a list would
        js, t0 = picked if isinstance(index, slice) else [picked], self._t0
        if not js:
            return []
        # the steps t0+a+1..t0+b+1 hold the picked records: _count rises with t
        a, b = (bisect_right(range(t0 + 1, self._t1 + 1), j, key=partial(_count, t0))
                for j in (min(js), max(js)))
        recs, off = _psum_records(self._mech, t0 + a, t0 + b + 1), _count(t0, t0 + a)
        out = [recs[j - off] for j in js]
        return out if isinstance(index, slice) else out[0]

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
