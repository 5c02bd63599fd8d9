import itertools
import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continualdp import (
    BinaryMechanism,
    RandomSource,
    StreamBounds,
    max_summands,
    num_levels,
    prefix_intervals,
    theoretical_count_error,
)
from continualdp import counting
from continualdp.errors import (
    HorizonExceeded,
    ItemOutOfBounds,
    NonPositiveScale,
    OutOfRange,
)
from continualdp.noise import concentration_bound, sample_laplace

from conftest import zero_noise_draws


def test_stream_bounds():
    assert StreamBounds(-2, 3).width == 5
    assert StreamBounds(0, 1).width == 1
    with pytest.raises(OutOfRange):
        StreamBounds(4, 2)


def test_num_levels_and_max_summands():
    assert num_levels(8) == 4
    assert max_summands(8) == 3
    assert num_levels(1) == 1 and max_summands(1) == 1
    # y equals the maximum popcount of any t <= T
    for T in range(1, 200):
        assert max_summands(T) == max(t.bit_count() for t in range(1, T + 1))
        assert num_levels(T) == T.bit_length()


def test_prefix_intervals_cover_exactly():
    for t in range(1, 129):
        ivs = prefix_intervals(t)
        covered = []
        for level, start, end in ivs:
            assert end - start + 1 == 1 << level
            assert (start - 1) % (1 << level) == 0
            covered.extend(range(start, end + 1))
        assert covered == list(range(1, t + 1))
        assert len(ivs) == t.bit_count()


def test_zero_noise_counts_exhaustive_binary_streams(zero_noise):
    for T in range(1, 9):
        for bits in itertools.product((0, 1), repeat=T):
            mech = BinaryMechanism(T, 1.0, RandomSource(0), bounds=StreamBounds(0, 1))
            total = 0
            for b in bits:
                total += b
                _recs, est = mech.feed(b)
                assert est == total


def test_psum_closing_schedule():
    T = 8
    mech = BinaryMechanism(T, 1.0, RandomSource(0))
    for t in range(1, T + 1):
        recs, _est = mech.feed(1)
        # a level-i p-sum closes exactly when 2^i divides t
        levels = [r.level for r in recs]
        assert levels == [i for i in range(mech.x) if t % (1 << i) == 0]
        for r in recs:
            assert r.end == t and r.start == t - (1 << r.level) + 1
            assert r.clean == (1 << r.level)


def test_virtual_padding_for_non_power_of_two(zero_noise):
    # T=5: the level-2 p-sum [5..8] and level-1 [5..6] never close
    mech = BinaryMechanism(5, 1.0, RandomSource(0))
    released = []
    for _ in range(5):
        recs, _ = mech.feed(1)
        released.extend((r.level, r.start) for r in recs)
    assert (2, 5) not in released and (1, 5) not in released
    assert mech.estimate(5) == 5


def test_estimate_uses_dyadic_decomposition():
    mech = BinaryMechanism(8, 1.0, RandomSource(3))
    items = [1, 0, 1, 1, 0, 0, 1, 1]
    for item in items:
        mech.feed(item)
    by_key = {(r.level, r.start): r for r in mech.trace()}
    for t in range(1, 9):
        expected = sum(by_key[(i, s)].noisy for i, s, _e in prefix_intervals(t))
        assert mech.estimate(t) == pytest.approx(expected)


def test_horizon_and_bounds_enforced():
    mech = BinaryMechanism(2, 1.0, RandomSource(0), bounds=StreamBounds(0, 1))
    with pytest.raises(ItemOutOfBounds):
        mech.feed(2)
    mech.feed(1)
    mech.feed(0)
    with pytest.raises(HorizonExceeded):
        mech.feed(1)
    with pytest.raises(OutOfRange):
        mech.estimate(3)


def test_noise_scale_calibration():
    T, eps, width = 10, 0.5, 3.0
    mech = BinaryMechanism(T, eps, RandomSource(1), item_width=width)
    assert mech.per_psum_scale == pytest.approx(width * num_levels(T) / eps)
    for _ in range(T):
        recs, _ = mech.feed(1.0)
        for r in recs:
            assert r.scale == mech.per_psum_scale


def test_raw_scale_mode_and_validation():
    with pytest.raises(NonPositiveScale):
        BinaryMechanism(4, 0.0, RandomSource(1))
    # the bound refuses epsilon as the mechanism does, ahead of a bad delta
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(NonPositiveScale, match="epsilon must be positive and finite"):
            BinaryMechanism(4, epsilon, RandomSource(1))
        for delta in (0.05, 2.0):
            with pytest.raises(NonPositiveScale, match="epsilon must be positive and finite"):
                theoretical_count_error(1.0, epsilon, delta, 4)


def test_same_seed_same_release():
    def run():
        mech = BinaryMechanism(16, 1.0, RandomSource(77))
        return [mech.feed(1)[1] for _ in range(16)]

    assert run() == run()


def test_theoretical_count_error_composition():
    T, width, eps, delta = 100, 2.0, 0.5, 0.05
    x, y = num_levels(T), max_summands(T)
    assert theoretical_count_error(width, eps, delta, T) == pytest.approx(
        concentration_bound([width * x / eps] * y, delta)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40),
)
def test_zero_noise_counts_arbitrary_integer_streams(items):
    T = len(items)
    with zero_noise_draws():
        mech = BinaryMechanism(T, 1.0, RandomSource(0))
        total = 0
        for item in items:
            total += item
            _recs, est = mech.feed(item)
            assert est == total


@settings(max_examples=80, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=70),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
    zero=st.booleans(),
    data=st.data(),
)
def test_vector_mechanism_matches_scalar_mechanisms(T, k, seed, zero, data):
    items = data.draw(st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=k, max_size=k),
        min_size=T, max_size=T,
    ))
    root = RandomSource(seed)
    vec_rngs = [root.child(i) for i in range(k)]
    scalar_rngs = [root.child(i) for i in range(k)]
    with zero_noise_draws() if zero else nullcontext():
        vec = BinaryMechanism(T, 0.7, vec_rngs, item_width=2.0)
        scalars = [BinaryMechanism(T, 0.7, r, item_width=2.0) for r in scalar_rngs]
        estimates = []
        for row in items:
            _recs, est = vec.feed(np.array(row, float))
            estimates.append([mech.feed(row[i])[1] for i, mech in enumerate(scalars)])
            assert all(isinstance(e, float) for e in estimates[-1])
            assert est.tolist() == estimates[-1]
    vec_trace = vec.trace()
    for i, mech in enumerate(scalars):
        # the slow reference: one sample_laplace per p-sum, in release order
        ref = root.child(i)
        trace = mech.trace()
        by_key = {(r.level, r.start): r.noisy for r in trace}
        for t in range(1, T + 1):
            prefix = sum(by_key[(j, s)] for j, s, _e in prefix_intervals(t))
            assert estimates[t - 1][i] == mech.estimate(t) == prefix
        assert len(trace) == len(vec_trace) == sum(T >> j for j in range(vec.x))
        for v, r in zip(vec_trace, trace):
            assert (v.level, v.start, v.end, v.scale) == (r.level, r.start, r.end, r.scale)
            assert v.clean[i] == r.clean == sum(row[i] for row in items[r.start - 1:r.end])
            noise = 0.0 if zero else sample_laplace(ref, r.scale)
            assert v.noisy[i] == r.noisy == r.clean + noise
        # every source has consumed exactly the scalar path's draws
        assert vec_rngs[i].uniform() == scalar_rngs[i].uniform() == ref.uniform()


def _bits(x) -> bytes:
    """The exact float64 bytes of a value or array, so that -0.0 != 0.0."""
    return np.asarray(x, float).tobytes()


def _records_bits(records):
    return [(r.level, r.start, r.end, r.scale, _bits(r.clean), _bits(r.noisy))
            for r in records]


@settings(max_examples=80, deadline=None)
@given(
    T=st.integers(min_value=1, max_value=70),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
    zero=st.booleans(),
    data=st.data(),
)
def test_blocks_match_single_items(T, k, seed, zero, data):
    scalar = k == 1 and data.draw(st.booleans(), label="scalar")
    items = np.array(data.draw(st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=k, max_size=k),
        min_size=T, max_size=T,
    )), float)
    if scalar:
        items = items[:, 0]
    cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(T - 1, 1))),
                            label="cuts") - {T})
    # (cut points, feed size-1 blocks as single items)
    splits = {
        "size 1": (list(range(1, T)), False),
        "whole": ([], False),
        "random": (cuts, False),
        "mixed": (cuts, True),
    }

    def build():
        root = RandomSource(seed)
        rngs = root.child(0) if scalar else [root.child(i) for i in range(k)]
        mech = BinaryMechanism(T, 0.7, rngs, item_width=2.0)
        return mech, [rngs] if scalar else rngs

    with zero_noise_draws() if zero else nullcontext():
        ref, ref_rngs = build()
        ref_est = [_bits(ref.feed(item)[1]) for item in items]
        ref_past = [_bits(ref.estimate(t)) for t in range(1, T + 1)]
        ref_trace = _records_bits(ref.trace())
        ref_next = [r.uniform() for r in ref_rngs]
        assert ref_past == ref_est
        for name, (cut, singles) in splits.items():
            mech, rngs = build()
            est, released = [], []
            for block in np.split(items, cut):
                if singles and len(block) == 1:
                    recs, e = mech.feed(block[0])
                    est.append(_bits(e))
                else:
                    recs, block_est = mech.feed(block)
                    assert len(block_est) == len(block)
                    est.extend(_bits(e) for e in block_est)
                released.extend(_records_bits(recs))
            assert est == ref_est, name
            assert released == _records_bits(mech.trace()) == ref_trace, name
            assert [_bits(mech.estimate(t)) for t in range(1, T + 1)] == ref_past, name
            # every source has drawn exactly the single-item path's noise
            assert [r.uniform() for r in rngs] == ref_next, name


@pytest.mark.parametrize("k", [None, 3])
def test_bad_block_leaves_state_unchanged(k):
    def build():
        root = RandomSource(6)
        rngs = [root] if k is None else [root.child(i) for i in range(k)]
        mech = BinaryMechanism(10, 1.0, root if k is None else rngs, bounds=StreamBounds(-2, 2))
        return mech, rngs

    def ones(n):
        return np.ones(n if k is None else (n, k))

    mech, rngs = build()
    mech.feed(ones(4))
    before = (mech.t, _records_bits(mech.trace()), _bits(mech.estimate()))
    with pytest.raises(HorizonExceeded):
        mech.feed(ones(7))  # steps 5..11 cross T=10
    bad = ones(3)
    bad[1] = 3  # one item outside [-2, 2]
    with pytest.raises(ItemOutOfBounds):
        mech.feed(bad)
    assert (mech.t, _records_bits(mech.trace()), _bits(mech.estimate())) == before
    _recs, est = mech.feed(ones(6))
    ref, ref_rngs = build()
    _recs, ref_est = ref.feed(ones(10))
    assert _bits(est) == _bits(ref_est[4:])
    assert _records_bits(mech.trace()) == _records_bits(ref.trace())
    assert [r.uniform() for r in rngs] == [r.uniform() for r in ref_rngs]


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_item_width_must_be_positive_and_finite(value):
    with pytest.raises(NonPositiveScale, match="item width must be positive and finite"):
        BinaryMechanism(4, 1.0, RandomSource(1), item_width=value)
    with pytest.raises(NonPositiveScale, match="item width must be positive and finite"):
        theoretical_count_error(value, 1.0, 0.05, 4)


@pytest.mark.parametrize("how", ["block", "single"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("T", [1, 7, 64, 1000])
def test_noise_is_drawn_at_construction(T, k, how):
    # a copy of each source after one sample_laplace per p-sum the horizon closes
    copies = [RandomSource(8).child(i) for i in range(k)]
    for copy in copies:
        for _ in range(sum(T >> i for i in range(num_levels(T)))):
            sample_laplace(copy, 1.0)
    rngs = [RandomSource(8).child(i) for i in range(k)]
    mech = BinaryMechanism(T, 0.5, rngs[0] if k == 1 else rngs)
    assert [r.uniform() for r in rngs] == [c.uniform() for c in copies]
    items = np.arange(T * k, dtype=float).reshape(T, k) % 5 - 2
    if k == 1:
        items = items[:, 0]
    if how == "block":
        mech.feed(items)
    else:
        for item in items:
            mech.feed(item)
    assert mech.t == T
    assert [r.uniform() for r in rngs] == [c.uniform() for c in copies]


def _closed_in(t0: int, t1: int) -> int:
    """p-sums closing at steps t0+1..t1: levels 0..ctz(t) at each step t."""
    return sum((t & -t).bit_length() for t in range(t0 + 1, t1 + 1))


@pytest.mark.parametrize("k", [None, 3])
def test_block_psum_length_builds_no_record(k):
    mech = BinaryMechanism(101, 1.0, RandomSource(2) if k is None
                           else [RandomSource(i) for i in range(k)])
    views, t0 = [], 0
    with mock.patch.object(counting, "_psum_records", side_effect=AssertionError("built")):
        for n in (1, 7, 24, 3, 65):
            recs, _est = mech.feed(np.ones(n if k is None else (n, k)))
            assert len(recs) == _closed_in(t0, t0 + n)
            views.append((recs, t0, n))
            t0 += n
    for recs, t0, n in views:
        assert [(r.level, r.end) for r in recs] == [
            (i, t) for t in range(t0 + 1, t0 + n + 1) for i in range((t & -t).bit_length())]
        assert _records_bits(recs) == _records_bits(recs[j] for j in range(len(recs)))
    assert isinstance(mech.feed(1.0 if k is None else np.ones(k))[0], list)


@pytest.mark.parametrize("k", [None, 2])
def test_block_psums_unchanged_by_later_feeds(k):
    mech = BinaryMechanism(64, 1.0, RandomSource(4) if k is None
                           else [RandomSource(i) for i in range(k)])
    ones = (lambda n: np.ones(n)) if k is None else (lambda n: np.ones((n, k)))
    recs, _est = mech.feed(ones(12))
    before = _records_bits(recs)
    assert before == _records_bits(mech.trace())
    mech.feed(ones(20))
    mech.feed(1.0 if k is None else np.ones(k))
    mech.feed(ones(31))
    assert _records_bits(recs) == before == _records_bits(mech.trace())[:len(before)]


def test_vector_records_do_not_alias_the_store():
    mech = BinaryMechanism(16, 1.0, [RandomSource(1), RandomSource(2)])
    recs, est = mech.feed(np.arange(20.0).reshape(10, 2))
    trace, estimates = _records_bits(mech.trace()), [_bits(mech.estimate(t)) for t in range(1, 11)]
    for r in list(recs) + mech.trace():
        r.clean[:] = 99.0
        r.noisy[:] = -99.0
    assert _records_bits(mech.trace()) == _records_bits(recs) == trace
    assert [_bits(mech.estimate(t)) for t in range(1, 11)] == estimates
