import math

import numpy as np
import pytest

from continualdp import RandomSource, concentration_bound, sample_laplace
from continualdp.counting import _BLOCK
from continualdp.errors import BadDelta, EmptyList, NonPositiveScale
from continualdp.noise import laplace_block


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
    assert RandomSource().seed != RandomSource().seed


def test_laplace_scale_validation():
    with pytest.raises(NonPositiveScale):
        sample_laplace(RandomSource(0), 0.0)
    for b in (0.0, -1.0):
        with pytest.raises(NonPositiveScale):
            laplace_block(RandomSource(0), b, 3)


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000])
def test_laplace_block_equals_scalar_draws(n):
    block, scalar = RandomSource(7), RandomSource(7)
    draws = laplace_block(block, 1.5, n)
    assert draws.dtype == np.float64 and draws.shape == (n,)
    assert draws.tolist() == [sample_laplace(scalar, 1.5) for _ in range(n)]
    # both sources stand at the same place in the stream
    assert block.uniform() == scalar.uniform()


class _StubGenerator:
    """Yields fixed uniforms first, then a seeded stream, one at a time."""

    def __init__(self, head):
        self.head = list(head)
        self.tail = np.random.Generator(np.random.PCG64(3))

    def random(self, size=None):
        if size is not None:
            return np.array([self.random() for _ in range(size)])
        return self.head.pop(0) if self.head else float(self.tail.random())


def test_laplace_block_skips_exact_zero_uniforms():
    head = [0.25, 0.0, 0.0, 0.75, 0.0, 0.5]

    def source():
        rng = RandomSource(0)
        rng._gen = _StubGenerator(head)
        return rng

    block, scalar = source(), source()
    draws = laplace_block(block, 2.0, 6)
    assert draws.tolist() == [sample_laplace(scalar, 2.0) for _ in range(6)]
    # u = 0.25 - 0.5 and, after two skipped zeros, u = 0.75 - 0.5
    assert draws[0] == 2.0 * math.log1p(-0.5) and draws[1] == -2.0 * math.log1p(-0.5)
    assert block.uniform() == scalar.uniform()


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
    with pytest.raises(NonPositiveScale):
        concentration_bound([1.0, -1.0], 0.05)


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
