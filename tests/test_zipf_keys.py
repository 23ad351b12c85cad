"""``ZipfKeys`` without an address-space CDF, and generator parameter checks.

``ZipfKeys`` keeps the CDF of its first ``2**15`` ranks plus two floats
per 32-rank tail block, and recomputes a tail block at draw time.  These
tests hold it to the dense inversion it replaced —
``searchsorted(cumsum((r+1)**-s) / total, u, side="right")`` built here
from scratch — draw for draw, and pin its size so an O(M) table cannot
quietly come back.
"""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.traffic import (
    BurstyArrivals,
    DeterministicArrivals,
    PoissonArrivals,
    ZipfKeys,
)


def dense_cdf(m: int, s: float) -> np.ndarray:
    weights = np.arange(1, m + 1, dtype=np.float64)
    weights **= -s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


class FixedUniforms:
    """An ``rng`` stand-in whose one ``random(k)`` call returns chosen u."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, k: int) -> np.ndarray:
        assert k == self.u.size
        return self.u


CASES = [
    (2**20, 1.1),  # the e2e benchmark's key law
    (1000, 0.8),  # smaller than the head
    (2**15, 1.3),  # exactly the head, no tail block
    (100003, 1.1),  # not a multiple of the block
    (5, 2.0),
    (2**16 + 17, 0.9),  # a short last block right past a chunk edge
    (1, 1.1),
    (2**15 + 1, 1.0),  # one tail rank
]


@pytest.mark.parametrize("m,s", CASES)
def test_draws_equal_the_dense_inversion(m, s):
    cdf = dense_cdf(m, s)
    u = np.random.default_rng(m).random(200_000)
    got = ZipfKeys(m, s).draw(u.size, np.random.default_rng(m))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("m,s", CASES)
def test_adversarial_uniforms_invert_like_the_dense_cdf(m, s):
    cdf = dense_cdf(m, s)
    picked = cdf[np.random.default_rng(1).choice(m, size=min(m, 3000), replace=False)]
    # every tail block's first and last value too, where a recompute could slip
    edges = cdf[2**15 :: 32].tolist() + cdf[2**15 + 31 :: 32].tolist()
    values = np.concatenate((picked, edges, [0.0, 1.0]))
    u = np.concatenate(
        (values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))
    )
    got = ZipfKeys(m, s).draw(u.size, FixedUniforms(u))
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))


def test_a_pickled_distribution_draws_the_same_keys():
    keys = ZipfKeys(100003, 1.1)
    clone = pickle.loads(pickle.dumps(keys))
    np.testing.assert_array_equal(
        clone.draw(5000, np.random.default_rng(3)),
        keys.draw(5000, np.random.default_rng(3)),
    )


def test_draw_of_nothing_is_empty():
    out = ZipfKeys(2**20).draw(0, np.random.default_rng(0))
    assert out.shape == (0,) and out.dtype == np.int64


def test_the_tables_are_not_sized_by_the_address_space():
    keys = ZipfKeys(2**20, 1.1)
    held = sum(v.nbytes for v in vars(keys).values() if isinstance(v, np.ndarray))
    assert held <= 2**20  # the dense CDF was 8 MB
    tracemalloc.start()
    try:
        ZipfKeys(2**22, 1.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20  # the dense build peaked at 64 MB


PARAMETERS = {
    "DeterministicArrivals.rate": (lambda bad: DeterministicArrivals(bad), "rate"),
    "PoissonArrivals.rate": (lambda bad: PoissonArrivals(bad), "rate"),
    "BurstyArrivals.on_rate": (lambda bad: BurstyArrivals(bad, 0.0), "on_rate"),
    "BurstyArrivals.off_rate": (lambda bad: BurstyArrivals(1.0, bad), "off_rate"),
    "ZipfKeys.exponent": (lambda bad: ZipfKeys(64, bad), "exponent"),
}


@pytest.mark.parametrize("param", sorted(PARAMETERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_parameters_are_rejected_by_name(param, bad):
    # NaN passes ``rate < 0`` and ``exponent <= 0``: it used to build, then
    # draw garbage (int64-min arrivals, address 0 forever) or fail in numpy
    build, name = PARAMETERS[param]
    with pytest.raises(ValueError, match=name):
        build(bad)
