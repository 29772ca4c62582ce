import numpy as np
import pytest

import pspinlab.experiments as ex


@pytest.fixture
def assert_pooled():
    """``assert_pooled(count, mspec)`` fails unless a map of ``count``
    replicates on ``mspec`` has at least two ranges, the least that forks
    the pool.  A test that kills, counts or compares workers calls it first,
    so a change to the range rule fails that test instead of running it in
    the test process or passing it without a pool."""
    def check(count, mspec):
        ranges = []
        list(ex._map_replicates([(lambda rows: ranges.append(rows) or list(rows), mspec)],
                                count, 1))
        assert len(ranges) >= 2, f"{count} replicates at N={mspec.n_sites} make one range"
    return check


def bits_equal(a, b) -> bool:
    """Whether two float64 arrays match in shape, dtype and every bit.
    ``np.array_equal`` takes -0.0 for +0.0, so it cannot show bit identity."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))
