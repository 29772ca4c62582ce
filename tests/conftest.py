import os

import numpy as np
import pytest

import pspinlab.experiments as ex


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails any test that leaves a child process behind, running or
    unreaped: after the test, ``os.waitpid(-1, os.WNOHANG)`` must find no
    child at all."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {pid}, {status})")


@pytest.fixture
def counted_forks(monkeypatch):
    """The forks of the replicate map, one entry (the child's pid) each.  A
    fork beyond ``counted_forks.limit`` (8 unless the test lowers it) fails
    the test at the fork instead of starting a process."""
    class Forks(list):
        limit = 8

    forks = Forks()
    real = ex._fork

    def counting():
        if len(forks) >= forks.limit:
            raise AssertionError(f"more than {forks.limit} forks")
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(ex, "_fork", counting)
    return forks


@pytest.fixture
def no_fork(monkeypatch):
    """``ex._fork`` replaced by a stand-in that fails the test."""
    def refuse():
        raise AssertionError("a map forked")

    monkeypatch.setattr(ex, "_fork", refuse)


@pytest.fixture
def assert_pooled():
    """``assert_pooled(count, mspec)`` fails unless a map of ``count``
    replicates on ``mspec`` has at least two ranges, the least that forks.
    A test that kills, counts or compares workers calls it first, so a
    change to the range rule fails that test instead of running it all in
    the test process or passing it without a fork."""
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
