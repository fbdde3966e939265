"""The outofcore input's shape and the idle spinners of the wire run."""

import os
import time

import numpy as np
import pytest

import gen
import harness
from oracle import oracle_labels


def test_outofcore_pairs_count_range_and_loops():
    n, u, v = gen.outofcore_pairs(np.random.default_rng(3), 40_000)
    assert n == 10_000
    assert u.size == v.size == 40_000
    assert 0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n
    assert np.count_nonzero(u == v) >= int(gen.SELF_LOOP_SHARE * 40_000)


def test_outofcore_pairs_are_seeded():
    a = gen.outofcore_pairs(np.random.default_rng(5), 4_000)
    b = gen.outofcore_pairs(np.random.default_rng(5), 4_000)
    assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


def test_outofcore_paths_lengthen_the_diameter():
    """Label propagation from every vertex's own id needs as many
    rounds as the longest shortest path: at least the path length here,
    which a uniform random graph of this density never reaches."""
    n, u, v = gen.outofcore_pairs(np.random.default_rng(7), 40_000)
    target = oracle_labels(n, u, v)
    labels = np.arange(n)
    rounds = 0
    while not np.array_equal(labels, target):
        low = np.minimum(labels[u], labels[v])
        np.minimum.at(labels, u, low)
        np.minimum.at(labels, v, low)
        rounds += 1
    assert rounds >= gen.OUTOFCORE_PATH_LEN // 2


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="Linux scheduling classes")
def test_idle_spinners_run_one_idle_loop_per_cpu_and_stop():
    spinners = harness.IdleSpinners().start()
    try:
        assert len(spinners.procs) == len(os.sched_getaffinity(0))
        for proc in spinners.procs:
            for _ in range(500):
                if os.sched_getscheduler(proc.pid) == os.SCHED_IDLE:
                    break
                time.sleep(0.01)
            assert os.sched_getscheduler(proc.pid) == os.SCHED_IDLE
            assert proc.poll() is None
        procs = list(spinners.procs)
    finally:
        spinners.stop()
    assert all(proc.returncode is not None for proc in procs)
