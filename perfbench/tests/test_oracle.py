"""The SciPy oracle against a union-find reference written here."""

import numpy as np
import pytest

from oracle import oracle_labels, oracle_labels_many


def union_find_labels(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)], dtype=np.int64)


def labels(n, pairs):
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    return oracle_labels(n, u, v)


@pytest.mark.parametrize("n, pairs, expected", [
    (1, [], [0]),
    (3, [], [0, 1, 2]),
    (2, [(1, 0)], [0, 0]),
    (4, [(3, 2)], [0, 1, 2, 2]),
    (5, [(4, 4), (2, 2)], [0, 1, 2, 3, 4]),
    (5, [(4, 1), (1, 4), (4, 1), (3, 3)], [0, 1, 2, 3, 1]),
    (6, [(5, 3), (3, 1), (0, 2)], [0, 1, 0, 1, 4, 1]),
])
def test_tiny_graphs(n, pairs, expected):
    assert labels(n, pairs).tolist() == expected


def test_random_graphs_match_union_find():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        pairs = list(zip(rng.integers(0, n, m).tolist(), rng.integers(0, n, m).tolist()))
        assert np.array_equal(labels(n, pairs), union_find_labels(n, pairs))


def test_labels_are_minimum_ids_at_scale():
    rng = np.random.default_rng(1)
    n = 200_000
    u = rng.integers(0, n, 150_000)
    v = rng.integers(0, n, 150_000)
    got = oracle_labels(n, u, v)
    assert np.all(got <= np.arange(n))
    assert np.all(got[u] == got[v])
    assert np.all(got[got] == got)


def test_rejects_out_of_range_endpoints():
    with pytest.raises(IndexError):
        oracle_labels(3, np.array([0]), np.array([3]))
    with pytest.raises(ValueError):
        oracle_labels(0, np.array([]), np.array([]))


def test_many_graphs_in_one_call_match_one_at_a_time():
    rng = np.random.default_rng(2)
    graphs = []
    for _ in range(40):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 2 * n))
        graphs.append((n, rng.integers(0, n, m), rng.integers(0, n, m)))
    for got, (n, u, v) in zip(oracle_labels_many(graphs), graphs):
        assert np.array_equal(got, oracle_labels(n, u, v))
