"""Tests for the sort-based set operations in :mod:`repro.util.setops`.

Each function is checked against the ``np.unique`` formulation it
replaced, and the two hot callers -- ``EdgeListGraph.from_arrays`` and
the contracting engine's per-level dedup -- against the outputs they
produced when they still called ``np.unique``.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hirschberg import contracting
from repro.hirschberg.contracting import connected_components_contracting
from repro.hirschberg.edgelist import EdgeListGraph
from repro.util.setops import (
    _PACK_LIMIT,
    distinct_count,
    sorted_unique,
    unique_pairs,
)

int64s = arrays(
    np.int64,
    st.integers(0, 200),
    elements=st.integers(-(2**62), 2**62),
)


def _old_canonical_pairs(
    n: int, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``np.unique`` formulation ``unique_pairs`` replaced."""
    if lo.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n <= _PACK_LIMIT:
        key = np.unique(lo * np.int64(n) + hi)
        return key // n, key % n
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return lo[keep], hi[keep]


def _old_from_arrays(n: int, u: np.ndarray, v: np.ndarray):
    """``from_arrays``'s normalisation before the move to setops."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    lo, hi = _old_canonical_pairs(n, lo, hi)
    return np.concatenate([lo, hi]), np.concatenate([hi, lo])


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSortedUnique:
    @given(int64s)
    def test_equals_np_unique(self, keys):
        before = keys.copy()
        _assert_same(sorted_unique(keys), np.unique(keys))
        assert np.array_equal(keys, before), "input was modified"

    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(50, -3, dtype=np.int64),
            np.array([2**62, -(2**62), 0, 2**62], dtype=np.int64),
        ],
        ids=["empty", "single", "all-duplicates", "extremes"],
    )
    def test_edge_cases(self, keys):
        _assert_same(sorted_unique(keys), np.unique(keys))

    def test_flattens(self):
        keys = np.array([[3, 1], [1, 2]], dtype=np.int64)
        _assert_same(sorted_unique(keys), np.unique(keys))


class TestDistinctCount:
    @given(int64s)
    def test_equals_np_unique_size(self, values):
        assert distinct_count(values) == np.unique(values).size

    def test_empty(self):
        assert distinct_count(np.empty(0, dtype=np.int64)) == 0


class TestUniquePairs:
    @staticmethod
    def _pairs(seed: int, size: int, span: int):
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, span, size=size).astype(np.int64)
        hi = lo + 1 + rng.integers(0, span, size=size).astype(np.int64)
        # every pair at least twice, in shuffled order
        order = rng.permutation(2 * size)
        return np.tile(lo, 2)[order], np.tile(hi, 2)[order]

    @pytest.mark.parametrize(
        "n", [_PACK_LIMIT, _PACK_LIMIT + 1], ids=["packed", "lexsort"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_old_canonical_pairs_at_the_limit(self, n, seed):
        lo, hi = self._pairs(seed, 400, 1_000)
        # ids next to the limit exercise the largest packed keys
        lo = np.concatenate([lo, [n - 3, n - 3, 0]])
        hi = np.concatenate([hi, [n - 1, n - 1, n - 1]])
        got = unique_pairs(n, lo, hi)
        want = _old_canonical_pairs(n, lo, hi)
        for g, w in zip(got, want):
            _assert_same(g, w)

    @given(st.integers(2, 60), st.data())
    def test_equals_old_canonical_pairs_small_n(self, n, data):
        size = data.draw(st.integers(0, 120))
        lo = np.asarray(
            data.draw(st.lists(st.integers(0, n - 2), min_size=size,
                               max_size=size)), dtype=np.int64)
        gap = np.asarray(
            data.draw(st.lists(st.integers(1, n - 1), min_size=size,
                               max_size=size)), dtype=np.int64)
        hi = np.minimum(lo + gap, n - 1)
        for g, w in zip(unique_pairs(n, lo, hi),
                        _old_canonical_pairs(n, lo, hi)):
            _assert_same(g, w)

    def test_empty(self):
        lo, hi = unique_pairs(10, np.empty(0, np.int64), np.empty(0, np.int64))
        assert lo.size == hi.size == 0 and lo.dtype == np.int64


class TestFromArraysUnchanged:
    @staticmethod
    def _raw(seed: int, n: int, m: int):
        """Raw pairs with self-loops, duplicates and both orientations."""
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        loops = rng.integers(0, n, size=max(1, m // 20))
        u = np.concatenate([u, v, loops, u[: m // 3]])
        v = np.concatenate([v, u[:m], loops, v[: m // 3]])
        order = rng.permutation(u.size)
        return u[order], v[order]

    @pytest.mark.parametrize(
        "n,m", [(2, 3), (10, 40), (1_000, 5_000), (50_000, 200_000)]
    )
    def test_matches_old_normalisation(self, n, m):
        u, v = self._raw(n, n, m)
        graph = EdgeListGraph.from_arrays(n, u, v)
        src, dst = _old_from_arrays(n, u, v)
        _assert_same(graph.src, src)
        _assert_same(graph.dst, dst)
        assert graph.__dict__.get("_canonical") is True

    @settings(max_examples=60)
    @given(st.integers(1, 40), st.data())
    def test_matches_old_normalisation_property(self, n, data):
        size = data.draw(st.integers(0, 80))
        ids = st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
        u = np.asarray(data.draw(ids), dtype=np.int64)
        v = np.asarray(data.draw(ids), dtype=np.int64)
        graph = EdgeListGraph.from_arrays(n, u, v)
        src, dst = _old_from_arrays(n, u, v)
        _assert_same(graph.src, src)
        _assert_same(graph.dst, dst)
        assert graph.__dict__.get("_canonical") is True


class TestContractingDedupUnchanged:
    """Routing the per-level dedup through ``unique_pairs`` leaves every
    level -- its size, its jumps and its ``deduplicated`` flag -- and the
    labels exactly as the ``np.unique`` dedup produced them."""

    @pytest.mark.parametrize(
        "n,m,seed,sorts",
        [
            (300, 500, 0, 0),            # counting-table levels only
            (40_000, 60_000, 1, 1),      # a packed-sort level
            (300_000, 400_000, 2, 2),    # a first level too big to dedup
        ],
    )
    def test_levels_and_labels_match_np_unique_dedup(
        self, n, m, seed, sorts, monkeypatch
    ):
        rng = np.random.default_rng(seed)
        graph = EdgeListGraph.from_arrays(
            n, rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        )
        new = connected_components_contracting(graph)
        calls = []

        def old_dedup(k, src, dst):
            calls.append(k)
            return _old_canonical_pairs(k, src, dst)

        monkeypatch.setattr(contracting, "unique_pairs", old_dedup)
        old = connected_components_contracting(graph)
        assert len(calls) == sorts
        assert new.levels == old.levels
        assert np.array_equal(new.labels, old.labels)
