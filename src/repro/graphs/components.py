"""Sequential connected-components baselines.

Three independent sequential algorithms (union-find, BFS, DFS) compute the
same canonical labelling -- node ``i`` is labelled with the smallest node
index in its component, the paper's super-node convention.  Having three
oracles lets the test-suite cross-check the oracles themselves, so a bug in
one of them cannot silently validate a broken parallel implementation.

The sequential time is ``Theta(n^2)`` on adjacency-matrix input, which is
the paper's reference point for work-optimality of the PRAM algorithm on
dense graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.graphs.union_find import UnionFind
from repro.util.setops import distinct_count, sorted_unique

GraphLike = Union[AdjacencyMatrix, np.ndarray]


def _as_graph(graph: GraphLike) -> AdjacencyMatrix:
    if isinstance(graph, AdjacencyMatrix):
        return graph
    return AdjacencyMatrix(np.asarray(graph))


def components_union_find(graph: GraphLike) -> np.ndarray:
    """Canonical component labels via union-find. ``O(n^2 alpha(n))``."""
    g = _as_graph(graph)
    uf = UnionFind(g.n)
    rows, cols = np.nonzero(np.triu(g.matrix, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    return uf.canonical_labels()


def components_bfs(graph: GraphLike) -> np.ndarray:
    """Canonical component labels via breadth-first search.

    Visiting nodes in increasing index order guarantees each component is
    first discovered from its minimum node, which then becomes its label.
    """
    g = _as_graph(graph)
    labels = np.full(g.n, -1, dtype=np.int64)
    for start in range(g.n):
        if labels[start] != -1:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in np.flatnonzero(g.matrix[node]):
                if labels[nb] == -1:
                    labels[nb] = start
                    queue.append(int(nb))
    return labels


def components_dfs(graph: GraphLike) -> np.ndarray:
    """Canonical component labels via iterative depth-first search."""
    g = _as_graph(graph)
    labels = np.full(g.n, -1, dtype=np.int64)
    for start in range(g.n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = start
        while stack:
            node = stack.pop()
            for nb in np.flatnonzero(g.matrix[node]):
                if labels[nb] == -1:
                    labels[nb] = start
                    stack.append(int(nb))
    return labels


def canonical_labels(graph: GraphLike) -> np.ndarray:
    """The reference canonical labelling (union-find backed)."""
    return components_union_find(graph)


def count_components(graph: GraphLike) -> int:
    """Number of connected components."""
    return distinct_count(canonical_labels(graph))


def is_canonical_labelling(graph: GraphLike, labels: np.ndarray) -> bool:
    """Check that ``labels`` equals the canonical labelling of ``graph``.

    Used by integration tests and by the examples to assert parallel
    results without re-deriving the oracle inline.
    """
    labels = np.asarray(labels)
    g = _as_graph(graph)
    if labels.shape != (g.n,):
        return False
    return bool(np.array_equal(labels, canonical_labels(g)))


def components_scipy(graph: GraphLike) -> np.ndarray:
    """Canonical component labels via ``scipy.sparse.csgraph`` -- an
    external oracle sharing no traversal code with this library (used by
    the cross-validation tests alongside networkx)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components as _scipy_cc

    g = _as_graph(graph)
    _count, raw = _scipy_cc(
        csr_matrix(g.matrix), directed=False, return_labels=True
    )
    # scipy labels components arbitrarily; renumber to minimum-index reps
    labels = np.empty(g.n, dtype=np.int64)
    for comp in sorted_unique(raw):
        members = np.flatnonzero(raw == comp)
        labels[members] = members.min()
    return labels
