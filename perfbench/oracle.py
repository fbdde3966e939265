"""Canonical component labels from SciPy, sharing no code with the engines.

``labels[i]`` is the minimum vertex id of ``i``'s component -- the
labelling every engine of ``repro`` returns.  SciPy finds the
components of a CSR matrix built from the raw pairs (self-loops and
duplicates included; they do not change connectivity), and one
vectorised ``np.minimum.at`` renumbers each component to its minimum
id, so the oracle runs at millions of vertices.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components


def oracle_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimum-id component labels of the graph with raw pairs ``(u, v)``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError(f"endpoint arrays differ: {u.shape} vs {v.shape}")
    if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise IndexError(f"edge endpoint out of range for n={n}")
    data = np.ones(u.size, dtype=np.int8)
    csr = coo_matrix((data, (u, v)), shape=(n, n)).tocsr()
    _, comp = connected_components(csr, directed=True, connection="weak")
    minimum = np.full(int(comp.max()) + 1, n, dtype=np.int64)
    np.minimum.at(minimum, comp, np.arange(n, dtype=np.int64))
    return minimum[comp]


def oracle_labels_many(
    graphs: Sequence[Tuple[int, np.ndarray, np.ndarray]],
) -> List[np.ndarray]:
    """:func:`oracle_labels` of each ``(n, u, v)`` graph, in one SciPy
    call over their disjoint union.

    Each graph's ids are shifted by the vertices before it; shifting
    keeps the order of ids inside a graph, so each component's minimum
    shifted back is the graph's own canonical label.
    """
    if not graphs:
        return []
    sizes = np.array([n for n, _, _ in graphs], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    u = np.concatenate([gu + s for (_, gu, _), s in zip(graphs, starts)])
    v = np.concatenate([gv + s for (_, _, gv), s in zip(graphs, starts)])
    labels = oracle_labels(int(starts[-1]), u, v)
    return [labels[a:b] - a for a, b in zip(starts[:-1], starts[1:])]
