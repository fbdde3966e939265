"""Spanning forest extraction from Hirschberg's hook choices.

Hirschberg's algorithm almost computes a spanning forest for free: in
every iteration each component *hooks* onto its smallest neighbouring
component, and the hook is witnessed by a concrete graph edge -- the edge
``(j, w)`` through which the winning member ``j`` saw the winning
neighbour ``w`` in step 2.  Collecting one witness edge per successful
hook, over all iterations, yields a spanning forest:

* every merge event contributes exactly one edge joining two previously
  distinct components, so the edge set is acyclic and has exactly
  ``n - #components`` edges;
* mutual hooks (the 2-cycles step 6 resolves) would contribute *two*
  witness edges for one merge, so the extraction keeps only the edge
  proposed by the smaller-indexed super node of the pair.

This is the classic augmentation of CC algorithms to spanning forest
(e.g. in the Chin-Lam-Chen line of work the paper cites) and exercises
the same step structure, so it doubles as an oracle-checked exercise of
the step decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.hirschberg.steps import (
    step1_init,
    step5_pointer_jump,
    step6_resolve_pairs,
)
from repro.util.intmath import jump_iterations, outer_iterations
from repro.util.sentinels import infinity_for
from repro.util.setops import distinct_count

GraphLike = Union[AdjacencyMatrix, np.ndarray]

Edge = Tuple[int, int]


@dataclass
class SpanningForestResult:
    """A spanning forest plus the labelling it certifies."""

    edges: List[Edge]
    labels: np.ndarray
    n: int
    iterations: int
    per_iteration_edges: List[List[Edge]] = field(default_factory=list)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def component_count(self) -> int:
        return distinct_count(self.labels)


def _argmin_step2(g: AdjacencyMatrix, C: np.ndarray):
    """Step 2 with witnesses: ``(T, W)`` where ``W[i]`` is the neighbour
    through which ``i`` saw the minimum (or -1)."""
    n = g.n
    inf = infinity_for(n)
    adjacent = g.matrix.astype(bool)
    foreign = C[None, :] != C[:, None]
    candidates = np.where(adjacent & foreign, C[None, :], inf)
    T = candidates.min(axis=1)
    # witness: smallest column index attaining the minimum (deterministic)
    W = np.where(T[:, None] == candidates, np.arange(n)[None, :], n).min(axis=1)
    W = np.where(T == inf, -1, W)
    T = np.where(T == inf, C, T)
    return T, W


def _argmin_step3(C: np.ndarray, T: np.ndarray):
    """Step 3 with witnesses: ``(T3, J)`` where ``J[s]`` is the member of
    super node ``s`` whose candidate won (or -1)."""
    n = C.shape[0]
    inf = infinity_for(n)
    ids = np.arange(n)
    member = C[None, :] == ids[:, None]
    nontrivial = T[None, :] != ids[:, None]
    candidates = np.where(member & nontrivial, T[None, :], inf)
    T3 = candidates.min(axis=1)
    J = np.where(T3[:, None] == candidates, ids[None, :], n).min(axis=1)
    J = np.where(T3 == inf, -1, J)
    T3 = np.where(T3 == inf, C, T3)
    return T3, J


def spanning_forest(graph: GraphLike) -> SpanningForestResult:
    """Compute a spanning forest (and the canonical labelling) of ``graph``.

    Runs the reference algorithm's iteration structure and records one
    witness edge per successful hook.
    """
    g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
    n = g.n
    iters = outer_iterations(n)
    jumps = jump_iterations(n)
    C = step1_init(n)
    all_edges: List[Edge] = []
    per_iteration: List[List[Edge]] = []

    for _ in range(iters):
        T2, W = _argmin_step2(g, C)
        T3, J = _argmin_step3(C, T2)

        iteration_edges: List[Edge] = []
        for s in range(n):
            if C[s] != s:
                continue                     # not a super node
            target = int(T3[s])
            if target == int(C[s]):
                continue                     # no hook this iteration
            # mutual pair: keep only the smaller side's edge
            if C[target] == target and int(T3[target]) == s and target < s:
                continue
            j = int(J[s])
            w = int(W[j])
            a, b = min(j, w), max(j, w)
            iteration_edges.append((a, b))

        all_edges.extend(iteration_edges)
        per_iteration.append(iteration_edges)

        C = T3.copy()
        C = step5_pointer_jump(C, jumps)
        C = step6_resolve_pairs(C, T3)

    return SpanningForestResult(
        edges=all_edges,
        labels=C,
        n=n,
        iterations=iters,
        per_iteration_edges=per_iteration,
    )
