"""Min-hooking connected components on a CRCW PRAM (FastSV-style).

The paper stresses that Hirschberg's algorithm needs only a CROW PRAM --
no write conflicts at all.  The classical *alternative* line of parallel
CC algorithms (Shiloach-Vishkin 1982 and its modern descendant FastSV)
instead embraces **concurrent writes with MIN combining**: every edge
tries to hook its endpoints' trees onto the smaller label, conflicting
writes are resolved by taking the minimum, and pointer shortcutting keeps
the trees flat.

This module implements that scheme twice:

* :func:`fastsv_reference` -- vectorised NumPy (``np.minimum.at`` is
  exactly a MIN-combining concurrent write);
* :func:`fastsv_on_pram` -- on the :class:`~repro.pram.machine.PRAM`
  under ``AccessMode.CRCW`` / ``CombinePolicy.MIN``, which *dynamically
  requires* the combining semantics: the same program under CREW raises
  ``WriteConflictError`` on the first contested hook (asserted in the
  tests).

Together with Listing 1 under CROW this completes the access-mode story:
one classical CC algorithm per discipline, both checked by the machinery
rather than by assertion in prose.

The iteration structure per round (on parent vector ``f``):

1. *hooking*: for every edge ``(u, v)``: ``f[f[u]] <- min(f[f[u]], f[v])``
   and symmetrically -- grandparent hooking onto the neighbour's parent;
2. *self-hooking*: ``f[u] <- min(f[u], f[v])`` for every edge;
3. *shortcutting*: ``f[i] <- f[f[i]]`` for all ``i``;

repeated until ``f`` reaches a fixpoint.  ``f`` is non-increasing and
bounded, so termination is guaranteed; convergence is logarithmic in
practice (asserted loosely in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.graphs.adjacency import AdjacencyMatrix
from repro.pram.machine import PRAM, StepContext
from repro.pram.memory import AccessMode, CombinePolicy, SharedMemory
from repro.util.setops import distinct_count

GraphLike = Union[AdjacencyMatrix, np.ndarray]


def _edge_arrays(graph: GraphLike) -> Tuple[int, np.ndarray, np.ndarray]:
    g = graph if isinstance(graph, AdjacencyMatrix) else AdjacencyMatrix(np.asarray(graph))
    rows, cols = np.nonzero(np.triu(g.matrix, k=1))
    return g.n, rows.astype(np.int64), cols.astype(np.int64)


@dataclass
class FastSVResult:
    """Outcome of a min-hooking run."""

    labels: np.ndarray
    rounds: int

    @property
    def component_count(self) -> int:
        return distinct_count(self.labels)


def fastsv_reference(graph: GraphLike, max_rounds: int = None) -> FastSVResult:
    """Vectorised min-hooking CC; ``np.minimum.at`` plays the CRCW-MIN
    memory."""
    n, u, v = _edge_arrays(graph)
    f = np.arange(n, dtype=np.int64)
    limit = max_rounds if max_rounds is not None else max(1, n)
    rounds = 0
    for _ in range(limit):
        old = f.copy()
        # 1. grandparent hooking (both directions), MIN-combined
        np.minimum.at(f, f[u], f[v])
        np.minimum.at(f, f[v], f[u])
        # 2. self-hooking
        np.minimum.at(f, u, f[v])
        np.minimum.at(f, v, f[u])
        # 3. shortcutting
        f = f[f]
        rounds += 1
        if np.array_equal(f, old):
            break
    return FastSVResult(labels=f, rounds=rounds)


def fastsv_on_pram(
    graph: GraphLike,
    mode: AccessMode = AccessMode.CRCW,
    max_rounds: int = None,
) -> FastSVResult:
    """Min-hooking CC on the access-checked PRAM.

    Requires ``AccessMode.CRCW`` (with the memory's MIN combining): under
    CREW/CROW the contested hooks raise write conflicts -- which is the
    point: this family of algorithms genuinely *needs* concurrent writes.
    """
    n, u_arr, v_arr = _edge_arrays(graph)
    edges = list(zip(u_arr.tolist(), v_arr.tolist()))
    memory = SharedMemory(mode=mode, combine=CombinePolicy.MIN)
    memory.allocate("F", n, initial=np.arange(n))
    machine = PRAM(processors=max(1, n), memory=memory)
    limit = max_rounds if max_rounds is not None else max(1, n)

    rounds = 0
    for _ in range(limit):
        before = memory.array("F").copy()

        if edges:
            def hook(ctx: StepContext) -> None:
                u, v = edges[ctx.pid]
                fu = ctx.read("F", u)
                fv = ctx.read("F", v)
                ffu = ctx.read("F", fu)
                ffv = ctx.read("F", fv)
                # grandparent hooking, MIN-combined across processors
                if fv < ffu:
                    ctx.write("F", fu, fv)
                if fu < ffv:
                    ctx.write("F", fv, fu)

            machine.parallel_step(range(len(edges)), hook, label="hook")

            def self_hook(ctx: StepContext) -> None:
                u, v = edges[ctx.pid]
                fu = ctx.read("F", u)
                fv = ctx.read("F", v)
                if fv < fu:
                    ctx.write("F", u, fv)
                if fu < fv:
                    ctx.write("F", v, fu)

            machine.parallel_step(range(len(edges)), self_hook, label="selfhook")

        def shortcut(ctx: StepContext) -> None:
            fi = ctx.read("F", ctx.pid)
            ctx.write("F", ctx.pid, ctx.read("F", fi))

        machine.parallel_step(range(n), shortcut, label="shortcut")

        rounds += 1
        if np.array_equal(memory.array("F"), before):
            break
    return FastSVResult(labels=memory.array("F").copy(), rounds=rounds)
