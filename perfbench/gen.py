"""Seeded input generation for the benchmark, run as its own process.

Generating a multi-million-pair input allocates several times its final
size; done inside the solving process it would inflate that process's
peak RSS.  The workload modules therefore start this script as a child, which
writes the raw pairs and the oracle labels to a work directory and
exits before any solve is timed::

    python3 perfbench/gen.py bulk --seed 7 --out DIR
    python3 perfbench/gen.py outofcore --seed 7 --out DIR

Outputs in ``DIR``: ``meta.json`` (``n``, raw pair count, distinct
edge count), ``labels.npy`` (the oracle's canonical labels) and the
input -- ``u.npy``/``v.npy`` for ``bulk``, ``edges.txt`` (the text
edge-list format of ``repro.graphs.io``) for ``outofcore``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Tuple

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import oracle_labels  # noqa: E402

#: ``bulk``: half the vertices in a random sparse graph, half in PATHS
#: paths of PATH_LEN vertices, so the diameter is ~PATH_LEN.
BULK_N = 1_000_000
BULK_RANDOM_EDGES = 2_000_000
PATHS = 500
PATH_LEN = 1000
SELF_LOOP_SHARE = 0.01

#: ``outofcore``: raw pairs at 16 bytes each come to twice the 64 MiB
#: budget (2 * 64 MiB / 16 B = 8_388_608 pairs); four pairs per vertex.
#: A quarter of the vertices lie on paths of OUTOFCORE_PATH_LEN
#: vertices, so the frontier merge, whose pass count grows with the
#: diameter, has a moderate one to resolve.
OUTOFCORE_PAIRS = 8_400_000
OUTOFCORE_BUDGET = 64 << 20
OUTOFCORE_PATH_SHARE = 0.25
OUTOFCORE_PATH_LEN = 16


def path_mix_edges(
    rng: np.random.Generator, n: int, random_edges: int, paths: int,
    path_len: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected edges: a random sparse part plus ``paths`` paths.

    Vertex ids are randomly permuted, so no path runs along consecutive
    ids and the minimum label must travel each path's whole length.
    """
    path_vertices = paths * path_len
    base = n - path_vertices
    a = rng.integers(0, base, size=random_edges, dtype=np.int64)
    b = rng.integers(0, base, size=random_edges, dtype=np.int64)
    grid = base + np.arange(path_vertices, dtype=np.int64).reshape(paths, path_len)
    perm = rng.permutation(n).astype(np.int64)
    return (perm[np.concatenate([a, grid[:, :-1].ravel()])],
            perm[np.concatenate([b, grid[:, 1:].ravel()])])


def both_orientations(
    rng: np.random.Generator, n: int, u: np.ndarray, v: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every edge in both orientations plus ~1% self-loops, shuffled."""
    loops = rng.integers(0, n, size=int(SELF_LOOP_SHARE * 2 * u.size),
                         dtype=np.int64)
    ru = np.concatenate([u, v, loops])
    rv = np.concatenate([v, u, loops])
    order = rng.permutation(ru.size)
    return ru[order], rv[order]


def bulk_pairs(rng: np.random.Generator, scale: int = 1) -> Tuple[int, np.ndarray, np.ndarray]:
    """The ``bulk`` input, or a ``1/scale`` copy of its shape."""
    n = BULK_N // scale
    u, v = path_mix_edges(rng, n, BULK_RANDOM_EDGES // scale, PATHS // scale, PATH_LEN)
    ru, rv = both_orientations(rng, n, u, v)
    return n, ru, rv


def outofcore_pairs(rng: np.random.Generator, pairs: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """``pairs`` raw pairs on ``pairs // 4`` vertices: a random sparse
    graph plus paths of OUTOFCORE_PATH_LEN vertices covering
    OUTOFCORE_PATH_SHARE of them, each edge listed once in a random
    orientation, ~1% self-loops, shuffled."""
    n = max(pairs // 4, 2)
    paths = int(n * OUTOFCORE_PATH_SHARE) // OUTOFCORE_PATH_LEN
    loops = int(SELF_LOOP_SHARE * pairs)
    random_edges = pairs - loops - paths * (OUTOFCORE_PATH_LEN - 1)
    a, b = path_mix_edges(rng, n, random_edges, paths, OUTOFCORE_PATH_LEN)
    flip = rng.random(a.size) < 0.5
    ends = rng.integers(0, n, size=loops, dtype=np.int64)
    u = np.concatenate([np.where(flip, b, a), ends])
    v = np.concatenate([np.where(flip, a, b), ends])
    order = rng.permutation(pairs)
    return n, u[order], v[order]


def _padded_digits(x: np.ndarray, width: int) -> np.ndarray:
    """ASCII of ``x`` right-aligned in ``width`` space-padded columns."""
    out = np.full((x.size, width), ord(" "), dtype=np.uint8)
    rest = x.copy()
    for col in range(width - 1, -1, -1):
        digit = (rest % 10).astype(np.uint8) + ord("0")
        out[:, col] = np.where((rest > 0) | (col == width - 1), digit, ord(" "))
        rest //= 10
    return out


def write_edge_text(path: str, n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Write the ``n``-header text edge list; returns its size in bytes.

    Each line is ``u v`` with both ids right-aligned to the width of
    ``n - 1`` (whitespace the reader skips), so the whole body is built
    as one byte array instead of a Python loop over lines.
    """
    width = len(str(max(n - 1, 0)))
    with open(path, "wb") as fh:
        fh.write(f"{n}\n".encode("ascii"))
        for start in range(0, u.size, 1 << 21):
            cu, cv = u[start:start + (1 << 21)], v[start:start + (1 << 21)]
            line = np.empty((cu.size, 2 * width + 2), dtype=np.uint8)
            line[:, :width] = _padded_digits(cu, width)
            line[:, width] = ord(" ")
            line[:, width + 1:-1] = _padded_digits(cv, width)
            line[:, -1] = ord("\n")
            fh.write(line.tobytes())
    return os.path.getsize(path)


def distinct_edges(n: int, u: np.ndarray, v: np.ndarray) -> int:
    keep = u != v
    key = np.minimum(u[keep], v[keep]) * np.int64(n) + np.maximum(u[keep], v[keep])
    key.sort()
    return int(key.size and 1 + np.count_nonzero(key[1:] != key[:-1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["bulk", "outofcore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    meta = {}
    if args.workload == "bulk":
        n, u, v = bulk_pairs(rng)
        np.save(os.path.join(args.out, "u.npy"), u)
        np.save(os.path.join(args.out, "v.npy"), v)
    else:
        n, u, v = outofcore_pairs(rng, OUTOFCORE_PAIRS)
        meta["file_bytes"] = write_edge_text(
            os.path.join(args.out, "edges.txt"), n, u, v)
    np.save(os.path.join(args.out, "labels.npy"), oracle_labels(n, u, v))
    meta.update(n=n, raw_pairs=int(u.size), edges=distinct_edges(n, u, v))
    with open(os.path.join(args.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
