"""One set-up sample for ``bulk`` or ``outofcore``, in a fresh interpreter.

The parent times this process from launch until it prints ``imported``
(interpreter start plus ``import repro``).  The probe then solves a
scaled-down input of the same shape through the same call several
times and prints, as its last line, the first solve's excess over the
median of the rest: the lazy one-time work (worker-pool fork, memory
and host probes, first-use imports) a fresh process pays once.

    python3 perfbench/setup_probe.py bulk --seed 7 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import repro  # noqa: F401  (the import being timed)

print("imported", flush=True)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from harness import median  # noqa: E402

SOLVES = 3


def bulk_solve_times(seed: int) -> list:
    from repro.core.api import connected_components
    from repro.hirschberg.edgelist import EdgeListGraph

    n, u, v = gen.bulk_pairs(np.random.default_rng(seed), scale=5)
    times = []
    for _ in range(SOLVES):
        ru, rv = u.copy(), v.copy()
        t0 = time.perf_counter()
        graph = EdgeListGraph.from_arrays(n, ru, rv)
        connected_components(graph, engine="auto")
        times.append(time.perf_counter() - t0)
    return times


def outofcore_solve_times(seed: int, workdir: str) -> list:
    from repro.hirschberg.sharded import connected_components_sharded

    n, u, v = gen.outofcore_pairs(np.random.default_rng(seed), gen.OUTOFCORE_PAIRS // 20)
    path = os.path.join(workdir, "probe-edges.txt")
    gen.write_edge_text(path, n, u, v)
    times = []
    for i in range(SOLVES):
        t0 = time.perf_counter()
        # edges_hint: plan shards and workers as for the full-size file
        connected_components_sharded(
            path, memory_budget=gen.OUTOFCORE_BUDGET,
            edges_hint=gen.OUTOFCORE_PAIRS,
            workdir=os.path.join(workdir, f"probe-shards-{i}"),
        )
        times.append(time.perf_counter() - t0)
    os.unlink(path)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["bulk", "outofcore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if args.workload == "bulk":
        times = bulk_solve_times(args.seed)
    else:
        times = outofcore_solve_times(args.seed, args.workdir)
    print(json.dumps({"excess_s": times[0] - median(times[1:])}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
