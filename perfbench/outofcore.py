"""``outofcore``: the sharded engine reading a text edge-list file.

``connected_components_sharded(path, memory_budget=64 MiB)`` on a file
of 8.4 * 10**6 raw pairs -- at 16 bytes a pair, twice the budget -- of
a random sparse graph plus paths of 16 vertices (see ``gen.py``): the
frontier merge's pass count grows with the diameter, and the paths give
it a moderate one.  Only this workload makes
``repro.graphs.io`` streaming, per-shard compaction and the frontier
merge do the work, and only here is memory itself a result.  The file
is written by a separate process, so generation memory never counts.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    PeakRSS,
    TRACE_DIR,
    host_fingerprint,
    median,
    percentile,
    probe_setup,
    run_child,
    say,
)
from spans import Tracer

from repro.graphs.io import open_edge_list_stream
from repro.hirschberg.sharded import connected_components_sharded
import gen

SETUP_SAMPLES = 3
MIN_SOLVES = 3
BUDGET = gen.OUTOFCORE_BUDGET


def solve(path: str, workdir: str, i: int):
    return connected_components_sharded(
        path, memory_budget=BUDGET,
        workdir=os.path.join(workdir, f"shards-{i}"),
    )


def warm_up(seed: int, workdir: str) -> None:
    """First-use imports and pool start-up on a 1/20-scale file."""
    n, u, v = gen.outofcore_pairs(np.random.default_rng([seed, 9]), gen.OUTOFCORE_PAIRS // 20)
    path = os.path.join(workdir, "warm-edges.txt")
    gen.write_edge_text(path, n, u, v)
    connected_components_sharded(path, memory_budget=BUDGET,
                                 edges_hint=gen.OUTOFCORE_PAIRS,
                                 workdir=os.path.join(workdir, "warm-shards"))
    os.unlink(path)


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Tuple[Dict, int, int, int]:
    setup = [] if trace else [probe_setup("outofcore", seed + i, workdir)
                              for i in range(SETUP_SAMPLES)]
    run_child([os.path.join(os.path.dirname(__file__), "gen.py"), "outofcore",
               "--seed", str(seed), "--out", workdir], timeout=170)
    with open(os.path.join(workdir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    oracle = np.load(os.path.join(workdir, "labels.npy"))
    path = os.path.join(workdir, "edges.txt")
    say("outofcore: " + json.dumps({"host": host_fingerprint(), "budget_bytes": BUDGET,
                                    **meta}))
    warm_up(seed, workdir)
    if trace:
        return traced(seed, seconds, path, workdir, oracle, meta)

    times: List[float] = []
    rss: List[float] = []
    failed = 0
    loop_start = time.perf_counter()
    while len(times) < MIN_SOLVES or (
            time.perf_counter() - loop_start + median(times) <= seconds):
        with PeakRSS() as peak:
            t0 = time.perf_counter()
            result = solve(path, workdir, len(times))
            times.append(time.perf_counter() - t0)
        rss.append(peak.mb)
        if not np.array_equal(result.labels, oracle):
            failed += 1
        del result
    values = {
        "setup_s": median(setup),
        "solve_s": median(times),
        "lat_p50_ms": median(times) * 1e3,
        "lat_p99_ms": percentile(times, 99.0) * 1e3,
        "capacity_rps": (len(times) - failed) / sum(times),
        "peak_rss_mb": median(rss),
    }
    say(f"outofcore: {len(times)} solves, {', '.join(f'{t:.3f}' for t in times)} s; "
        f"peak RSS {', '.join(f'{r:.0f}' for r in rss)} MB")
    return values, len(times), failed, failed


def traced(seed: int, seconds: float, path: str, workdir: str,
           oracle: np.ndarray, meta: Dict) -> Tuple[Dict, int, int, int]:
    """The file read alone through ``open_edge_list_stream``, then
    sharded solves whose stages come from ``ShardedResult.seconds``
    (the engine measures them; they are laid out back to back under
    the call's span).  One untraced solve first gives the base of
    ``trace.overhead_ratio``."""
    attempted = failed = 0
    with PeakRSS():
        t0 = time.perf_counter()
        first = solve(path, workdir, 0)
        untraced = time.perf_counter() - t0
    attempted += 1
    failed += int(not np.array_equal(first.labels, oracle))
    del first

    tracer = Tracer()
    with tracer.span("io.stream") as read:
        _, chunks = open_edge_list_stream(path)
        pairs_read = sum(int(u.size) for u, _ in chunks)
    samples: Dict[str, List[float]] = {}
    loop_start = time.perf_counter()
    rid = 0
    while rid < 2 or time.perf_counter() - loop_start + median(samples["solve"]) <= seconds:
        with PeakRSS() as peak:
            with tracer.span("solve", request_id=rid) as root:
                with tracer.span("sharded", request_id=rid) as call:
                    result = solve(path, workdir, rid + 1)
        attempted += 1
        failed += int(not np.array_equal(result.labels, oracle))
        cursor = call.start
        for stage, key in (("partition", "partition"), ("shard_solve", "solve"),
                           ("merge", "merge")):
            seconds_in = result.seconds.get(key, 0.0)
            tracer.add(f"sharded.{stage}", cursor, cursor + seconds_in,
                       parent=call.span_id, request_id=rid, source="ShardedResult.seconds")
            samples.setdefault(stage, []).append(seconds_in)
            cursor += seconds_in
        for key, value in (
            ("solve", root.seconds),
            ("shards", result.plan.shards),
            ("merge_passes", result.merge_passes),
            ("frontier_ratio", result.frontier_pairs / max(result.edges, 1)),
            ("rss_over_budget", peak.mb * 1e6 / BUDGET),
        ):
            samples.setdefault(key, []).append(value)
        del result
        rid += 1

    values = {
        "io.stream_s": read.seconds,
        "sharded.partition_s": median(samples["partition"]),
        "sharded.solve_s": median(samples["shard_solve"]),
        "sharded.merge_s": median(samples["merge"]),
        "sharded.shards": median(samples["shards"]),
        "sharded.merge_passes": median(samples["merge_passes"]),
        "sharded.frontier_ratio": median(samples["frontier_ratio"]),
        "sharded.rss_over_budget": median(samples["rss_over_budget"]),
        "trace.overhead_ratio": median(samples["solve"]) / untraced,
    }
    out = os.path.join(TRACE_DIR, f"outofcore-seed{seed}.json")
    tracer.write(out, {"workload": "outofcore", "seed": seed, "host": host_fingerprint(),
                       "pairs_read": pairs_read, "input": meta,
                       "self_seconds": tracer.self_seconds()})
    say(f"outofcore: span file {out}")
    return values, attempted, failed, failed
