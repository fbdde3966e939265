"""``bulk``: one huge call through the Python API.

Each solve builds ``EdgeListGraph.from_arrays`` from freshly loaded raw
arrays (n = 10**6, ~5 * 10**6 raw pairs of ~2.5 * 10**6 distinct edges,
diameter ~10**3; see ``gen.py``) and calls
``connected_components(engine="auto")``.  Construction, dispatch and
the kernel do the work; serve, protocol and cache are bypassed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from harness import (
    PeakRSS,
    TRACE_DIR,
    host_fingerprint,
    jsonable,
    median,
    percentile,
    probe_setup,
    run_child,
    say,
)
from spans import Tracer

from repro.core.api import connected_components
from repro.core.dispatch import (
    DEFAULT_COST_MODEL,
    choose_engine,
    explain_choice,
    probe_available_memory,
)
from repro.hirschberg.edgelist import EdgeListGraph

SETUP_SAMPLES = 3
MIN_SOLVES = 3
#: The sparse engines ``auto`` chooses between; ``regret`` compares
#: ``auto``'s pick with the fastest of them on the same graph.
SPARSE_ENGINES = ("contracting", "parallel", "edgelist")


def auto_model():
    """The cost model ``engine="auto"`` uses on this host: the shipped
    constants with memory and worker count probed."""
    return replace(DEFAULT_COST_MODEL,
                   memory_budget=float(probe_available_memory()),
                   parallel_workers=float(os.cpu_count() or 1))


def rounds_of(detail) -> int:
    for attr in ("rounds", "iterations"):
        if hasattr(detail, attr):
            return int(getattr(detail, attr))
    return 0


class Inputs:
    """The generated input, loaded afresh for every solve."""

    def __init__(self, workdir: str):
        with open(os.path.join(workdir, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.n = int(self.meta["n"])
        self.workdir = workdir
        self.oracle = np.load(os.path.join(workdir, "labels.npy"))

    def raw(self) -> Tuple[np.ndarray, np.ndarray]:
        return (np.load(os.path.join(self.workdir, "u.npy")),
                np.load(os.path.join(self.workdir, "v.npy")))


def warm_up(inputs: "Inputs") -> None:
    """One untimed solve of the real input: forks the kernel pool and
    sizes its slabs, so the timed solves all run warm."""
    u, v = inputs.raw()
    connected_components(EdgeListGraph.from_arrays(inputs.n, u, v), engine="auto")


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Tuple[Dict, int, int, int]:
    setup = [] if trace else [probe_setup("bulk", seed + i, workdir)
                              for i in range(SETUP_SAMPLES)]
    run_child([os.path.join(os.path.dirname(__file__), "gen.py"), "bulk",
               "--seed", str(seed), "--out", workdir], timeout=170)
    inputs = Inputs(workdir)
    model = auto_model()
    raw_pairs = int(inputs.meta["raw_pairs"])
    edges = int(inputs.meta["edges"])
    explain = jsonable(explain_choice(inputs.n, edges, model=model))
    say("bulk: " + json.dumps({"host": host_fingerprint(), "n": inputs.n,
                               "raw_pairs": raw_pairs, "edges": edges,
                               "dispatch": explain}))
    warm_up(inputs)
    if trace:
        return traced(seed, seconds, inputs, model, explain)

    times: List[float] = []
    rss: List[float] = []
    failed = wrong = 0
    loop_start = time.perf_counter()
    while len(times) < MIN_SOLVES or (
            time.perf_counter() - loop_start + median(times) <= seconds):
        u, v = inputs.raw()
        with PeakRSS() as peak:
            t0 = time.perf_counter()
            graph = EdgeListGraph.from_arrays(inputs.n, u, v)
            result = connected_components(graph, engine="auto")
            times.append(time.perf_counter() - t0)
        rss.append(peak.mb)
        if not np.array_equal(result.labels, inputs.oracle):
            failed += 1
            wrong += 1
        del graph, result, u, v
    ok_seconds = sum(t for t in times)
    values = {
        "setup_s": median(setup),
        "solve_s": median(times),
        "lat_p50_ms": median(times) * 1e3,
        "lat_p99_ms": percentile(times, 99.0) * 1e3,
        "capacity_rps": (len(times) - failed) / ok_seconds,
        "peak_rss_mb": median(rss),
    }
    say(f"bulk: {len(times)} solves, {', '.join(f'{t:.3f}' for t in times)} s")
    return values, len(times), failed, wrong


def traced(seed: int, seconds: float, inputs: Inputs, model,
           explain: Dict) -> Tuple[Dict, int, int, int]:
    """Spans around each public call: ``from_arrays``, ``choose_engine``
    and the engine ``auto`` picked, then the other sparse engines on the
    same graph for ``regret``.  One untraced solve first gives the base
    of ``trace.overhead_ratio``."""
    attempted = failed = 0

    def check(labels) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not np.array_equal(labels, inputs.oracle):
            failed += 1

    u, v = inputs.raw()
    t0 = time.perf_counter()
    result = connected_components(EdgeListGraph.from_arrays(inputs.n, u, v), engine="auto")
    untraced = time.perf_counter() - t0
    check(result.labels)
    del result, u, v

    tracer = Tracer()
    samples: Dict[str, List[float]] = {}
    loop_start = time.perf_counter()
    rid = 0
    while rid < 2 or time.perf_counter() - loop_start + median(samples["iteration"]) <= seconds:
        it0 = time.perf_counter()
        u, v = inputs.raw()
        with tracer.span("solve", request_id=rid) as root:
            with tracer.span("from_arrays", request_id=rid) as build:
                graph = EdgeListGraph.from_arrays(inputs.n, u, v)
            with tracer.span("choose_engine", request_id=rid):
                choice = choose_engine(inputs.n, graph.edge_count, model=model)
            with tracer.span(f"engine:{choice}", request_id=rid) as eng:
                result = connected_components(graph, engine="auto")
        check(result.labels)
        if result.method != choice:
            say(f"bulk: auto ran {result.method}, choose_engine said {choice}")
        engine_times = {result.method: eng.seconds}
        for name in SPARSE_ENGINES:
            if name in engine_times:
                continue
            extra = {"kernel_workers": int(model.parallel_workers)} if name == "parallel" else {}
            with tracer.span(f"alt:{name}", request_id=rid) as alt:
                other = connected_components(graph, engine=name, **extra)
            check(other.labels)
            engine_times[name] = alt.seconds
            del other
        for key, value in (
            ("from_arrays", build.seconds),
            ("solve", root.seconds),
            ("kernel", eng.seconds),
            ("rounds", rounds_of(result.detail)),
            ("kept", graph.edge_count / u.size),
            ("pred_over_meas", explain["predicted_seconds"][result.method] / eng.seconds),
            ("regret", eng.seconds / min(engine_times.values())),
            ("iteration", time.perf_counter() - it0),
        ):
            samples.setdefault(key, []).append(value)
        del graph, result, u, v
        rid += 1

    values = {
        "edgelist.from_arrays_s": median(samples["from_arrays"]),
        "edgelist.kept_ratio": median(samples["kept"]),
        "dispatch.pred_over_meas": median(samples["pred_over_meas"]),
        "dispatch.regret": median(samples["regret"]),
        "kernel.solve_s": median(samples["kernel"]),
        "kernel.rounds": median(samples["rounds"]),
        "trace.overhead_ratio": median(samples["solve"]) / untraced,
    }
    path = os.path.join(TRACE_DIR, f"bulk-seed{seed}.json")
    tracer.write(path, {"workload": "bulk", "seed": seed, "host": host_fingerprint(),
                        "dispatch": explain, "self_seconds": tracer.self_seconds()})
    say(f"bulk: span file {path}")
    return values, attempted, failed, failed
