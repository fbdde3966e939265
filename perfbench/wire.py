"""``wire``: SOLVE frames to a gateway running in its own process.

The gateway is ``python -m repro serve --listen`` with the result cache
on.  One client process holds two persistent connections (one per
core of the two-core host the load was sized for) and sends raw pairs of sparse graphs, n on the
power-of-two ladder 8..4096 drawn with weight 1/n (the size skew of
``repro.serve.loadgen.LoadSpec``), two raw pairs per vertex; 30% of requests
repeat an earlier graph of their phase, re-shuffled and with
orientations flipped, so only the canonical fingerprint can tell.

Phases: a warm-up (one untimed round), a fixed-rate Poisson phase
that measures latency, and a burst phase that pipelines every frame and
measures capacity; both are cut into rounds that alternate over the run.  ``--max-queue``
is sized to hold the whole burst, so the burst measures service rate
rather than the shed policy.  ``SCHED_IDLE`` busy loops keep every CPU
out of idle for the whole run (see :class:`harness.IdleSpinners`).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    BenchError,
    IdleSpinners,
    ROOT,
    TRACE_DIR,
    child_env,
    median,
    percentile,
    process_tree_peak_mb,
    say,
    stop_process,
)
from oracle import oracle_labels_many
from spans import Tracer

from repro.analysis.hashing import graph_fingerprint
from repro.hirschberg.edgelist import EdgeListGraph
from repro.serve import protocol
import wire_client

CONNECTIONS = 2
RATE = 800.0
REPEAT_SHARE = 0.3
SIZES = np.array([2 ** k for k in range(3, 13)])
SIZE_WEIGHTS = (1.0 / SIZES) / (1.0 / SIZES).sum()
EDGE_FACTOR = 2
#: The run alternates ROUNDS times between a gateway spawn (a set-up
#: sample), a stretch of the fixed-rate phase and a burst of
#: BURST_REQUESTS fresh frames.  ``lat_p99_ms`` pools the latencies of
#: all stretches, ``capacity_rps`` is the median burst rate, ``setup_s``
#: the median spawn time.  Spreading all three over the whole run keeps
#: one slow stretch of the host from setting any of them.
ROUNDS = 10
BURST_REQUESTS = 3500
MAX_QUEUE = 16384
CACHE = "64M"
REPLAY_FRAMES = 2000
#: Share of ``--seconds`` each latency phase of the traced run takes,
#: capped at the size of the server's percentile reservoirs
#: (``deque(maxlen=8192)``), so a phase never overruns them.
TRACED_SHARE = 0.3
RESERVOIR = 8192
#: Latency charged to a request that failed or was never answered.
SETTLE_S = 30.0


def shares(count: int) -> np.ndarray:
    """``count`` sizes, each size's number its weight's share of
    ``count`` (largest remainders round), in ladder order."""
    exact = SIZE_WEIGHTS * count
    numbers = np.floor(exact).astype(int)
    short = count - int(numbers.sum())
    numbers[np.argsort(numbers - exact)[:short]] += 1
    return np.repeat(SIZES, numbers)


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """CPU sets for (client, gateway): one CPU for the client and the
    rest for the gateway, or no pinning on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


class GatewayProcess:
    """``python -m repro serve --listen`` as a child process, pinned to
    ``cpus`` when given."""

    def __init__(self, workdir: str, tag: str, cpus: Optional[set] = None):
        self.workdir = workdir
        self.tag = tag
        self.cpus = cpus
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "GatewayProcess":
        err = open(os.path.join(self.workdir, f"gateway-{self.tag}.err"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--listen", "127.0.0.1:0",
             "--cache-bytes", CACHE, "--max-queue", str(MAX_QUEUE)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            text=True,
            preexec_fn=(None if self.cpus is None
                        else lambda: os.sched_setaffinity(0, self.cpus)),
        )
        err.close()
        line = self.proc.stdout.readline()
        match = re.search(r"serving on (\S+):(\d+)", line)
        if not match:
            stop_process(self.proc)
            raise BenchError(f"gateway did not start: {line!r}")
        self.port = int(match.group(2))
        deadline = t0 + 60.0
        while True:
            try:
                if self.get("/healthz").get("status") == "ok":
                    break
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("gateway never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0
        return self

    def get(self, path: str) -> Dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return process_tree_peak_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------

class Stream:
    """One phase's requests: frames, the graph each carries, oracles.

    The composition is stratified rather than drawn request by request:
    each size gets its weight's share of the requests and exactly
    REPEAT_SHARE of them repeat an earlier graph, in seeded random
    order.  The few heavy requests set the latency tail and a good part
    of the work, so a chance surplus of them in one run would otherwise
    read as a change in the program.
    """

    def __init__(self, rng: np.random.Generator, count: int):
        self.graphs: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self.pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        self.graph_of: List[int] = []
        repeats = int(round(REPEAT_SHARE * count)) if count > 1 else 0
        repeat = np.zeros(count, dtype=bool)
        repeat[1 + rng.permutation(count - 1)[:repeats]] = True
        sizes = rng.permutation(shares(count - repeats))
        fresh = iter(sizes.tolist())
        for i in range(count):
            if repeat[i]:
                g = int(rng.integers(len(self.graphs)))
                _, u, v = self.graphs[g]
                order = rng.permutation(u.size)
                flip = rng.random(u.size) < 0.5
                u, v = u[order], v[order]
                u, v = np.where(flip, v, u), np.where(flip, u, v)
            else:
                n = next(fresh)
                u = rng.integers(0, n, size=EDGE_FACTOR * n, dtype=np.int64)
                v = rng.integers(0, n, size=EDGE_FACTOR * n, dtype=np.int64)
                g = len(self.graphs)
                self.graphs.append((n, u, v))
            self.graph_of.append(g)
            self.pairs.append((u, v))
        self.frames: List[bytes] = []
        #: (start, end) of each frame's encode call
        self.encoded: List[Tuple[float, float]] = []
        for rid, (u, v) in enumerate(self.pairs):
            n = self.graphs[self.graph_of[rid]][0]
            t0 = time.perf_counter()
            self.frames.append(protocol.encode_solve_request(n, u, v, request_id=rid))
            self.encoded.append((t0, time.perf_counter()))
        self.oracle = oracle_labels_many(self.graphs)

    def verify(self, outcomes: List[wire_client.Outcome],
               tracer: Optional[Tracer] = None) -> List[bool]:
        """Per request: answered OK with the oracle's labels."""
        ok = []
        for rid, outcome in enumerate(outcomes):
            if outcome.status != protocol.STATUS_OK:
                ok.append(False)
                continue
            t0 = time.perf_counter()
            labels = np.frombuffer(outcome.labels, dtype="<i8")
            t1 = time.perf_counter()
            good = np.array_equal(labels, self.oracle[self.graph_of[rid]])
            if tracer is not None:
                tracer.add("reassembly", t0, t1, request_id=rid)
                tracer.add("verify", t1, time.perf_counter(), request_id=rid)
            ok.append(good)
        return ok


def metrics_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """Counter differences between two ``/metrics`` snapshots."""
    c0, c1 = before["counters"], after["counters"]
    out: Dict[str, float] = {k: c1[k] - c0[k] for k in c1}
    occ0 = (before["batch_occupancy"]["mean"] or 0.0) * c0["batches"]
    occ1 = (after["batch_occupancy"]["mean"] or 0.0) * c1["batches"]
    out["occupancy_sum"] = occ1 - occ0
    for key in ("hits", "misses"):
        out[f"cache_{key}"] = after["cache"][key] - before["cache"][key]
    for key in ("protocol_errors", "bytes_in", "bytes_out", "frames_in"):
        out[key] = after["wire"][key] - before["wire"][key]
    return out


def phase(gw: GatewayProcess, stream: Stream, offsets: np.ndarray,
          tracer: Optional[Tracer] = None, name: str = "phase"):
    """Run one phase; returns (result, verified flags, /metrics delta,
    /metrics snapshot after)."""
    before = gw.get("/metrics")
    t0 = time.perf_counter()
    result = wire_client.run_phase("127.0.0.1", gw.port, stream.frames,
                                   offsets, connections=CONNECTIONS,
                                   settle=SETTLE_S)
    t1 = time.perf_counter()
    after = gw.get("/metrics")
    delta = metrics_delta(before, after)
    phase_id = None
    if tracer is not None:
        phase_id = tracer.add(f"phase:{name}", t0, t1, **delta)
        for rid, o in enumerate(result.outcomes):
            if o.answered:
                tracer.add("send_to_response", o.due, o.done, parent=phase_id,
                           request_id=rid, lag_ms=round(o.lag * 1e3, 4))
    ok = stream.verify(result.outcomes, tracer)
    return result, ok, delta, after


def _summary_ms(snap: Dict, series: str, key: str) -> float:
    """A percentile from a ``/metrics`` reservoir; 0 when it is empty."""
    node = snap
    for part in series.split("."):
        node = node[part]
    value = node.get(key)
    return float(value) if value is not None else 0.0


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Tuple[Dict, int, int, int]:
    rng = np.random.default_rng(seed)
    setups: List[float] = []
    gateways: List[GatewayProcess] = []
    attempted = failed = wrong = 0

    def count(result, ok) -> None:
        nonlocal attempted, failed, wrong
        attempted += len(ok)
        failed += ok.count(False)
        wrong += sum(1 for o, good in zip(result.outcomes, ok)
                     if o.status == protocol.STATUS_OK and not good)

    def launch(tag: str) -> GatewayProcess:
        gw = GatewayProcess(workdir, tag, gateway_cpus)
        gateways.append(gw)
        gw.start()
        setups.append(gw.setup_s)
        return gw

    # The spinners enumerate this process's CPUs, so they start before
    # the client pins itself to one of them.
    spinners = IdleSpinners()
    try:
        spinners.start()
        client_cpus, gateway_cpus = split_cpus()
        if client_cpus is not None:
            os.sched_setaffinity(0, client_cpus)
        if not trace:
            gw = launch("run")
            per_round = int(RATE * seconds / ROUNDS)
            # Warm-up: one untimed round of each phase, so that the
            # first timed stretch does not pay the gateway's first-use
            # costs (the cache and the allocator growing, each request
            # size's first solve).
            warm_rng = np.random.default_rng([seed, 1])
            for offsets in (wire_client.poisson_offsets(per_round, RATE, warm_rng),
                            np.zeros(BURST_REQUESTS)):
                res, ok, _, _ = phase(gw, Stream(warm_rng, offsets.size), offsets)
                count(res, ok)
            lat, lags, capacities, round_p99 = [], [], [], []
            for r in range(ROUNDS):
                launch(f"setup{r}").stop()
                stream = Stream(rng, per_round)
                res, ok, _, _ = phase(gw, stream, wire_client.poisson_offsets(per_round, RATE, rng))
                count(res, ok)
                round_lat = wire_client.latencies(res.outcomes, ok, SETTLE_S)
                round_p99.append(percentile(round_lat, 99.0) * 1e3)
                lat += round_lat
                lags += [o.lag for o in res.outcomes]
                burst = Stream(rng, BURST_REQUESTS)
                bres, bok, _, _ = phase(gw, burst, np.zeros(BURST_REQUESTS))
                count(bres, bok)
                capacities.append(bok.count(True) / (bres.last_done - bres.first_send))
                del stream, burst
            values = {
                "setup_s": median(setups),
                "solve_s": median(lat),
                "lat_p50_ms": median(lat) * 1e3,
                "lat_p99_ms": percentile(lat, 99.0) * 1e3,
                "capacity_rps": median(capacities),
                "peak_rss_mb": gw.peak_rss_mb(),
            }
            say(f"wire: {len(lat)} latency samples at {RATE:g} req/s offered, "
                f"generator lag p99 {percentile(lags, 99.0) * 1e3:.3f} ms; capacity per burst of "
                f"{BURST_REQUESTS}: {', '.join(f'{c:.0f}' for c in capacities)} req/s; "
                f"p99 per stretch: {', '.join(f'{p:.1f}' for p in round_p99)} ms")
            return values, attempted, failed, wrong
        values = traced(seed, seconds, rng, launch, count)
        return values, attempted, failed, wrong
    finally:
        for gw in gateways:
            gw.stop()
        spinners.stop()


def traced(seed, seconds, rng, launch, count) -> Dict[str, float]:
    """Per-layer numbers; every phase runs on a fresh gateway, so each
    ``/metrics`` percentile reservoir holds that phase's samples only.

    The latency phase runs twice, untraced and then traced, with the
    same frames on the same schedule, each on a fresh gateway; the
    ratio of their median latencies is ``trace.overhead_ratio``.  Wire
    spans are laid out after the phase from the client's own
    timestamps, so nothing is traced while requests are in flight and
    the ratio reads 1 up to run-to-run noise.
    """
    tracer = Tracer()
    lat_count = min(int(RATE * seconds * TRACED_SHARE), RESERVOIR)
    stream = Stream(rng, lat_count)
    offsets = wire_client.poisson_offsets(lat_count, RATE, rng)
    gw = launch("untraced")
    res, ok, _, _ = phase(gw, stream, offsets)
    count(res, ok)
    untraced_p50 = median(wire_client.latencies(res.outcomes, ok, SETTLE_S))
    gw.stop()

    for rid, (t0, t1) in enumerate(stream.encoded):
        tracer.add("encode", t0, t1, request_id=rid)
    gw = launch("latency")
    res, ok, lat_delta, lat_snap = phase(gw, stream, offsets, tracer, "latency")
    count(res, ok)
    lat = wire_client.latencies(res.outcomes, ok, SETTLE_S)
    lags = [o.lag for o in res.outcomes]
    gw.stop()
    replay = replay_layers(stream, tracer)
    frame_bytes = res.frame_bytes / len(stream.frames)
    encode_us = median([t1 - t0 for t0, t1 in stream.encoded]) * 1e6
    del stream

    burst = Stream(rng, BURST_REQUESTS)
    gw = launch("burst")
    bres, bok, burst_delta, _ = phase(gw, burst, np.zeros(BURST_REQUESTS), tracer, "burst")
    count(bres, bok)
    gw.stop()
    del burst

    hits = lat_delta["cache_hits"] + burst_delta["cache_hits"]
    lookups = hits + lat_delta["cache_misses"] + burst_delta["cache_misses"]
    values = {
        "protocol.encode_us_p50": encode_us,
        "protocol.bytes_per_req": frame_bytes,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.lookups": lookups,
        "gateway.accept_to_admit_ms_p50": _summary_ms(lat_snap, "wire.accept_to_admit", "p50_ms"),
        "gateway.accept_to_admit_ms_p99": _summary_ms(lat_snap, "wire.accept_to_admit", "p99_ms"),
        "gateway.protocol_errors": lat_delta["protocol_errors"] + burst_delta["protocol_errors"],
        "server.queue_ms_p50": _summary_ms(lat_snap, "queue_time", "p50_ms"),
        "server.queue_ms_p99": _summary_ms(lat_snap, "queue_time", "p99_ms"),
        "server.service_ms_p50": _summary_ms(lat_snap, "service_time", "p50_ms"),
        "scheduler.batch_occupancy_mean": (burst_delta["occupancy_sum"] / burst_delta["batches"]
                                           if burst_delta["batches"] else 0.0),
        "scheduler.batches": burst_delta["batches"],
        "server.shed": lat_delta["shed"] + burst_delta["shed"],
        "server.timed_out": lat_delta["timed_out"] + burst_delta["timed_out"],
        "loadgen.lag_p99_ms": percentile(lags, 99.0) * 1e3,
        "loadgen.lat_samples": len(lat),
        "trace.overhead_ratio": median(lat) / untraced_p50,
    }
    values.update(replay)
    path = os.path.join(TRACE_DIR, f"wire-seed{seed}.json")
    tracer.write(path, {"workload": "wire", "seed": seed,
                        "reservoir_samples": lat_snap["queue_time"]["count"],
                        "self_seconds": tracer.self_seconds()})
    say(f"wire: span file {path}")
    return values


def replay_layers(stream: Stream, tracer: Tracer) -> Dict[str, float]:
    """Time the per-request layers on the recorded frames, one call each:
    decode, ``from_arrays`` on the raw pairs, and the fingerprint of a
    freshly built graph (fingerprints are memoised per graph object)."""
    decode, build, fingerprint = [], [], []
    raw = kept = 0
    for rid, frame in enumerate(stream.frames[:REPLAY_FRAMES]):
        view = memoryview(frame)
        t0 = time.perf_counter()
        header = protocol.decode_request_header(view)
        protocol.graph_from_frame(header, view[protocol.REQUEST_HEADER_SIZE:])
        t1 = time.perf_counter()
        u, v = stream.pairs[rid]
        graph = EdgeListGraph.from_arrays(header.n, u, v)
        t2 = time.perf_counter()
        graph_fingerprint(graph)
        t3 = time.perf_counter()
        tracer.add("replay.decode", t0, t1, request_id=rid)
        tracer.add("replay.from_arrays", t1, t2, request_id=rid)
        tracer.add("replay.fingerprint", t2, t3, request_id=rid)
        decode.append(t1 - t0)
        build.append(t2 - t1)
        fingerprint.append(t3 - t2)
        raw += u.size
        kept += graph.edge_count
    return {
        "protocol.decode_us_p50": median(decode) * 1e6,
        "edgelist.from_arrays_us_p50": median(build) * 1e6,
        "hashing.fingerprint_us_p50": median(fingerprint) * 1e6,
        "edgelist.kept_ratio": kept / raw,
    }
