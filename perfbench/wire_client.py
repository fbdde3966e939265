"""The benchmark's wire client: one process, a few persistent connections.

Two differences from ``repro.serve.loadgen.run_socket_open_loop``
matter for the numbers:

* Latency is timed from each request's **due instant** (its place on
  the arrival schedule), not from the moment the frame was written.
  When the generator stalls, requests due during the stall go out
  late; timing from the write would hide that wait, timing from the
  due instant counts it.  How late each write was is reported as lag.
* Frames carry **raw pairs** (self-loops, duplicates, both
  orientations) without ``FLAG_CANONICAL``, so the server canonicalises
  them as it must for real clients.

A phase is a list of pre-encoded frames plus their due offsets in
seconds from the phase start: a Poisson schedule for the fixed-rate
phase, all zeros for the burst phase (every frame pipelined at once,
with ``drain()`` flow control).
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve import protocol


@dataclass
class Outcome:
    """What happened to one request; times are ``perf_counter`` seconds."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    status: Optional[int] = None  # None: never answered
    labels: bytes = b""

    @property
    def answered(self) -> bool:
        return self.status is not None

    @property
    def latency(self) -> float:
        """Due instant to final response frame."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the frame was written relative to its due instant."""
        return self.sent - self.due


@dataclass
class PhaseResult:
    outcomes: List[Outcome]
    first_send: float
    last_done: float
    frame_bytes: int = 0


def poisson_offsets(count: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds) of ``count`` Poisson arrivals at ``rate``/s."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def run_phase(
    host: str, port: int, frames: Sequence[bytes], offsets: Sequence[float],
    connections: int = 2, settle: float = 30.0, start_delay: float = 0.05,
) -> PhaseResult:
    """Send ``frames[i]`` at ``start + offsets[i]`` round-robin over
    ``connections`` connections; wait up to ``settle`` seconds after the
    last send for the answers.  Request ids are the frame indices, so
    the frames must have been encoded with ``request_id=i``.

    Offsets may be negative: those requests were due before the phase
    started, as if the generator had stalled, and their latency counts
    the wait.
    """
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if len(frames) != len(offsets):
        raise ValueError("one due offset per frame")
    # A collection of the client's own heap mid-phase would stall the
    # generator and read as server latency.
    gc.disable()
    try:
        return asyncio.run(_phase(host, port, list(frames), list(offsets),
                                  connections, settle, start_delay))
    finally:
        gc.enable()


async def _read(reader: asyncio.StreamReader, outcomes: List[Outcome],
                remaining: List[int], done: asyncio.Event) -> None:
    partial: Dict[int, List[bytes]] = {}
    while remaining[0] > 0:
        try:
            head = await reader.readexactly(protocol.RESPONSE_HEADER_SIZE)
            rh = protocol.decode_response_header(head)
            payload = (await reader.readexactly(rh.payload_bytes)
                       if rh.payload_bytes else b"")
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                protocol.ProtocolError):
            return
        if rh.request_id >= len(outcomes):
            continue
        outcome = outcomes[rh.request_id]
        if rh.kind == protocol.KIND_LABELS:
            partial.setdefault(rh.request_id, []).append(payload)
            if not rh.final:
                continue
            outcome.labels = b"".join(partial.pop(rh.request_id))
        elif rh.kind == protocol.KIND_ERROR:
            partial.pop(rh.request_id, None)
        else:
            continue
        outcome.done = time.perf_counter()
        outcome.status = rh.status
        remaining[0] -= 1
        if remaining[0] == 0:
            done.set()


async def _phase(host: str, port: int, frames: List[bytes],
                 offsets: List[float], connections: int, settle: float,
                 start_delay: float) -> PhaseResult:
    conns = [await asyncio.open_connection(host, port)
             for _ in range(min(connections, max(len(frames), 1)))]
    start = time.perf_counter() + start_delay
    outcomes = [Outcome(due=start + off) for off in offsets]
    remaining = [len(frames)]
    done = asyncio.Event()
    readers = [asyncio.ensure_future(_read(r, outcomes, remaining, done))
               for r, _ in conns]
    first_send = 0.0
    try:
        for idx, frame in enumerate(frames):
            delay = outcomes[idx].due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[idx % len(conns)][1]
            outcomes[idx].sent = time.perf_counter()
            if idx == 0:
                first_send = outcomes[idx].sent
            writer.write(frame)
            await writer.drain()
        if remaining[0] > 0:
            try:
                await asyncio.wait_for(done.wait(), settle)
            except asyncio.TimeoutError:
                pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    answered = [o.done for o in outcomes if o.answered]
    return PhaseResult(outcomes, first_send, max(answered, default=first_send),
                       frame_bytes=sum(len(f) for f in frames))


def latencies(outcomes: Sequence[Outcome], verified: Sequence[bool],
              unanswered: float) -> List[float]:
    """Per-request latency in seconds.  A request that failed, was
    refused, was never answered or returned wrong labels counts as
    ``unanswered`` (beyond any limit the caller sets)."""
    return [o.latency if good else unanswered
            for o, good in zip(outcomes, verified)]
