"""Due-time latency accounting of the wire client, against a fake gateway.

The fake speaks the binary protocol on a localhost port, answers each
SOLVE frame with the oracle's labels after ``delay`` seconds, and
records the header flags it saw.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from oracle import oracle_labels
from repro.serve import protocol
import wire_client


class FakeGateway:
    def __init__(self, delay=0.0):
        self.delay = delay
        self.flags = []
        self.loop = asyncio.new_event_loop()
        self.port = 0
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        server = self.loop.run_until_complete(
            asyncio.start_server(self._serve, "127.0.0.1", 0))
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        self.loop.run_forever()
        server.close()
        self.loop.run_until_complete(server.wait_closed())

    async def _serve(self, reader, writer):
        try:
            while True:
                head = await reader.readexactly(protocol.REQUEST_HEADER_SIZE)
                header = protocol.decode_request_header(head)
                payload = await reader.readexactly(header.payload_bytes)
                self.flags.append(header.flags)
                u, v = protocol.decode_pairs(header, payload)
                labels = oracle_labels(header.n, u, v)
                if self.delay:
                    await asyncio.sleep(self.delay)
                for chunk_head, body in protocol.iter_label_chunks(
                        header.request_id, labels, chunk_labels=3):
                    writer.write(chunk_head + bytes(body))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10)
        return self

    def __exit__(self, *exc):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()
        self.loop.close()


def frames_for(count, rng):
    frames, expected = [], []
    for rid in range(count):
        n = int(rng.integers(2, 12))
        u = rng.integers(0, n, 2 * n)
        v = rng.integers(0, n, 2 * n)
        frames.append(protocol.encode_solve_request(n, u, v, request_id=rid))
        expected.append(oracle_labels(n, u, v))
    return frames, expected


def test_labels_reassembled_and_frames_not_canonical():
    frames, expected = frames_for(20, np.random.default_rng(0))
    with FakeGateway() as gw:
        result = wire_client.run_phase("127.0.0.1", gw.port, frames,
                                       np.linspace(0, 0.05, 20), settle=10)
    assert gw.flags and not any(f & protocol.FLAG_CANONICAL for f in gw.flags)
    for outcome, labels in zip(result.outcomes, expected):
        assert outcome.status == protocol.STATUS_OK
        assert np.array_equal(np.frombuffer(outcome.labels, "<i8"), labels)
        assert outcome.sent >= outcome.due - 1e-3
        assert outcome.done >= outcome.sent


def test_latency_counts_the_wait_of_a_stalled_generator():
    """Requests due 0.2 s before the phase start were written late; their
    latency includes that wait although the server answered at once."""
    frames, _ = frames_for(10, np.random.default_rng(1))
    offsets = [-0.2] * 5 + [0.01 * i for i in range(5)]
    with FakeGateway() as gw:
        result = wire_client.run_phase("127.0.0.1", gw.port, frames, offsets,
                                       settle=10, start_delay=0.0)
    late = result.outcomes[:5]
    for o in late:
        assert o.lag >= 0.2
        assert o.latency >= 0.2
        assert o.latency == pytest.approx(o.lag + (o.done - o.sent))
        assert o.done - o.sent < 0.2
    verified = [True] * len(result.outcomes)
    lat = wire_client.latencies(result.outcomes, verified, unanswered=99.0)
    assert min(lat[:5]) >= 0.2 > max(o.done - o.sent for o in late)


def test_queueing_at_the_server_shows_in_latency_not_lag():
    frames, _ = frames_for(6, np.random.default_rng(2))
    with FakeGateway(delay=0.05) as gw:
        t0 = time.perf_counter()
        result = wire_client.run_phase("127.0.0.1", gw.port, frames,
                                       [0.0] * 6, connections=1, settle=10)
    assert time.perf_counter() - t0 >= 0.3
    lat = sorted(o.latency for o in result.outcomes)
    assert lat[-1] >= 0.3  # the sixth answer waited behind five others
    assert max(o.lag for o in result.outcomes) < 0.1


def test_unanswered_and_failed_count_beyond_any_limit():
    outcomes = [wire_client.Outcome(due=0.0, sent=0.0, done=0.002,
                                    status=protocol.STATUS_OK),
                wire_client.Outcome(due=0.0, sent=0.0, done=0.001,
                                    status=protocol.STATUS_SHED),
                wire_client.Outcome(due=0.0)]
    verified = [True, False, False]
    assert wire_client.latencies(outcomes, verified, 30.0) == [0.002, 30.0, 30.0]
    assert not outcomes[2].answered


def test_rejects_mismatched_schedule():
    with pytest.raises(ValueError):
        wire_client.run_phase("127.0.0.1", 1, [b"x"], [0.0, 1.0])
