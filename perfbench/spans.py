"""In-memory spans written out as Chrome trace-event JSON.

The traced run wraps each call into a layer's public functions in a
span; nothing inside ``src/`` is instrumented.  Spans stay in a list
until :meth:`Tracer.write` dumps them in the trace-event format that
Perfetto and ``chrome://tracing`` open directly: complete (``"X"``)
events with microsecond ``ts``/``dur``, plus each span's id, parent id
and request id under ``args``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request_id: Optional[int] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory.

    Times are ``time.perf_counter()`` seconds; :meth:`add` records a
    span whose interval was measured elsewhere (a client-side send and
    response instant, or a stage duration reported by the program).
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, request_id: Optional[int] = None,
            **args: object) -> int:
        span_id = len(self.spans) + 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(Span(span_id, name, start, end, parent,
                               request_id, dict(args)))
        return span_id

    @contextmanager
    def span(self, name: str, request_id: Optional[int] = None,
             **args: object) -> Iterator[Span]:
        """Time the block as one span nested under the enclosing one."""
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans) + 1, name, time.perf_counter(), 0.0,
                      parent, request_id, dict(args))
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part of
        the interval covered by the span's children."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: Dict[str, float] = {}
        for s in self.spans:
            covered = _covered(s, children.get(s.span_id, []))
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds - covered
        return totals

    def write(self, path: str, metadata: Optional[Dict] = None) -> None:
        pid = os.getpid()
        events = []
        for s in self.spans:
            args = dict(s.args, span_id=s.span_id, parent=s.parent,
                        request_id=s.request_id)
            events.append({
                "name": s.name, "ph": "X", "pid": pid,
                "tid": 0 if s.request_id is None else 1 + s.request_id % 64,
                "ts": round((s.start - self._origin) * 1e6, 3),
                "dur": round(s.seconds * 1e6, 3), "args": args,
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata or {}}, fh)


def _covered(span: Span, kids: List[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo = max(kid.start, cursor)
        hi = min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
