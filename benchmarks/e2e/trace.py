"""A tiny in-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into each
layer's public functions; nothing under ``src/`` is instrumented (that is
ROADMAP item 4).  A span carries its name, the layer (module under
``src/repro/``) it belongs to, start and end, the span that caused it and the
id of the request it serves.  Spans stay in memory and are dumped to JSON when
the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


class Span:
    """One timed interval; also the context manager that records it."""

    __slots__ = ("tracer", "id", "name", "layer", "parent", "request", "kind",
                 "start", "end", "derived")

    def __init__(self, tracer, name, layer, kind=None):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.kind = kind
        self.derived = False

    def __enter__(self):
        tracer = self.tracer
        self.id = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        self.parent = parent.id if parent is not None else None
        if parent is None:
            tracer._requests += 1
        self.request = tracer._requests
        tracer.spans.append(self)
        tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        self.tracer._stack.pop()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span tree per request.

    A span opened while no other span is open is a *request* (the root of a
    tree) and gets a fresh request id; every span opened inside it inherits
    that id.  ``kind`` labels request spans so a workload can tell its
    decomposed replay from the same request issued whole.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._requests = 0

    def span(self, name: str, layer: str, kind: str | None = None) -> Span:
        return Span(self, name, layer, kind)

    def derived(self, name: str, layer: str, seconds: float) -> None:
        """Add a child of the open span whose duration was measured elsewhere.

        Used where the callee reports its own time (the saturation stages'
        ``RunnerReport.time_ms``) or where a part can only be timed on a twin
        (``Catalog.update`` without views); the span is marked ``derived`` and
        starts where its parent starts.
        """
        parent = self._stack[-1]
        span = Span(self, name, layer)
        span.id = len(self.spans)
        span.parent = parent.id
        span.request = parent.request
        span.start = parent.start
        span.end = parent.start + seconds
        span.derived = True
        self.spans.append(span)

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the part its child spans cover."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def layer_seconds(self, kind: str) -> dict[str, float]:
        """Self time per layer, summed over the requests whose kind starts
        with ``kind``.  The request span's own self time (the glue between
        the layer calls) is reported under the request span's layer."""
        wanted = {span.request for span in self.spans
                  if span.parent is None and (span.kind or "").startswith(kind)}
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.request in wanted:
                totals[span.layer] += own[span.id]
        return dict(totals)

    def request_seconds(self, kind: str) -> float:
        """Total duration of the request spans whose kind starts with ``kind``."""
        return sum(span.duration for span in self.spans
                   if span.parent is None and (span.kind or "").startswith(kind))

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [span.duration * 1e3 for span in self.spans if span.name == name]

    def dump(self, path) -> None:
        rows = [{"id": s.id, "name": s.name, "layer": s.layer,
                 "parent": s.parent, "request": s.request, "kind": s.kind,
                 "start": s.start, "end": s.end, "derived": s.derived}
                for s in self.spans]
        scratch = f"{path}.{os.getpid()}.tmp"   # concurrent runs: last one wins, whole
        with open(scratch, "w") as handle:
            json.dump(rows, handle)
        os.replace(scratch, path)
