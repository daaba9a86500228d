"""Span tracing from outside the program, for the per-layer numbers.

Spans are recorded around calls *into* each layer by benchmark-owned
subclasses and wrappers; nothing under ``src/`` is instrumented.  A span
is ``(name, start, end, parent, op)`` where ``op`` is the request or task
id of the root it descends from.  A layer's self time is its span's
duration minus the time its child spans cover.  Spans stay in memory and
are written out once, at the end of the run.

The traced replays are single-threaded, so one stack suffices; shard
workers of a sharded Monte-Carlo run live in other processes and are
covered by the span that waits for them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.pipeline.cache import CircuitCache
from repro.service.api import EstimateRequest
from repro.service.store import PersistentCircuitCache

#: span name -> the layer it is charged to in the per-layer table.
LAYERS = {
    "request": "bench.replay",
    "api.parse": "service.api parse",
    "api.fingerprint": "service.api fingerprint",
    "api.serialize": "service.api canonical_json",
    "serve": "service.api serve_estimate",
    "store.result": "service.store memory tier",
    "store.load": "service.store disk get",
    "store.put": "service.store disk put",
    "estimate": "pipeline.montecarlo MC run",
    "build": "pipeline.cache build",
    "counts": "sim.engine counts",
    "compile": "transform.compile compile+fuse",
    "codegen": "sim.kernels codegen",
    "sweep": "pipeline.runner/jobs executor",
    "task": "pipeline.runner task",
    "tables": "resources.tables rows",
    "mc": "pipeline.montecarlo MC run",
    "artifact": "pipeline.artifacts",
}


class Span(dict):
    """One span record, and the context manager that times it.

    A span starts when it is created and ends after it leaves the stack,
    so the tracer's own bookkeeping is charged to the span it opens and
    not to the parent's self time."""

    __slots__ = ("_stack",)

    def __enter__(self) -> "Span":
        self._stack.append(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stack.pop()
        self["end"] = time.perf_counter()


class Tracer:
    """In-memory span recorder (single thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, op: Optional[str] = None, **attrs: Any) -> Span:
        start = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        record = Span(
            attrs,
            id=len(self.spans),
            name=name,
            parent=parent["id"] if parent else None,
            op=op if op is not None else (parent["op"] if parent else None),
            start=start,
            end=None,
        )
        record._stack = self._stack
        self.spans.append(record)
        return record

    def self_times(self) -> None:
        """Annotate every span with ``dur`` and ``self`` (seconds)."""
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"]
        for s in self.spans:
            if s["parent"] is not None:
                self.spans[s["parent"]]["self"] -= s["dur"]

    def dump(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, default=str) + "\n")


class _TracedLayers:
    """Spans around the CircuitCache entry points shared by both caches.

    ``program`` separates code generation: after the (memoized) compile
    and fuse, ``program.kernel(events=True)`` — the kernel the lane-count
    Monte-Carlo run executes — is generated in its own child span, so the
    run that follows finds it cached.
    """

    tracer: Tracer
    #: id -> program, for every program whose kernel has been generated
    #: (holding the program keeps its id from being reused).
    _generated: Dict[int, Any]

    def build(self, spec):
        with self.tracer.span("build"):
            return super().build(spec)

    def counts(self, spec, mode: str = "expected"):
        with self.tracer.span("counts"):
            return super().counts(spec, mode)

    def program(self, spec, tally: bool = True, schedule: bool = False):
        with self.tracer.span("compile") as span:
            program = super().program(spec, tally, schedule)
            span["instructions"] = len(program.scalar.instructions)
            if id(program) not in self._generated:
                self._generated[id(program)] = program
                with self.tracer.span("codegen") as gen:
                    kernel = program.kernel(events=True)
                    gen["source_bytes"] = len(kernel.__fused_source__)
            return program


class TracedCircuitCache(_TracedLayers, CircuitCache):
    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self._generated = {}


class TracedStoreCache(_TracedLayers, PersistentCircuitCache):
    """A PersistentCircuitCache whose two tiers and compute are spanned."""

    def __init__(self, tracer: Tracer, root, **kwargs: Any) -> None:
        super().__init__(root, **kwargs)
        self.tracer = tracer
        self._generated = {}

    def load_result(self, family, fingerprint):
        with self.tracer.span("store.load"):
            return super().load_result(family, fingerprint)

    def store_result(self, family, fingerprint, payload):
        with self.tracer.span("store.put"):
            return super().store_result(family, fingerprint, payload)

    def result(self, family, fingerprint, compute: Callable[[], Any]):
        def traced_compute():
            with self.tracer.span("estimate"):
                return compute()

        with self.tracer.span("store.result") as span:
            payload, tier = super().result(family, fingerprint, traced_compute)
            span["tier"] = tier
            return payload, tier


def traced_request_type(tracer: Tracer) -> type:
    """An EstimateRequest whose fingerprint (computed inside
    ``serve_estimate``) is spanned."""

    class TracedRequest(EstimateRequest):
        def fingerprint(self) -> str:
            with tracer.span("api.fingerprint"):
                return super().fingerprint()

    return TracedRequest
