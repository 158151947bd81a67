"""Request-scoped spans: causal tracing across the whole serving stack.

The obs bus (:mod:`repro.obs.bus`) answers *what happened inside one
simulated machine*; this module answers *where one request's wall-clock
time went* as it crosses the serving stack's process boundaries —
service event loop → supervised worker process → engine run.  The span
model is the Dapper one:

* :class:`SpanContext` — the propagated identity: a ``trace_id`` shared
  by every span of one request, a ``span_id`` unique to the span, and
  the ``parent_id`` that makes the tree.  Contexts serialize to plain
  dicts so they can ride a journal record, a pipe message, or a pool
  submission;
* :class:`Span` — one named, timed operation.  Monotonic-microsecond
  timestamps (comparable across ``fork`` children on the same host),
  free-form attributes, point-in-time *events* (retries, breaker
  transitions, journal replay), and *links* to other traces (a
  coalesced follower links to the leader's trace it piggybacks on);
* :class:`Tracer` — the factory and collector.  ``start_span`` returns
  a context-manager span; finished spans accumulate on the tracer, and
  :meth:`Tracer.adopt` merges spans that finished in *another* process
  (shipped home as dicts).  :meth:`Tracer.to_perfetto` renders the
  merged set through the shared :class:`repro.obs.export.ChromeTrace`
  writer as one file — service wall-clock tracks and per-worker tracks
  side by side — that :func:`repro.obs.export.validate_perfetto`
  accepts.

Zero-overhead contract, same as the bus: components hold a tracer *or*
``None``, and an instrumented call site costs one ``is None`` test when
tracing is off.  Code that cannot take a tracer parameter (the engine
driver, deep inside a worker) reads the ambient scope instead:
:func:`trace_scope` binds a ``(tracer, parent_context)`` pair to a
:class:`contextvars.ContextVar` and :func:`current_scope` reads it back
— one context-variable lookup when tracing is off, nothing else.

Thread-safety: ``start_span``/``end`` only ever *append* to the
tracer's finished-list (atomic under the GIL), so the serving layer may
finish spans from its event loop while job threads finish runner
spans on the same tracer.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.export import ChromeTrace, write_trace


def _now_us() -> int:
    """Monotonic microseconds — the span clock.  CLOCK_MONOTONIC is
    shared by ``fork`` children on Linux, so parent- and worker-side
    timestamps land on one comparable timeline."""
    return time.monotonic_ns() // 1000


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class SpanContext:
    """The serializable identity of one span (what crosses boundaries)."""

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(self, trace_id: str, span_id: str,
                 parent_id: Optional[str] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    @classmethod
    def new_root(cls, trace_id: Optional[str] = None) -> "SpanContext":
        return cls(trace_id or _new_id(8), _new_id(4))

    def child(self) -> "SpanContext":
        return SpanContext(self.trace_id, _new_id(4), self.span_id)

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanContext":
        return cls(str(data["trace_id"]), str(data["span_id"]),
                   data.get("parent_id"))  # type: ignore[arg-type]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SpanContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.parent_id == other.parent_id)

    def __repr__(self) -> str:
        return (f"<SpanContext {self.trace_id}/{self.span_id}"
                f"{' <- ' + self.parent_id if self.parent_id else ''}>")


class Span:
    """One named, timed operation in a trace tree.

    Usable as a context manager (``with tracer.start_span(...)``) or
    ended explicitly with :meth:`end` — the serving layer does the
    latter because a request span opens at admission and closes at
    resolution, two different callbacks.  ``end`` is idempotent.
    """

    __slots__ = ("name", "context", "track", "start_us", "end_us",
                 "attrs", "events", "links", "_sink")

    def __init__(self, name: str, context: SpanContext, track: str,
                 start_us: int, attrs: Optional[Dict[str, object]] = None,
                 links: Iterable[SpanContext] = (), sink=None):
        self.name = name
        self.context = context
        self.track = track
        self.start_us = start_us
        self.end_us: Optional[int] = None
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[Tuple[int, str, Dict[str, object]]] = []
        self.links: List[SpanContext] = list(links)
        self._sink = sink

    # ------------------------------------------------------------------
    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> "Span":
        """Record a point-in-time annotation (retry, breaker trip, ...)."""
        self.events.append((_now_us(), name, attrs))
        return self

    def link(self, context: SpanContext) -> "Span":
        """Link another trace (e.g. a coalesced leader's context)."""
        self.links.append(context)
        return self

    def end(self, at_us: Optional[int] = None) -> "Span":
        if self.end_us is None:
            self.end_us = at_us if at_us is not None else _now_us()
            if self._sink is not None:
                self._sink(self)
        return self

    @property
    def duration_us(self) -> int:
        end = self.end_us if self.end_us is not None else _now_us()
        return max(0, end - self.start_us)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.event("error", type=exc_type.__name__, message=str(exc))
        self.end()

    # ------------------------------------------------------------------
    # Serialization (workers ship finished spans home as dicts)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "context": self.context.to_dict(),
            "track": self.track,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": self.attrs,
            "events": [[ts, name, attrs] for ts, name, attrs in self.events],
            "links": [link.to_dict() for link in self.links],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(str(data["name"]),
                   SpanContext.from_dict(data["context"]),  # type: ignore
                   str(data.get("track", "remote")),
                   int(data["start_us"]),  # type: ignore[arg-type]
                   attrs=dict(data.get("attrs") or {}),
                   links=[SpanContext.from_dict(link)
                          for link in data.get("links") or []])
        span.end_us = data.get("end_us")  # type: ignore[assignment]
        span.events = [(int(ts), str(name), dict(attrs))
                       for ts, name, attrs in data.get("events") or []]
        return span

    def __repr__(self) -> str:
        state = (f"{self.duration_us}us" if self.end_us is not None
                 else "open")
        return f"<Span {self.name} {self.context.trace_id} {state}>"


class _NoopSpan:
    """Inert span for call sites that want a span object unconditionally
    (``span = tracer.start_span(...) if tracer else NOOP_SPAN``).  Every
    method is a self-returning no-op; truthiness is False."""

    __slots__ = ()
    context = SpanContext("0" * 16, "0" * 8)
    name = "noop"

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> "_NoopSpan":
        return self

    def link(self, context) -> "_NoopSpan":
        return self

    def end(self, at_us=None) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def __bool__(self) -> bool:
        return False


#: the shared inert span (one instance; it carries no state)
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Factory + collector for one process's spans.

    ``track`` names the Perfetto process-track the spans render on —
    the service uses ``"service"``, each worker ``"worker-<pid>"``.
    """

    def __init__(self, track: str = "service", run_label: str = "repro"):
        self.track = track
        self.run_label = run_label
        self.finished: List[Span] = []

    # ------------------------------------------------------------------
    def start_span(self, name: str,
                   parent: Optional[Union[Span, SpanContext]] = None,
                   trace_id: Optional[str] = None,
                   track: Optional[str] = None,
                   links: Iterable[SpanContext] = (),
                   **attrs) -> Span:
        """Open a span.  ``parent`` (a Span or SpanContext) nests it;
        ``trace_id`` forces the trace identity of a new root (how a
        recovered job keeps its pre-crash trace_id)."""
        if isinstance(parent, Span):
            parent = parent.context
        if parent is not None:
            context = parent.child()
        else:
            context = SpanContext.new_root(trace_id)
        return Span(name, context, track or self.track, _now_us(),
                    attrs=attrs, links=links, sink=self.finished.append)

    def adopt(self, span_dicts: Iterable[Dict[str, object]]) -> int:
        """Merge spans that finished in another process; returns the
        number adopted.  Malformed entries are skipped, not fatal — a
        worker's trace payload must never fail its result."""
        adopted = 0
        for blob in span_dicts or ():
            try:
                self.finished.append(Span.from_dict(blob))
                adopted += 1
            except (KeyError, TypeError, ValueError):
                continue
        return adopted

    def spans(self) -> List[Span]:
        return list(self.finished)

    def span_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.finished]

    def __len__(self) -> int:
        return len(self.finished)

    # ------------------------------------------------------------------
    # Perfetto rendering (merged view: one pid per track)
    # ------------------------------------------------------------------
    def to_perfetto(self, run_label: Optional[str] = None) -> dict:
        """The merged Chrome-trace dict.

        Tracks become processes (pid per track name, service first);
        within a track, each trace_id gets its own thread row so
        concurrent requests stack instead of overlapping.  Spans render
        as ``X`` slices, span events as thread-scoped ``i`` instants;
        timestamps are normalized so the earliest span starts at 0.
        """
        spans = [span for span in self.finished if span.end_us is not None]
        t0 = min((span.start_us for span in spans), default=0)
        trace = ChromeTrace()
        for span in sorted(spans, key=lambda s: s.start_us):
            pid, tid = trace.thread(span.track,
                                    f"trace {span.context.trace_id}")
            args: Dict[str, object] = dict(span.attrs)
            args.update(span.context.to_dict())
            if span.links:
                args["links"] = [link.to_dict() for link in span.links]
            trace.events.append({
                "name": span.name, "cat": span.name, "ph": "X",
                "ts": span.start_us - t0,
                "dur": max(0, span.end_us - span.start_us),
                "pid": pid, "tid": tid, "args": args})
            for ts, name, attrs in span.events:
                event_args = dict(attrs)
                event_args["span"] = span.name
                event_args["trace_id"] = span.context.trace_id
                trace.events.append({
                    "name": name, "cat": f"{span.name}.event", "ph": "i",
                    "s": "t", "ts": max(0, ts - t0),
                    "pid": pid, "tid": tid, "args": event_args})
        return trace.as_dict({"producer": "repro.obs.trace",
                              "run": run_label or self.run_label,
                              "clock": "monotonic microseconds"})

    def write(self, path: Union[str, Path],
              run_label: Optional[str] = None) -> Path:
        return write_trace(self.to_perfetto(run_label), path)

    def __repr__(self) -> str:
        return f"<Tracer track={self.track} finished={len(self.finished)}>"


# ----------------------------------------------------------------------
# Ambient scope: how code without a tracer parameter participates
# ----------------------------------------------------------------------
_SCOPE: "contextvars.ContextVar[Optional[Tuple[Tracer, Optional[SpanContext]]]]" \
    = contextvars.ContextVar("repro_obs_trace_scope", default=None)


def current_scope() -> Optional[Tuple[Tracer, Optional[SpanContext]]]:
    """The ambient ``(tracer, parent_context)`` pair, or ``None`` when
    tracing is off — the single test on every instrumented fast path."""
    return _SCOPE.get()


@contextlib.contextmanager
def trace_scope(tracer: Tracer, parent: Optional[Union[Span, SpanContext]] = None):
    """Bind an ambient tracer (and parent) for the duration of a block.

    The worker child wraps its whole run in one scope so engine-side
    phases (:func:`repro.experiments.driver.run_mode`) nest under the
    request without any signature change."""
    if isinstance(parent, Span):
        parent = parent.context
    token = _SCOPE.set((tracer, parent))
    try:
        yield tracer
    finally:
        _SCOPE.reset(token)
