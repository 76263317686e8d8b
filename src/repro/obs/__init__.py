"""Observability layer: structured tracing, metrics and profiling.

The three pillars (see DESIGN.md, "Observability"):

* :class:`~repro.obs.trace.Tracer` — typed span/event records of what the
  middleware did, exportable to JSONL and Chrome trace-event format;
* :class:`~repro.obs.registry.MetricsRegistry` — named counters / gauges /
  histograms with labels, snapshot/diff support;
* :class:`~repro.obs.profiler.Profiler` — per-subsystem wall-clock accounting
  inside the DES engine.

They travel together as one :class:`Observability` bundle.  Instrumented code
holds an ``obs`` reference and guards every instrumentation site with
``if obs.active:`` — on the default inactive bundle that is a single attribute
read, which keeps uninstrumented runs at full speed and byte-identical output.

Wiring pattern: the CLI (or a test) builds an active bundle and installs it as
the process-wide current one around an experiment run::

    with obs_session(Observability(tracer=Tracer())) as obs:
        result = experiment.run()
    obs.tracer.write_jsonl("trace.jsonl")

:class:`~repro.core.middleware.DF3Middleware` picks up the current bundle at
construction time (or accepts one explicitly), so every experiment becomes
fully instrumented without touching its code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.profiler import Profiler
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import (
    SpanIndex,
    adopt_chain,
    copy_span_context,
    link_spans,
    next_span,
    span_context,
)
from repro.obs.trace import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RingTracer,
    TraceRecord,
    Tracer,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlTracer",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "OBS_OFF",
    "Profiler",
    "RingTracer",
    "SpanIndex",
    "TraceRecord",
    "Tracer",
    "adopt_chain",
    "copy_span_context",
    "get_obs",
    "install",
    "link_spans",
    "obs_session",
    "read_jsonl",
    "span_context",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]


class Observability:
    """One bundle of tracer + metrics registry + profiler.

    Any pillar may be absent: ``Observability(tracer=Tracer())`` traces
    without collecting metrics, ``Observability(registry=MetricsRegistry())``
    collects metrics without tracing, ``Observability()`` is fully inactive.
    """

    __slots__ = ("tracer", "registry", "profiler", "metrics_enabled", "active")

    def __init__(self, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 profiler: Optional[Profiler] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics_enabled = registry is not None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.profiler = profiler
        #: True when any pillar should receive data — the hot-path guard.
        #: Its inputs are set above and never reassigned.
        self.active: bool = (self.tracer.enabled or self.metrics_enabled
                             or profiler is not None)

    # convenience pass-throughs so call sites read `obs.emit(...)` etc.
    def emit(self, kind: str, name: str, ts: float,
             dur: Optional[float] = None, **args: Any) -> None:
        """Emit a trace record (no-op when tracing is off)."""
        self.tracer.emit(kind, name, ts, dur=dur, **args)

    def emit_span(self, kind: str, name: str, ts: float, ctx: Any,
                  dur: Optional[float] = None, **args: Any) -> None:
        """Emit a causally-linked record on ``ctx``'s span chain.

        ``ctx`` is the request (or any carrier with a ``request_id``) whose
        story this event belongs to; the span's parent is the carrier's
        previous span, so consecutive lifecycle events of one request form a
        chain (cross-request links — clones, adoptions — are made explicitly
        via :func:`repro.obs.span.link_spans` / :func:`~repro.obs.span.
        adopt_chain`).  No-op, with no chain allocation, when tracing is off
        or the tracer's kind filter drops ``kind`` — filtered kinds never
        leave dangling parents.
        """
        tracer = self.tracer
        if not tracer.enabled or not tracer.wants(kind):
            return
        c = span_context(ctx)
        span_id, parent_id = next_span(c)
        tracer.emit(kind, name, ts, dur=dur, trace_id=c["trace"],
                    span_id=span_id, parent_id=parent_id, **args)

    def counter(self, name: str, **labels: Any) -> Counter:
        """Counter from this bundle's registry."""
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Gauge from this bundle's registry."""
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Histogram from this bundle's registry."""
        return self.registry.histogram(name, **labels)


#: The inactive default bundle every component falls back to.
OBS_OFF = Observability()

_current: Observability = OBS_OFF


def get_obs() -> Observability:
    """The process-wide current bundle (inactive unless one was installed)."""
    return _current


def install(obs: Observability) -> Observability:
    """Make ``obs`` the current bundle; returns the previous one."""
    global _current
    previous = _current
    _current = obs
    return previous


@contextmanager
def obs_session(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` for the duration of a ``with`` block."""
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)
