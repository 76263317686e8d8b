"""Causal span trees over trace records.

The tracer records *what* happened; this module records *why*.  Every
request-lifecycle event emitted through
:meth:`repro.obs.Observability.emit_span` carries three identity fields:

* ``trace_id`` — the primary request id, shared by every event of the
  request's whole story (a speculative clone shares its primary's trace id);
* ``span_id`` — ``<carrier request id>/<sequence>``, unique per event;
* ``parent_id`` — the span that *caused* this one.

Causality is threaded as a chain per carrier: each new span's parent is the
carrier's previous span.  Cross-carrier hand-offs (primary → clone at
speculation time, clone → primary when the clone's completion wins) are
explicit links made by the resilience runtime via :func:`link_spans` /
:func:`adopt_chain`, so a Perfetto waterfall or a :class:`SpanIndex` tree
shows exactly why a request was slow: gateway admit → queue → placement →
execution → completion, including retries, clones, salvage and
checkpoint-restart.

:class:`SpanIndex` rebuilds the trees from any record iterable (or JSONL
file) and computes per-segment critical-path breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.trace import TraceRecord, read_jsonl

__all__ = [
    "span_context",
    "copy_span_context",
    "link_spans",
    "adopt_chain",
    "Segment",
    "SpanIndex",
]

_CTX = "_trace_ctx"
_CLONE_SUFFIX = "#clone"

#: request-record names that end a request's story
TERMINAL_SUFFIXES = (".completed", ".expired", ".rejected")


def span_context(carrier) -> Dict[str, object]:
    """The carrier's span chain state, created on first use.

    ``carrier`` is any object with a ``request_id`` and an instance
    ``__dict__`` (our request dataclasses).  The context lives in
    ``carrier.__dict__`` so uninstrumented runs never allocate it.
    """
    ctx = carrier.__dict__.get(_CTX)
    if ctx is None:
        rid = carrier.request_id
        trace_id = rid[:-len(_CLONE_SUFFIX)] if rid.endswith(_CLONE_SUFFIX) else rid
        ctx = carrier.__dict__[_CTX] = {
            "trace": trace_id, "base": rid, "seq": 0, "last": None,
        }
    return ctx


def next_span(ctx: Dict[str, object]) -> Tuple[str, Optional[str]]:
    """Allocate the next span id on a chain; returns ``(span_id, parent_id)``."""
    span_id = f"{ctx['base']}/{ctx['seq']}"
    ctx["seq"] = ctx["seq"] + 1  # type: ignore[operator]
    parent = ctx["last"]
    ctx["last"] = span_id
    return span_id, parent  # type: ignore[return-value]


def link_spans(child_carrier, parent_carrier) -> None:
    """Seed ``child_carrier``'s chain to hang off ``parent_carrier``'s tip.

    Used at speculation time: the clone's first span parents to the
    primary's ``edge.cloned`` span, so both execution attempts share one
    tree.  The child also inherits the parent's trace id.
    """
    parent_ctx = span_context(parent_carrier)
    child_ctx = span_context(child_carrier)
    child_ctx["trace"] = parent_ctx["trace"]
    child_ctx["last"] = parent_ctx["last"]


def copy_span_context(dst_carrier, src_carrier) -> None:
    """Give ``dst`` the very chain state ``src`` carries, if it has any.

    This is what a shallow copy of the carrier shares.  The lookup is an
    attribute read, not ``src_carrier.__dict__``, so a carrier that never
    emitted a span is left without a built instance dict.
    """
    ctx = getattr(src_carrier, _CTX, None)
    if ctx is not None:
        setattr(dst_carrier, _CTX, ctx)


def adopt_chain(dst_carrier, src_carrier) -> None:
    """Graft ``src``'s chain tip onto ``dst`` (clone won: primary adopts).

    After this, the next span emitted for ``dst`` parents to ``src``'s last
    span — the completion record of a clone-won request hangs off the
    clone's execution, which is the true cause.  No-op unless ``src`` ever
    emitted a span.
    """
    if _CTX not in src_carrier.__dict__:
        return
    src_ctx = src_carrier.__dict__[_CTX]
    if src_ctx["last"] is None:
        return
    span_context(dst_carrier)["last"] = src_ctx["last"]


@dataclass(frozen=True)
class Segment:
    """One hop of a critical path: the gap between two consecutive spans."""

    label: str       # "received→scheduled"
    start_ts: float
    end_ts: float

    @property
    def dur(self) -> float:
        """Seconds spent in this segment."""
        return self.end_ts - self.start_ts


class SpanIndex:
    """Span trees reconstructed from a trace.

    Feed it any iterable of :class:`TraceRecord` (records without a
    ``span_id`` are ignored); query per-trace trees, terminal outcomes,
    root-reachability and critical-path breakdowns.
    """

    def __init__(self, records: Iterable[TraceRecord]):
        self.spans: Dict[str, TraceRecord] = {}
        self.children: Dict[str, List[str]] = {}
        self.traces: Dict[str, List[str]] = {}   # trace id → span ids, emit order
        for r in records:
            if r.span_id is None or r.trace_id is None:
                continue
            self.spans[r.span_id] = r
            self.traces.setdefault(r.trace_id, []).append(r.span_id)
            if r.parent_id is not None:
                self.children.setdefault(r.parent_id, []).append(r.span_id)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "SpanIndex":
        """Build an index straight from a JSONL trace file."""
        return cls(read_jsonl(path))

    # ------------------------------------------------------------------ #
    # tree queries
    # ------------------------------------------------------------------ #
    def trace_ids(self) -> List[str]:
        """All trace ids seen, in first-appearance order."""
        return list(self.traces)

    def root(self, trace_id: str) -> Optional[TraceRecord]:
        """The trace's root span (no parent, or parent outside the trace)."""
        for sid in self.traces.get(trace_id, ()):
            r = self.spans[sid]
            if r.parent_id is None or r.parent_id not in self.spans:
                return r
        return None

    def terminal(self, trace_id: str) -> Optional[TraceRecord]:
        """The span that ended the story (completed / expired / rejected)."""
        for sid in reversed(self.traces.get(trace_id, [])):
            r = self.spans[sid]
            if r.name.endswith(TERMINAL_SUFFIXES):
                return r
        return None

    def path_to_root(self, span_id: str) -> List[TraceRecord]:
        """Ancestor chain from ``span_id`` up to (and including) its root.

        Returned root-first.  Stops at a missing parent (an incomplete
        trace, e.g. evicted from a flight-recorder ring).
        """
        chain: List[TraceRecord] = []
        seen = set()
        cur: Optional[str] = span_id
        while cur is not None and cur in self.spans and cur not in seen:
            seen.add(cur)
            r = self.spans[cur]
            chain.append(r)
            cur = r.parent_id
        chain.reverse()
        return chain

    def is_complete(self, trace_id: str) -> bool:
        """True when the terminal span is reachable from the trace's root.

        This is the acceptance property: a completed (or terminally failed)
        request whose whole causal story survived collection — every hop
        from the gateway admit through retries/clones/salvage to the end is
        present and linked.
        """
        term = self.terminal(trace_id)
        if term is None or term.span_id is None:
            return False
        chain = self.path_to_root(term.span_id)
        return bool(chain) and chain[0].parent_id is None

    def completeness(self, prefix: str = "edge.") -> Tuple[int, int]:
        """``(complete, total)`` over traces whose terminal name starts with
        ``prefix`` — e.g. the fraction of edge requests with an intact tree."""
        complete = total = 0
        for tid in self.traces:
            term = self.terminal(tid)
            if term is None or not term.name.startswith(prefix):
                continue
            total += 1
            if self.is_complete(tid):
                complete += 1
        return complete, total

    # ------------------------------------------------------------------ #
    # critical path
    # ------------------------------------------------------------------ #
    def critical_path(self, trace_id: str) -> List[Segment]:
        """The causal chain root → terminal as timed segments.

        Each segment spans two consecutive causal events; its duration is
        simulated time spent between them (radio delivery, queueing, retry
        backoff, execution, …).  Empty when the trace has no terminal span.
        """
        term = self.terminal(trace_id)
        if term is None or term.span_id is None:
            return []
        chain = self.path_to_root(term.span_id)
        segments: List[Segment] = []
        for prev, nxt in zip(chain, chain[1:]):
            label = f"{_short(prev.name)}→{_short(nxt.name)}"
            segments.append(Segment(label, prev.ts, nxt.ts))
        return segments

    def breakdown(self, trace_id: str) -> Dict[str, float]:
        """Per-segment seconds of one trace's critical path (summed by label)."""
        out: Dict[str, float] = {}
        for seg in self.critical_path(trace_id):
            out[seg.label] = out.get(seg.label, 0.0) + seg.dur
        return out

    def aggregate_breakdown(self, prefix: str = "edge.") -> Dict[str, float]:
        """Critical-path seconds summed by segment label across matching traces.

        The fleet-wide answer to "where does latency go?" — per-segment
        totals over every trace whose terminal event starts with ``prefix``.
        """
        out: Dict[str, float] = {}
        for tid in self.traces:
            term = self.terminal(tid)
            if term is None or not term.name.startswith(prefix):
                continue
            for seg in self.critical_path(tid):
                out[seg.label] = out.get(seg.label, 0.0) + seg.dur
        return out

    # ------------------------------------------------------------------ #
    # stable JSON summaries (service / client consumption)
    # ------------------------------------------------------------------ #
    def tree_dict(self, trace_id: str) -> Optional[Dict[str, object]]:
        """One trace's span tree as nested JSON-ready dicts.

        Each node carries ``span_id``/``name``/``ts`` (+ ``dur`` when the
        span has one) and its ``children`` in emit order.  Spans whose parent
        never survived collection (ring eviction, kind filters) surface as
        extra roots under a synthetic ``orphans`` list so nothing is silently
        dropped.  Returns None for an unknown trace id.
        """
        span_ids = self.traces.get(trace_id)
        if not span_ids:
            return None
        in_trace = set(span_ids)

        def node(sid: str) -> Dict[str, object]:
            r = self.spans[sid]
            out: Dict[str, object] = {"span_id": sid, "name": r.name, "ts": r.ts}
            if r.dur is not None:
                out["dur"] = r.dur
            out["children"] = [node(c) for c in self.children.get(sid, ())
                               if c in in_trace]
            return out

        roots = [sid for sid in span_ids
                 if self.spans[sid].parent_id is None]
        orphans = [sid for sid in span_ids
                   if self.spans[sid].parent_id is not None
                   and self.spans[sid].parent_id not in self.spans]
        term = self.terminal(trace_id)
        return {
            "trace_id": trace_id,
            "spans": len(span_ids),
            "complete": self.is_complete(trace_id),
            "outcome": term.name if term is not None else None,
            "roots": [node(sid) for sid in roots],
            "orphans": [node(sid) for sid in orphans],
        }

    def critical_path_dict(self, trace_id: str) -> List[Dict[str, float]]:
        """The critical path as JSON-ready segment rows (root → terminal)."""
        return [{"label": seg.label, "start_ts": seg.start_ts,
                 "end_ts": seg.end_ts, "dur": seg.dur}
                for seg in self.critical_path(trace_id)]

    def to_dict(self, prefix: str = "edge.", slowest_n: int = 5) -> Dict[str, object]:
        """Whole-index summary: counts, completeness, latency breakdown.

        The stable JSON the service's ``/api/spans`` endpoint returns — the
        same facts the HTML report renders, consumable without scraping:
        trace/span totals, causal completeness over ``prefix``-terminated
        stories, the aggregate critical-path breakdown, and the ``slowest_n``
        worst end-to-end requests with their full critical paths.
        """
        complete, total = self.completeness(prefix)
        slowest = []
        for tid in self.slowest(slowest_n, prefix):
            term = self.terminal(tid)
            path = self.critical_path_dict(tid)
            total_s = (path[-1]["end_ts"] - path[0]["start_ts"]) if path else 0.0
            slowest.append({
                "trace_id": tid,
                "outcome": term.name if term is not None else None,
                "total_s": total_s,
                "critical_path": path,
            })
        return {
            "traces": len(self.traces),
            "spans": len(self.spans),
            "prefix": prefix,
            "completeness": {"complete": complete, "total": total},
            "aggregate_breakdown": self.aggregate_breakdown(prefix),
            "slowest": slowest,
        }

    def slowest(self, n: int = 5, prefix: str = "edge.") -> List[str]:
        """Trace ids of the ``n`` longest end-to-end stories (worst first)."""
        scored: List[Tuple[float, str]] = []
        for tid in self.traces:
            term = self.terminal(tid)
            if term is None or not term.name.startswith(prefix):
                continue
            chain = self.path_to_root(term.span_id)  # type: ignore[arg-type]
            if not chain:
                continue
            scored.append((term.ts - chain[0].ts, tid))
        scored.sort(key=lambda s: (-s[0], s[1]))
        return [tid for _, tid in scored[:n]]


def _short(name: str) -> str:
    """``edge.received`` → ``received`` (segment labels drop the flow)."""
    return name.split(".", 1)[-1]
