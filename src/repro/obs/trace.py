"""Structured tracing for DF3 runs.

A trace is an append-only sequence of :class:`TraceRecord` — typed, timestamped
facts about what happened inside the simulator: request lifecycle transitions
(``edge.received`` → ``edge.admitted`` → ``edge.queued`` → ``edge.scheduled``
→ ``edge.completed``), regulator actions, fault injections, recovery and
policy decisions, periodic samples.  Records carry *simulated* time, so a
trace is as deterministic as the run that produced it.

Records may additionally carry **causal identity** (``trace_id`` / ``span_id``
/ ``parent_id``): every lifecycle event of one request shares the request's
trace id and points at the event that caused it, including the resilience
paths (retry, speculative clone, salvage, checkpoint-restart).  The span
machinery lives in :mod:`repro.obs.span`; plain point events simply leave the
three fields ``None``.

Tracer flavours:

* :class:`Tracer` — collects records in memory; export with
  :func:`write_jsonl` (one JSON object per line) or
  :func:`write_chrome_trace` (the Chrome ``chrome://tracing`` / Perfetto
  trace-event format).
* :class:`JsonlTracer` — streaming collector: records spill to a JSONL file
  incrementally once an in-memory buffer fills, so peak memory is O(buffer)
  regardless of run size (the E14-scale mode).
* :class:`RingTracer` — flight recorder: a bounded ring keeps only the most
  recent records (the "what just happened before it went wrong" mode).
* :class:`NullTracer` — the zero-overhead default.  ``enabled`` is False and
  :meth:`~NullTracer.emit` is a no-op, so instrumentation sites guarded by
  ``if obs.active:`` cost one attribute check on uninstrumented runs.

Every tracer accepts a ``kinds`` allowlist; records of other kinds are
dropped *before* construction (and before span-id allocation, so causal
chains never dangle through a filtered-out span of an allowed kind).

Argument values are sanitised at :meth:`Tracer.emit` time — numpy scalars
unwrap to Python numbers and arrays to lists — so JSONL round-trips preserve
numeric types instead of silently stringifying ``np.float64`` the way a
``default=str`` exporter would.

Canonical record kinds (``TraceRecord.kind``): ``request``, ``regulator``,
``fault``, ``resilience``, ``policy`` (recovery policy-engine decisions:
clone spawn/skip, sibling cancellation, adaptive per-flow switches),
``sample`` (per-tick ``comfort.sample`` / ``fleet.sample`` gauges), ``slo``,
``surrogate`` and ``runner`` (sweep task-graph nodes).  Kinds are
open-ended — new subsystems may add their own — but exporters group by
kind, so reuse these when they fit.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

import numpy as np

__all__ = [
    "TraceRecord",
    "Tracer",
    "JsonlTracer",
    "RingTracer",
    "NullTracer",
    "NULL_TRACER",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]


def _sanitize(value: Any) -> Any:
    """Unwrap numpy scalars/arrays so trace args stay JSON-native numbers."""
    if type(value) in (int, float, str, bool) or value is None:
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


@dataclass
class TraceRecord:
    """One observed fact.

    ``ts`` is simulated seconds; ``dur`` (also simulated seconds) turns the
    record into a span — e.g. the service time of a completed request.
    ``args`` holds free-form structured payload (request ids, room names,
    worker names, …).

    ``trace_id``/``span_id``/``parent_id`` are the optional causal identity:
    all events of one request's lifecycle share a ``trace_id`` (the primary
    request id), each carries its own ``span_id``, and ``parent_id`` names
    the span that caused this one — across retries, speculative clones and
    crash salvage, so :class:`repro.obs.span.SpanIndex` can rebuild the whole
    causal story as one tree.
    """

    ts: float
    kind: str
    name: str
    args: Dict[str, Any] = field(default_factory=dict)
    dur: Optional[float] = None
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form used by the JSONL exporter."""
        out: Dict[str, Any] = {"ts": self.ts, "kind": self.kind, "name": self.name}
        if self.dur is not None:
            out["dur"] = self.dur
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceRecord":
        """Inverse of :meth:`to_dict`."""
        dur = d.get("dur")
        return cls(
            ts=float(d["ts"]),
            kind=str(d["kind"]),
            name=str(d["name"]),
            args=dict(d.get("args", {})),
            dur=None if dur is None else float(dur),
            trace_id=d.get("trace_id"),
            span_id=d.get("span_id"),
            parent_id=d.get("parent_id"),
        )


class Tracer:
    """In-memory collector of :class:`TraceRecord`.

    The ``enabled`` class attribute is the fast-path switch: instrumentation
    reads it (via ``Observability.active``) before building any record, so a
    disabled tracer costs nothing on hot paths.

    ``kinds`` optionally restricts collection to an allowlist of record
    kinds (``{"request", "fault"}``); everything else is dropped at emit
    time, before any record object exists.
    """

    enabled = True

    def __init__(self, kinds: Optional[Iterable[str]] = None) -> None:
        self.records: List[TraceRecord] = []
        self.kinds: Optional[frozenset] = (
            frozenset(kinds) if kinds is not None else None
        )
        self.total_emitted = 0

    def wants(self, kind: str) -> bool:
        """Whether records of ``kind`` pass this tracer's allowlist."""
        return self.kinds is None or kind in self.kinds

    def emit(self, kind: str, name: str, ts: float,
             dur: Optional[float] = None,
             trace_id: Optional[str] = None,
             span_id: Optional[str] = None,
             parent_id: Optional[str] = None,
             **args: Any) -> None:
        """Append one record at simulated time ``ts``."""
        if self.kinds is not None and kind not in self.kinds:
            return
        if args:
            args = {k: _sanitize(v) for k, v in args.items()}
        self.total_emitted += 1
        self._append(TraceRecord(float(ts), kind, name, args,
                                 None if dur is None else float(dur),
                                 trace_id, span_id, parent_id))

    def _append(self, record: TraceRecord) -> None:
        self.records.append(record)

    def absorb(self, records: Iterable[TraceRecord]) -> int:
        """Fold already-built records in (worker → parent trace merge-back).

        The allowlist still applies; returns the number of records kept.
        Records are appended in the order given — callers merge workers in
        deterministic points order, so repeated merges are reproducible.
        """
        kept = 0
        for r in records:
            if self.kinds is not None and r.kind not in self.kinds:
                continue
            self.total_emitted += 1
            self._append(r)
            kept += 1
        return kept

    def iter_records(self) -> Iterator[TraceRecord]:
        """All retained records, in emit order (spilled ones included)."""
        return iter(self.records)

    def tail(self, n: int) -> List[TraceRecord]:
        """The most recent ``n`` retained records, oldest first.

        Non-destructive: unlike :meth:`iter_records` on the streaming
        tracers, tailing neither flushes nor rewinds anything, so a live
        consumer (the service layer's SSE feed) can poll it repeatedly while
        the engine thread keeps emitting.  A list slice is atomic under the
        GIL, so no lock is needed here; :class:`RingTracer` overrides this
        with a locked copy because deque iteration is not.
        """
        if n < 1:
            return []
        return self.records[-n:]

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
        self.total_emitted = 0

    def counts_by_kind(self) -> Dict[str, int]:
        """Record count per ``kind`` — the trace's table of contents."""
        out: Dict[str, int] = {}
        for r in self.iter_records():
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def write_jsonl(self, path: str | Path) -> Path:
        """Export this tracer's records as JSONL; see :func:`write_jsonl`."""
        return write_jsonl(self.iter_records(), path)

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Export in Chrome trace-event format; see :func:`write_chrome_trace`."""
        return write_chrome_trace(self.iter_records(), path)


class JsonlTracer(Tracer):
    """Streaming tracer: records spill to ``path`` as JSONL incrementally.

    At most ``buffer_records`` records are ever held in memory; once the
    buffer fills it is appended to the file and cleared, so an E14-scale run
    can be traced with O(buffer) tracer memory.  ``peak_buffered`` records
    the high-water mark (asserted bounded in tests).

    Call :meth:`flush` (or any export method) to make the file complete; the
    destructor flushes too, but explicit is better at the end of a run.
    """

    def __init__(self, path: str | Path, buffer_records: int = 4096,
                 kinds: Optional[Iterable[str]] = None) -> None:
        super().__init__(kinds=kinds)
        if buffer_records < 1:
            raise ValueError(f"buffer_records must be >= 1, got {buffer_records}")
        self.path = Path(path)
        self.buffer_records = buffer_records
        self.spilled = 0
        self.peak_buffered = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")  # truncate any stale file
        self._counts: Dict[str, int] = {}

    def _append(self, record: TraceRecord) -> None:
        self.records.append(record)
        self._counts[record.kind] = self._counts.get(record.kind, 0) + 1
        if len(self.records) > self.peak_buffered:
            self.peak_buffered = len(self.records)
        if len(self.records) >= self.buffer_records:
            self.flush()

    def flush(self) -> None:
        """Spill the in-memory buffer to the file."""
        if not self.records:
            return
        with self.path.open("a", encoding="utf-8") as f:
            for r in self.records:
                f.write(json.dumps(r.to_dict(), sort_keys=True))
                f.write("\n")
        self.spilled += len(self.records)
        self.records.clear()

    def __len__(self) -> int:
        return self.spilled + len(self.records)

    def counts_by_kind(self) -> Dict[str, int]:
        """Counts over everything emitted, spilled records included."""
        return dict(self._counts)

    def iter_records(self) -> Iterator[TraceRecord]:
        """Replay the full trace: spilled records from disk, then the buffer.

        Loads the spilled portion back — use for post-run analysis (SLO
        evaluation, reports), not on the hot path.
        """
        self.flush()
        return iter(read_jsonl(self.path))

    def tail(self, n: int) -> List[TraceRecord]:
        """Most recent ``n`` records still buffered in memory, oldest first.

        Non-destructive and disk-free: the slice covers only the unspilled
        buffer (at most ``buffer_records`` entries), never triggers a flush,
        and never reads the file back — so a live consumer can poll it while
        the engine thread streams.  Right after a spill the buffer (and so
        the tail) is briefly short; callers wanting the complete history use
        :meth:`iter_records`.
        """
        if n < 1:
            return []
        return self.records[-n:]

    def clear(self) -> None:
        super().clear()
        self.spilled = 0
        self._counts.clear()
        self.path.write_text("", encoding="utf-8")

    def write_jsonl(self, path: str | Path) -> Path:
        """Finalise the stream; copy only if ``path`` differs from the sink."""
        self.flush()
        path = Path(path)
        if path.resolve() != self.path.resolve():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(self.path.read_bytes())
        return path

    def __del__(self) -> None:  # best-effort: never lose buffered records
        try:
            self.flush()
        except Exception:
            pass


class RingTracer(Tracer):
    """Flight recorder: keeps only the most recent ``capacity`` records.

    Memory is O(capacity) no matter how long the run; ``total_emitted``
    still counts everything that passed the kind filter, so
    ``total_emitted - len(self)`` is the number of evicted records.
    """

    def __init__(self, capacity: int = 65536,
                 kinds: Optional[Iterable[str]] = None) -> None:
        super().__init__(kinds=kinds)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records = deque(maxlen=capacity)  # type: ignore[assignment]
        # deque iteration raises RuntimeError when the deque mutates under
        # it, so cross-thread reads (tail, iter_records from the service
        # layer) must copy under this lock while the engine thread appends
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        # locks don't pickle; drop it and rebuild on the receiving side
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _append(self, record: TraceRecord) -> None:
        with self._lock:
            self.records.append(record)

    def tail(self, n: int) -> List[TraceRecord]:
        """Most recent ``n`` ring entries, oldest first; thread-safe copy."""
        if n < 1:
            return []
        with self._lock:
            records = list(self.records)
        return records[-n:]

    def iter_records(self) -> Iterator[TraceRecord]:
        """Snapshot of the ring, in emit order (thread-safe copy)."""
        with self._lock:
            return iter(list(self.records))

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
        self.total_emitted = 0


class NullTracer(Tracer):
    """The do-nothing tracer: observability off (the default)."""

    enabled = False

    def emit(self, kind: str, name: str, ts: float,
             dur: Optional[float] = None,
             trace_id: Optional[str] = None,
             span_id: Optional[str] = None,
             parent_id: Optional[str] = None,
             **args: Any) -> None:
        """Discard the record."""


#: Shared inert tracer; safe to use from any number of middlewares at once
#: because it holds no state.
NULL_TRACER = NullTracer()


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #
def write_jsonl(records: Iterable[TraceRecord], path: str | Path) -> Path:
    """Write records as JSON Lines (one record object per line).

    Serialisation is strict (no ``default=`` escape hatch): args are
    sanitised at emit time, so anything unserialisable here is a bug worth
    surfacing rather than silently stringifying.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r.to_dict(), sort_keys=True))
            f.write("\n")
    return path


def read_jsonl(path: str | Path) -> List[TraceRecord]:
    """Load a JSONL trace back into records (for analysis and tests)."""
    out: List[TraceRecord] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(TraceRecord.from_dict(json.loads(line)))
    return out


def to_chrome_trace(records: Iterable[TraceRecord]) -> Dict[str, Any]:
    """Render records as a Chrome trace-event JSON object.

    Loadable in ``chrome://tracing`` and https://ui.perfetto.dev.  Each record
    kind becomes one named thread (pid 1); records with ``dur`` become
    complete-duration events (``ph="X"``), the rest instant events
    (``ph="i"``).  Timestamps are microseconds of *simulated* time.  Causal
    identity, when present, rides along in the event args (``trace_id`` /
    ``span_id`` / ``parent_id``) so a Perfetto query can regroup by request.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}
    for r in records:
        tid = tids.get(r.kind)
        if tid is None:
            tid = tids[r.kind] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": r.kind},
            })
        ev_args = r.args
        if r.trace_id is not None:
            ev_args = dict(r.args)
            ev_args["trace_id"] = r.trace_id
            if r.span_id is not None:
                ev_args["span_id"] = r.span_id
            if r.parent_id is not None:
                ev_args["parent_id"] = r.parent_id
        ev: Dict[str, Any] = {
            "name": r.name, "cat": r.kind, "pid": 1, "tid": tid,
            "ts": r.ts * 1e6, "args": ev_args,
        }
        if r.dur is not None:
            ev["ph"] = "X"
            ev["dur"] = r.dur * 1e6
        else:
            ev["ph"] = "i"
            ev["s"] = "t"
        events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[TraceRecord], path: str | Path) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(records)), encoding="utf-8")
    return path
