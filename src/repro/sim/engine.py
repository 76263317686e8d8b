"""Discrete-event simulation engine.

A deliberately small, deterministic kernel: events are ``(time, priority, seq)``
ordered in a binary heap, where ``seq`` is a monotonically increasing insertion
counter that guarantees a *stable* order for simultaneous events.  Determinism
of the event order — together with the named RNG streams of
:mod:`repro.sim.rng` — is what makes every experiment in this repository
bit-reproducible.

The engine supports two styles of activity:

* **one-shot callbacks** scheduled with :meth:`Engine.schedule` /
  :meth:`Engine.schedule_at`;
* **periodic processes** (:class:`Process`) registered with
  :meth:`Engine.add_process`, used by continuous subsystems (thermal
  integration, controllers, metric sampling) that advance on a fixed tick.

Periodic processes receive the elapsed ``dt`` so integrators do not need to
track time themselves.

Processes that share a period (and offset) may be **fused** into one batched
dispatch by registering them with the same ``group=`` name: the engine then
pops a single heap event per tick and invokes every member callback in
registration order, instead of popping one event per process.  Fusion is an
engine-level optimisation with a strict ordering contract — member callbacks
run in exactly the order an unfused registration would have run them (see
``tests/test_sim_engine_properties.py``) — and a fused tick counts as one
executed event, because it *is* one event.

One low-level hook supports byte-identical *vectorised* fast paths layered
above the engine (see DESIGN.md §2.13): :meth:`Engine.reserve_seq` advances
the insertion counter without scheduling, so a batched operation can consume
exactly the sequence numbers its scalar equivalent would have consumed — the
live events' ``(time, priority, seq)`` triples, and therefore the dispatch
order, stay identical.

Bulk arrivals go through :meth:`Engine.schedule_stream`: a batch of one-shot
callbacks that dispatches exactly as one :meth:`Engine.schedule_at` call per
item would, but occupies a single heap entry — its earliest undispatched
item — so the heap holds live work, not every future arrival.

The engine optionally carries a profiler (see :mod:`repro.obs`): with one
attached, every dispatched callback's wall-clock time is charged to a label
(the ``label=`` given at scheduling time, or the callback's
``__qualname__``).  Without one (the default) the dispatch loop is exactly
the uninstrumented fast path.  The engine writes no trace records: the
subsystems it dispatches trace their own spans and instants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from operator import itemgetter
from typing import Any, Callable, Iterable, List, Optional, Tuple

__all__ = ["Engine", "Event", "Process", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, priority, seq)``.  Lower ``priority`` runs first
    among simultaneous events; ``seq`` breaks remaining ties by insertion
    order.  ``cancelled`` events stay in the heap but are skipped when popped
    (lazy deletion), which keeps cancellation O(1).
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: Optional[str] = field(default=None, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True


class _Stream:
    """Time-sorted one-shot callbacks sharing one heap entry (their head).

    Duck-types :class:`Event` for the dispatch loop: ``time``, ``seq`` and
    ``label`` describe the earliest undispatched item, and ``callback``
    pushes the next item back onto the heap *before* running the current
    one, so an item that raises leaves the rest of its stream queued.
    """

    __slots__ = ("time", "priority", "seq", "label", "callback", "cancelled",
                 "_heap", "_items")

    def __init__(self, heap: List[tuple], items: List[tuple]):
        self._heap = heap
        # (time, seq, label, fn, arg), latest first: the head is popped off
        # the end, so a dispatched item's memory is released at once
        self._items = items
        self.priority = 0
        self.cancelled = False
        self.callback = self._fire
        self._push_head()

    def _push_head(self) -> None:
        t, seq, label, fn, _arg = self._items[-1]
        self.time = t
        self.seq = seq
        self.label = label or getattr(fn, "__qualname__", "callback")
        heappush(self._heap, (t, self.priority, seq, self))

    def _fire(self) -> None:
        items = self._items
        _t, _seq, _label, fn, arg = items.pop()
        if items:  # _push_head, inline: one push per dispatched item
            t, seq, label, nfn, _arg = items[-1]
            self.time = t
            self.seq = seq
            self.label = label or getattr(nfn, "__qualname__", "callback")
            heappush(self._heap, (t, self.priority, seq, self))
        fn(arg)


class Process:
    """A periodic activity driven by the engine.

    ``fn(now, dt)`` is invoked every ``period`` simulated seconds.  The first
    invocation happens at ``start + period`` (a process observes the interval
    that just elapsed, it does not fire at registration time).
    """

    __slots__ = ("name", "period", "fn", "_last", "active")

    def __init__(self, name: str, period: float, fn: Callable[[float, float], None]):
        if period <= 0:
            raise SimulationError(f"process {name!r}: period must be > 0, got {period}")
        self.name = name
        self.period = float(period)
        self.fn = fn
        self._last: Optional[float] = None
        self.active = True

    def stop(self) -> None:
        """Deactivate the process; it will not be rescheduled."""
        self.active = False


class _ProcessGroup:
    """Same-period processes fused into one batched dispatch (see module doc)."""

    __slots__ = ("name", "members")

    def __init__(self, name: str):
        self.name = name
        self.members: List[Process] = []


class Engine:
    """The simulation event loop.

    Parameters
    ----------
    start:
        Simulation epoch in seconds (default 0.0 = Jan 1, 00:00 in
        :class:`repro.sim.calendar.SimCalendar` terms).
    profiler:
        Optional :class:`repro.obs.Profiler`; when set, each dispatched
        callback's wall-clock time is attributed to its label.

    Notes
    -----
    The engine never advances past the horizon given to :meth:`run_until`;
    events scheduled beyond it remain queued and will run if the horizon is
    extended by a later call.
    """

    def __init__(self, start: float = 0.0, profiler=None):
        self.now: float = float(start)
        # heap entries are (time, priority, seq, Event): the hot-loop
        # comparisons then run on plain tuples in C instead of dispatching
        # Event.__lt__ per sift — seq is unique, so the Event never compares
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []
        self._groups: dict = {}  # (group, period, offset) → _ProcessGroup
        self._events_executed = 0
        self.profiler = profiler

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], None], priority: int = 0,
                 label: Optional[str] = None) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, callback, priority, label=label)

    def schedule_at(self, time: float, callback: Callable[[], None], priority: int = 0,
                    label: Optional[str] = None) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        ``label`` names the event for profiling attribution; unnamed events
        fall back to the callback's ``__qualname__``.
        """
        if not time >= self.now:  # one test catches NaN and the past
            self._reject_time(time)
        # direct slot stores: same object state as Event(...), minus the
        # dataclass argument plumbing on the hottest allocation in the engine
        ev = Event.__new__(Event)
        ev.time = t = float(time)
        ev.priority = priority
        ev.seq = seq = next(self._seq)
        ev.callback = callback
        ev.cancelled = False
        ev.label = label
        heappush(self._heap, (t, priority, seq, ev))
        return ev

    def _reject_time(self, time: float) -> None:
        if math.isnan(time):
            raise SimulationError("cannot schedule event at NaN time")
        raise SimulationError(
            f"cannot schedule event in the past: t={time} < now={self.now}"
        )

    def schedule_stream(self, items: Iterable[Tuple[float, Optional[str],
                                                    Callable[[Any], None], Any]]
                        ) -> None:
        """Schedule ``fn(arg)`` at each item's ``time``, as one heap entry.

        ``items`` are ``(time, label, fn, arg)`` tuples in any order.  The
        dispatch order, ``now`` at each dispatch and every later sequence
        number are exactly those of one ``schedule_at(time, lambda: fn(arg),
        label=label)`` call per item (priority 0), in the order given:

        * every time is checked (NaN, past) before anything is queued, with
          :meth:`schedule_at`'s errors;
        * the items take consecutive sequence numbers in the order given,
          then are stably sorted by time, so each stream is sorted by
          ``(time, seq)``;
        * only the earliest undispatched item sits in the heap.  Every other
          item sorts at or after it, so the heap minimum is still the global
          minimum (a k-way merge) and dispatch order does not change.

        Stream items cannot be cancelled individually.
        """
        now = self.now
        items = list(items)
        for item in items:
            if not item[0] >= now:
                self._reject_time(item[0])
        if not items:
            return
        base = next(self._seq)
        self._seq = itertools.count(base + len(items))
        entries = [(float(t), seq, label, fn, arg)
                   for seq, (t, label, fn, arg) in enumerate(items, base)]
        entries.sort(key=itemgetter(0))  # stable: ties keep seq order
        entries.reverse()
        _Stream(self._heap, entries)

    def reserve_seq(self, n: int = 1) -> None:
        """Advance the insertion counter by ``n`` without scheduling anything.

        Batched fast paths (e.g. :meth:`repro.hardware.server.ComputeServer.
        submit_batch`) call this to consume exactly the sequence numbers their
        scalar equivalents would have consumed on intermediate, immediately
        cancelled events.  The surviving event then carries the same
        ``(time, priority, seq)`` triple either way, which is what keeps the
        vectorised kernel byte-identical to the scalar one.  O(1): the
        counter is re-seeded past the reserved range.
        """
        if n < 0:
            raise SimulationError(f"cannot reserve {n} sequence numbers")
        if n:
            self._seq = itertools.count(next(self._seq) + n)

    def add_process(self, name: str, period: float, fn: Callable[[float, float], None],
                    offset: float = 0.0, group: Optional[str] = None) -> Process:
        """Register a periodic process; see :class:`Process`.

        ``offset`` shifts the process phase: the first invocation happens at
        ``now + offset + period`` and subsequent ones every ``period``.  Use
        distinct offsets to keep independent periodic activities (thermal
        tick, per-district checkpointers, ...) from piling onto the same
        event timestamps.

        ``group`` fuses same-cadence processes: all processes registered with
        the same ``(group, period, offset)`` share **one** heap event per
        tick, and their callbacks run back-to-back in registration order when
        it fires.  A fused tick is one dispatched event (one sequence number,
        one ``events_executed`` increment) regardless of the member count.
        Members registered after the group's first tick join the shared
        cadence: their first ``dt`` is the time since their registration.
        """
        if offset < 0:
            raise SimulationError(f"process {name!r}: offset must be >= 0, got {offset}")
        proc = Process(name, period, fn)
        proc._last = self.now
        self._processes.append(proc)
        if group is None:
            self._schedule_process(proc, extra_delay=offset)
            return proc
        key = (group, proc.period, float(offset))
        grp = self._groups.get(key)
        if grp is None:
            grp = _ProcessGroup(group)
            self._groups[key] = grp
            self._schedule_group(key, grp, proc.period, extra_delay=offset)
        grp.members.append(proc)
        return proc

    def _schedule_process(self, proc: Process, extra_delay: float = 0.0) -> None:
        def tick() -> None:
            if not proc.active:
                return
            dt = self.now - proc._last
            proc._last = self.now
            proc.fn(self.now, dt)
            if proc.active:
                self._schedule_process(proc)

        self.schedule(proc.period + extra_delay, tick, priority=10,
                      label=f"process:{proc.name}")

    def _schedule_group(self, key, grp: _ProcessGroup, period: float,
                        extra_delay: float = 0.0) -> None:
        def tick() -> None:
            # the active check sits inside the loop on purpose: a member may
            # stop a later member mid-tick, exactly as an unfused dispatch
            # would observe (the later event pops, sees inactive, skips)
            for proc in grp.members:
                if not proc.active:
                    continue
                dt = self.now - proc._last
                proc._last = self.now
                proc.fn(self.now, dt)
            if any(p.active for p in grp.members):
                self._schedule_group(key, grp, period)
            else:
                # let a later add_process with the same key start fresh
                self._groups.pop(key, None)

        self.schedule(period + extra_delay, tick, priority=10,
                      label=f"process:{grp.name}")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_until(self, horizon: float) -> None:
        """Execute all events with ``time <= horizon``, then set now=horizon."""
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is before now={self.now}")
        instrumented = self.profiler is not None
        heap = self._heap  # the engine never rebinds its heap
        pop = heappop
        while heap and heap[0][0] <= horizon:
            ev = pop(heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if instrumented:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
        self.now = float(horizon)

    def step_until(self, horizon: float, max_events: Optional[int] = None) -> int:
        """Execute events with ``time <= horizon``, up to ``max_events`` of them.

        The pausable form of :meth:`run_until`: it returns the number of
        callbacks executed, and only advances ``now`` to ``horizon`` once
        every due event has run — when the event budget is exhausted first,
        ``now`` stays at the last executed event's time so a later call (or
        a plain :meth:`run_until`) resumes exactly where this one stopped.

        Determinism contract (DESIGN.md §2.15): any sequence of
        ``step_until`` calls that reaches ``horizon`` executes the same
        events, in the same order, with the same ``now`` at each dispatch,
        as one ``run_until(horizon)`` — pausing is unobservable to the model.
        """
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} is before now={self.now}")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        instrumented = self.profiler is not None
        executed = 0
        while self._heap and self._heap[0][0] <= horizon:
            if max_events is not None and executed >= max_events:
                return executed
            ev = heappop(self._heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if instrumented:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
            executed += 1
        self.now = float(horizon)
        return executed

    def iter_run(self, horizon: float, max_events: int = 1000):
        """Generator-style ticking: drive to ``horizon`` in bounded batches.

        Yields ``(now, executed)`` after each batch of at most ``max_events``
        dispatched callbacks; the consumer may pause arbitrarily long between
        ``next()`` calls (or interleave reads of engine state) and the run
        stays byte-identical to one :meth:`run_until` call — this is the
        engine/IO split the service layer is built on.
        """
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        while True:
            executed = self.step_until(horizon, max_events=max_events)
            yield self.now, executed
            if executed < max_events:
                return

    def step(self) -> bool:
        """Execute the single next event.  Returns False if the queue is empty."""
        while self._heap:
            ev = heappop(self._heap)[3]
            if ev.cancelled:
                continue
            self.now = ev.time
            if self.profiler is not None:
                self._dispatch_instrumented(ev)
            else:
                ev.callback()
            self._events_executed += 1
            return True
        return False

    def _dispatch_instrumented(self, ev: Event) -> None:
        """Run one callback and charge its wall-clock time to its label."""
        label = ev.label or getattr(ev.callback, "__qualname__", "callback")
        t0 = perf_counter()
        ev.callback()
        self.profiler.record(label, perf_counter() - t0)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of queued heap entries, cancelled events included.

        A stream (:meth:`schedule_stream`) counts as one entry however many
        of its items are still undispatched.
        """
        return len(self._heap)

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_executed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the queue is empty."""
        while self._heap and self._heap[0][3].cancelled:
            heappop(self._heap)
        return self._heap[0][0] if self._heap else None
