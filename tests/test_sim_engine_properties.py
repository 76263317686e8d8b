"""Property-based tests (hypothesis) for the discrete-event engine.

The vectorised kernel (DESIGN.md §2.13) leans on three engine contracts that
example-based tests only spot-check:

* **dispatch order** — whatever mixture of times, priorities and insertion
  orders is thrown at the heap, events run sorted by ``(time, priority,
  seq)``; the heap's tuple encoding must never consult anything else;
* **lazy cancellation** — cancelled events are skipped silently wherever
  they sit in the heap, never run, never counted, and never perturb the
  order of surviving events;
* **tick fusion** — processes registered into one ``group`` observe exactly
  the ``(now, dt)`` sequence their unfused twins would, in registration
  order, while dispatching as a single event per tick;
* **streams** — a :meth:`~repro.sim.engine.Engine.schedule_stream` batch
  dispatches with exactly the ``(time, priority, seq)`` keys, callbacks and
  later sequence numbers of one ``schedule_at`` call per item.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

# small float times quantised to 0.25 keep plenty of deliberate ties
times = st.integers(min_value=0, max_value=40).map(lambda i: i * 0.25)
priorities = st.integers(min_value=-2, max_value=2)


# --------------------------------------------------------------------------- #
# dispatch order
# --------------------------------------------------------------------------- #
@given(st.lists(st.tuples(times, priorities), min_size=1, max_size=60))
@settings(max_examples=200)
def test_dispatch_follows_time_priority_seq(schedule):
    eng = Engine()
    ran = []
    expected = []
    for seq, (t, prio) in enumerate(schedule):
        eng.schedule_at(t, lambda k=(t, prio, seq): ran.append(k), priority=prio)
        expected.append((t, prio, seq))
    eng.run_until(100.0)
    assert ran == sorted(expected)
    assert eng.events_executed == len(schedule)
    assert eng.pending == 0


@given(st.lists(st.tuples(times, priorities), min_size=1, max_size=40), st.data())
@settings(max_examples=200)
def test_interleaved_scheduling_keeps_global_order(schedule, data):
    """Events scheduled *during* the run still dispatch in global order.

    Every callback logs the ``(time, priority, seq)`` of its own event; the
    dispatch sequence must equal those triples sorted, children included.
    """
    eng = Engine()
    ran = []

    def spawn(t, prio, extra):
        ev = eng.schedule_at(t, lambda: fire(ev, extra), priority=prio)
        return ev

    def fire(ev, extra):
        ran.append((ev.time, ev.priority, ev.seq))
        # children go strictly into the future: an event scheduled at the
        # current instant runs after everything already dispatched regardless
        # of priority, which is correct but outside the sorted-triple model
        if extra is not None and extra[0] > eng.now:
            spawn(extra[0], extra[1], None)

    for t, prio in schedule:
        extra = data.draw(st.none() | st.tuples(times, priorities), label="child")
        spawn(t, prio, extra)
    eng.run_until(100.0)
    assert ran == sorted(ran)
    assert eng.events_executed == len(ran)


@given(st.lists(st.tuples(times, priorities), min_size=2, max_size=60),
       st.data())
@settings(max_examples=200)
def test_cancelled_events_never_run_and_preserve_order(schedule, data):
    eng = Engine()
    ran = []
    events = []
    keys = []
    for seq, (t, prio) in enumerate(schedule):
        key = (t, prio, seq)
        events.append(eng.schedule_at(t, lambda k=key: ran.append(k),
                                      priority=prio))
        keys.append(key)
    doomed = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(events) - 1),
                max_size=len(events) - 1),
        label="cancelled",
    )
    for i in doomed:
        events[i].cancel()
    eng.run_until(100.0)
    survivors = [k for i, k in enumerate(keys) if i not in doomed]
    assert ran == sorted(survivors)
    # cancelled events are not counted as executed
    assert eng.events_executed == len(survivors)


# --------------------------------------------------------------------------- #
# tick fusion
# --------------------------------------------------------------------------- #
@given(
    st.integers(min_value=1, max_value=5),          # members in the group
    st.sampled_from([0.5, 1.0, 2.0]),               # period
    st.sampled_from([0.0, 0.25]),                   # offset
    st.sampled_from([7.0, 10.0]),                   # horizon
)
@settings(max_examples=100)
def test_fused_group_matches_unfused_processes(n_members, period, offset, horizon):
    """Fusion changes event count, never the (name, now, dt) call sequence."""

    def drive(group):
        eng = Engine()
        calls = []
        for i in range(n_members):
            eng.add_process(f"p{i}", period,
                            lambda now, dt, i=i: calls.append((i, now, dt)),
                            offset=offset, group=group)
        eng.run_until(horizon)
        return calls, eng.events_executed

    fused_calls, fused_events = drive("tick")
    plain_calls, plain_events = drive(None)

    assert fused_calls == plain_calls
    ticks = len(fused_calls) // max(n_members, 1)
    # one dispatched event per fused tick vs one per member per tick
    assert fused_events == ticks
    assert plain_events == ticks * n_members


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4))
@settings(max_examples=50)
def test_fused_member_can_stop_later_member_mid_tick(n_members, stopper):
    """A member stopping a later member mid-tick mirrors unfused semantics."""
    stopper = stopper % n_members
    victim = (stopper + 1) % n_members

    def drive(group):
        eng = Engine()
        calls = []
        procs = []

        def make(i):
            def fn(now, dt):
                calls.append((i, now))
                if i == stopper and victim > stopper:
                    procs[victim].stop()
            return fn

        for i in range(n_members):
            procs.append(eng.add_process(f"p{i}", 1.0, make(i), group=group))
        eng.run_until(3.0)
        return calls

    assert drive("g") == drive(None)


def test_same_period_different_offsets_do_not_fuse():
    eng = Engine()
    calls = []
    eng.add_process("a", 1.0, lambda now, dt: calls.append("a"), group="g")
    eng.add_process("b", 1.0, lambda now, dt: calls.append("b"), offset=0.5,
                    group="g")
    eng.run_until(1.6)
    # distinct (group, period, offset) keys -> separate events, phase-shifted
    assert calls == ["a", "b"]
    assert eng.events_executed == 2


# --------------------------------------------------------------------------- #
# streams
# --------------------------------------------------------------------------- #
# what a dispatched callback does: nothing, schedule a child ``dt`` from now,
# schedule a child stream, or cancel one of the cancellable (``schedule_at``)
# events created so far.  Streams run at priority 0, among schedule_at events
# of priorities on both sides of it.
actions = st.one_of(
    st.none(),
    st.tuples(st.just("child"), times, priorities),
    st.tuples(st.just("stream"), st.lists(times, max_size=4)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
)
at_ops = st.tuples(st.just("at"), times, priorities, actions)
stream_ops = st.tuples(st.just("stream"),
                       st.lists(st.tuples(times, actions), max_size=12))


def _run_program(program, streams: bool):
    """Run ``program`` with stream ops as streams, or as per-item schedule_at.

    Returns the dispatch log — the ``(time, priority, seq)`` key of every
    dispatched heap entry, then what its callback logged — and the next
    sequence number the engine hands out.
    """
    eng = Engine()
    log = []
    cancellable = []
    child_ids = itertools.count()

    def stream(items):
        if streams:
            eng.schedule_stream([(t, "stream", fire, a) for t, a in items])
        else:
            for t, a in items:
                eng.schedule_at(t, lambda a=a: fire(a), label="stream")

    def fire(arg):
        name, action = arg
        log.append((name, eng.now))
        if action is None:
            return
        if action[0] == "child":
            _, dt, prio = action
            cancellable.append(eng.schedule_at(
                eng.now + dt, lambda a=(f"c{next(child_ids)}", None): fire(a),
                priority=prio))
        elif action[0] == "stream":
            stream([(eng.now + dt, (f"c{next(child_ids)}", None))
                    for dt in action[1]])
        elif cancellable:
            cancellable[action[1] % len(cancellable)].cancel()

    for i, op in enumerate(program):
        if op[0] == "at":
            _, t, prio, action = op
            cancellable.append(eng.schedule_at(
                t, lambda a=(f"a{i}", action): fire(a), priority=prio))
        else:
            stream([(t, (f"s{i}.{k}", action))
                    for k, (t, action) in enumerate(op[1])])
    while eng.peek_time() is not None:   # peek drops cancelled heads
        log.append(eng._heap[0][:3])
        eng.step()
    return log, eng.schedule_at(eng.now, lambda: None).seq


@given(st.lists(st.one_of(at_ops, stream_ops), min_size=1, max_size=12))
@settings(max_examples=300)
def test_streams_dispatch_as_per_item_schedule_at(program):
    """Unsorted streams with tied times, mixed with schedule_at events whose
    callbacks schedule children and cancel pending events: every dispatched
    key, every callback and the next sequence number match the run that
    schedules each stream item on its own."""
    assert _run_program(program, streams=True) == \
        _run_program(program, streams=False)
