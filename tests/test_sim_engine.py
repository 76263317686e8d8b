"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_events_run_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, lambda: order.append("b"))
    eng.schedule(1.0, lambda: order.append("a"))
    eng.schedule(9.0, lambda: order.append("c"))
    eng.run_until(10.0)
    assert order == ["a", "b", "c"]
    assert eng.now == 10.0


def test_simultaneous_events_stable_insertion_order():
    eng = Engine()
    order = []
    for i in range(20):
        eng.schedule(3.0, lambda i=i: order.append(i))
    eng.run_until(3.0)
    assert order == list(range(20))


def test_priority_breaks_ties_before_insertion_order():
    eng = Engine()
    order = []
    eng.schedule(1.0, lambda: order.append("low"), priority=5)
    eng.schedule(1.0, lambda: order.append("high"), priority=0)
    eng.run_until(2.0)
    assert order == ["high", "low"]


def test_schedule_in_past_raises():
    eng = Engine(start=100.0)
    with pytest.raises(SimulationError):
        eng.schedule_at(50.0, lambda: None)


def test_schedule_nan_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(float("nan"), lambda: None)


def test_horizon_before_now_raises():
    eng = Engine(start=10.0)
    with pytest.raises(SimulationError):
        eng.run_until(5.0)


def test_cancelled_event_does_not_run():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, lambda: fired.append(1))
    ev.cancel()
    eng.run_until(2.0)
    assert fired == []
    assert eng.events_executed == 0


def test_events_beyond_horizon_survive_and_run_later():
    eng = Engine()
    fired = []
    eng.schedule(10.0, lambda: fired.append(1))
    eng.run_until(5.0)
    assert fired == []
    eng.run_until(15.0)
    assert fired == [1]


def test_event_can_schedule_followups():
    eng = Engine()
    times = []

    def chain():
        times.append(eng.now)
        if len(times) < 4:
            eng.schedule(2.0, chain)

    eng.schedule(1.0, chain)
    eng.run_until(100.0)
    assert times == [1.0, 3.0, 5.0, 7.0]


def test_periodic_process_receives_dt():
    eng = Engine()
    ticks = []
    eng.add_process("p", period=10.0, fn=lambda now, dt: ticks.append((now, dt)))
    eng.run_until(35.0)
    assert ticks == [(10.0, 10.0), (20.0, 10.0), (30.0, 10.0)]


def test_process_stop_halts_rescheduling():
    eng = Engine()
    ticks = []
    proc = eng.add_process("p", period=1.0, fn=lambda now, dt: ticks.append(now))
    eng.run_until(3.0)
    proc.stop()
    eng.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_process_invalid_period_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.add_process("bad", period=0.0, fn=lambda now, dt: None)


def test_step_executes_single_event():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(2.0, lambda: fired.append("b"))
    assert eng.step() is True
    assert fired == ["a"]
    assert eng.now == 1.0
    assert eng.step() is True
    assert eng.step() is False


def test_peek_time_skips_cancelled():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev.cancel()
    assert eng.peek_time() == 2.0


def test_pending_counts_queue():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.pending == 2
    eng.run_until(1.5)
    assert eng.pending == 1


def test_reserve_seq_zero_is_a_no_op():
    eng = Engine()
    first = eng.schedule(1.0, lambda: None).seq
    eng.reserve_seq(0)
    assert eng.schedule(1.0, lambda: None).seq == first + 1
    assert eng.pending == 2


def test_reserve_seq_skips_exactly_n():
    eng = Engine()
    next_seq = eng.schedule(1.0, lambda: None).seq + 1
    for n in (1, 2, 7, 100_000):
        eng.reserve_seq(n)
        seq = eng.schedule(1.0, lambda: None).seq
        assert seq == next_seq + n
        next_seq = seq + 1
    eng.reserve_seq()                       # default: one
    assert eng.schedule(1.0, lambda: None).seq == next_seq + 1


def test_reserve_seq_keeps_insertion_order_of_ties():
    eng = Engine()
    order = []
    eng.schedule(1.0, lambda: order.append("a"))
    eng.reserve_seq(5)
    eng.schedule(1.0, lambda: order.append("b"))
    eng.run_until(1.0)
    assert order == ["a", "b"]
    assert eng.events_executed == 2


def test_reserve_seq_negative_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.reserve_seq(-1)
    assert eng.schedule(1.0, lambda: None).seq == 0   # nothing consumed


def test_stream_dispatches_sorted_and_counts_as_one_entry():
    eng = Engine()
    order = []
    eng.schedule_stream([(3.0, "x", order.append, "c"),
                         (1.0, "x", order.append, "a"),
                         (3.0, "x", order.append, "d"),
                         (2.0, "x", order.append, "b")])
    assert eng.pending == 1
    assert eng.schedule(0.0, lambda: None).seq == 4   # items took seqs 0-3
    eng.run_until(5.0)
    assert order == ["a", "b", "c", "d"]
    assert eng.events_executed == 5
    assert eng.pending == 0


def test_raising_stream_item_leaves_next_item_queued():
    eng = Engine()
    ran = []

    def boom(arg):
        raise RuntimeError(arg)

    eng.schedule_stream([(1.0, None, boom, "first"),
                         (2.0, None, ran.append, "second")])
    with pytest.raises(RuntimeError, match="first"):
        eng.run_until(5.0)
    assert eng.pending == 1
    assert eng.peek_time() == 2.0
    eng.run_until(5.0)
    assert ran == ["second"]


@pytest.mark.parametrize("bad, match", [(float("nan"), "NaN"), (50.0, "past")])
def test_stream_rejects_bad_time_before_queuing_anything(bad, match):
    eng = Engine(start=100.0)
    with pytest.raises(SimulationError, match=match):
        eng.schedule_stream([(150.0, None, print, 1), (bad, None, print, 2),
                             (160.0, None, print, 3)])
    assert eng.pending == 0
    assert eng.schedule(0.0, lambda: None).seq == 0   # nothing consumed


def test_injected_edge_load_holds_one_heap_entry_per_inject_call():
    """Pending injections are streams, not one heap entry per request:
    two days of dense edge traffic injected in four calls leave the heap
    with the city's tick event plus one entry per call."""
    from repro.experiments.common import small_city
    from repro.sim.calendar import DAY
    from repro.sim.rng import RngRegistry
    from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

    mw = small_city(seed=3)
    rngs = RngRegistry(3)
    t0 = mw.engine.now
    calls = 0
    for bname in mw.buildings:
        gen = EdgeWorkloadGenerator(rngs.stream(f"edge-{bname}"), source=bname,
                                    config=EdgeWorkloadConfig(rate_per_hour=600.0))
        mw.inject(gen.generate(t0, t0 + 2 * DAY))
        calls += 1
    assert calls == 4
    assert mw.engine.pending <= 1 + calls
