"""EventBus: fan-out, bounded queues, drop-oldest overflow, replay ring."""

import queue
import sys
import threading
import time

import pytest

from repro.service.events import EventBus, drain


def test_publish_reaches_every_subscriber():
    bus = EventBus()
    a, b = bus.subscribe(), bus.subscribe()
    bus.publish("state", {"now": 1.0})
    bus.publish("metrics", {"now": 2.0})
    for sub in (a, b):
        got = drain(sub, timeout=0.1)
        assert [(k, d["now"]) for k, d, _ in got] == [
            ("state", 1.0), ("metrics", 2.0)]


def test_seq_is_bus_wide_and_monotonic():
    bus = EventBus()
    sub = bus.subscribe()
    for i in range(5):
        bus.publish("tick", {"i": i})
    seqs = [seq for _, _, seq in drain(sub, timeout=0.1, max_events=10)]
    assert seqs == sorted(seqs) and len(set(seqs)) == 5


def test_unsubscribed_queue_stops_receiving():
    bus = EventBus()
    sub = bus.subscribe()
    bus.publish("a", {})
    bus.unsubscribe(sub)
    bus.publish("b", {})
    got = drain(sub, timeout=0.05, max_events=10)
    assert [k for k, _, _ in got] == ["a"]
    assert bus.subscriber_count == 0


def test_overflow_drops_oldest_never_blocks():
    bus = EventBus(max_queue=3)
    sub = bus.subscribe()
    for i in range(10):
        bus.publish("tick", {"i": i})
    got = drain(sub, timeout=0.1, max_events=10)
    # the newest 3 survive; 7 were shed
    assert [d["i"] for _, d, _ in got] == [7, 8, 9]
    assert sub.dropped == 7 and bus.dropped == 7
    # seq gaps reveal the loss to a client
    seqs = [seq for _, _, seq in got]
    assert seqs == [7, 8, 9]


def test_slow_subscriber_does_not_affect_siblings():
    bus = EventBus(max_queue=2)
    slow, fast = bus.subscribe(), bus.subscribe()
    for i in range(6):
        bus.publish("tick", {"i": i})
        drain(fast, timeout=0.05)  # fast keeps up
    assert fast.dropped == 0
    assert slow.dropped == 4


def test_publish_from_many_threads_is_safe():
    bus = EventBus(max_queue=10_000)
    sub = bus.subscribe()

    def worker(tag):
        for i in range(100):
            bus.publish("tick", {"tag": tag, "i": i})

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    total = 0
    while True:
        got = drain(sub, timeout=0.05, max_events=1000)
        if not got:
            break
        total += len(got)
    assert total == 400 and bus.published == 400


def test_bad_capacity_rejected():
    with pytest.raises(ValueError):
        EventBus(max_queue=0)


def test_late_subscriber_replays_the_ring():
    bus = EventBus()
    for i in range(5):
        bus.publish("tick", {"i": i})
    sub = bus.subscribe()
    bus.publish("tick", {"i": 5})
    got = drain(sub, timeout=0.1, max_events=10)
    assert [seq for _, _, seq in got] == list(range(6))
    assert [d["i"] for _, d, _ in got] == list(range(6))


def test_replay_ring_is_bounded_by_max_queue():
    bus = EventBus(max_queue=3)
    for i in range(10):
        bus.publish("tick", {"i": i})
    sub = bus.subscribe()
    got = drain(sub, timeout=0.1, max_events=10)
    assert [seq for _, _, seq in got] == [7, 8, 9]
    assert sub.dropped == 0


def test_replayed_event_is_the_published_event():
    bus = EventBus()
    live = bus.subscribe()
    bus.publish("state", {"now": 1.5, "nested": {"b": 1, "a": [1, 2]}})
    late = bus.subscribe()
    ev_live, ev_late = live.events.get_nowait(), late.events.get_nowait()
    assert ev_late is ev_live
    assert ev_late.sse_frame() == (
        b'event: state\nid: 0\n'
        b'data: {"nested": {"a": [1, 2], "b": 1}, "now": 1.5}\n\n')


@pytest.mark.parametrize("max_queue", [1200, 64])
def test_concurrent_publishers_and_joining_subscribers(max_queue):
    """Publishers race subscribers that join mid-stream.

    With a ring that holds the whole stream every subscriber sees exactly
    seq 0..N-1, whenever it joined.  With a short ring, seq still strictly
    increases up to the final event, and gaps only come from the
    subscriber's own counted drops; a subscriber joining after the end
    receives exactly the ring.
    """
    bus = EventBus(max_queue=max_queue)
    publishers, per_publisher = 3, 400
    total = publishers * per_publisher
    deadline = time.monotonic() + 30.0
    seen = {}

    def publish(tag):
        for i in range(per_publisher):
            bus.publish("tick", {"tag": tag, "i": i})

    def subscribe(join_after):
        while bus.published < join_after and time.monotonic() < deadline:
            time.sleep(0)
        sub = bus.subscribe()
        seqs = []
        while time.monotonic() < deadline:
            try:
                ev = sub.events.get(timeout=0.05)
            except queue.Empty:
                continue
            seqs.append(ev.seq)
            if ev.seq == total - 1:
                break
        seen[join_after] = (sub, seqs)

    joins = (0, 50, 300, 700, 1100)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=subscribe, args=(k,), daemon=True)
                   for k in joins]
        threads += [threading.Thread(target=publish, args=(p,), daemon=True)
                    for p in range(publishers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not th.is_alive(), "stress thread did not finish in time"
    finally:
        sys.setswitchinterval(old_interval)

    assert bus.published == total and sorted(seen) == list(joins)
    for join_after, (sub, seqs) in seen.items():
        if max_queue >= total:
            assert seqs == list(range(total)), join_after
            assert sub.dropped == 0
        else:
            assert seqs[-1] == total - 1, join_after
            assert all(b > a for a, b in zip(seqs, seqs[1:])), join_after
            assert seqs[-1] - seqs[0] + 1 - len(seqs) <= sub.dropped
    late = bus.subscribe()
    got = drain(late, timeout=0.1, max_events=total)
    assert [seq for _, _, seq in got] == \
        list(range(max(0, total - max_queue), total))
