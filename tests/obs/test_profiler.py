"""Tests for the profiler and its engine integration."""

import pytest

from repro.obs import Profiler, Tracer
from repro.sim.engine import Engine


def test_record_and_stats():
    p = Profiler()
    p.record("a", 0.2)
    p.record("a", 0.1)
    p.record("b", 0.5)
    assert p.total_calls == 3
    assert p.total_s == pytest.approx(0.8)
    stats = p.stats()
    assert list(stats) == ["b", "a"]  # hottest first
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(0.3)
    assert stats["a"]["max_us"] == pytest.approx(0.2e6)


def test_report_renders_table():
    p = Profiler()
    p.record("process:df3-tick", 0.25)
    out = p.report()
    assert "profile" in out
    assert "process:df3-tick" in out
    assert "share" in out


def test_engine_attributes_labels_to_profiler():
    prof = Profiler()
    eng = Engine(profiler=prof)
    ticks = []
    eng.add_process("sampler", 10.0, lambda now, dt: ticks.append(now))
    eng.schedule(5.0, lambda: None, label="custom-event")
    eng.schedule(7.0, lambda: None)  # unlabelled: falls back to __qualname__
    eng.run_until(30.0)
    stats = prof.stats()
    assert "process:sampler" in stats
    assert stats["process:sampler"]["calls"] == 3
    assert "custom-event" in stats
    assert any("lambda" in label for label in stats)  # qualname fallback
    assert len(ticks) == 3


def test_engine_step_is_instrumented():
    prof = Profiler()
    eng = Engine(profiler=prof)
    eng.schedule(1.0, lambda: None, label="stepped")
    assert eng.step()
    assert "stepped" in prof.stats()


def test_uninstrumented_engine_has_no_hooks():
    eng = Engine()
    assert eng.profiler is None
    with pytest.raises(TypeError):
        Engine(tracer=Tracer())  # the engine writes no trace records
    eng.schedule(1.0, lambda: None)
    eng.run_until(2.0)
    assert eng.events_executed == 1
