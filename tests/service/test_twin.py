"""DigitalTwin: lifecycle, control API, command queue, telemetry, views."""

import pytest

from repro.core.requests import EdgeRequest, reset_ids
from repro.obs.slo import SLOEngine
from repro.sim.calendar import HOUR
from repro.service import (
    ScenarioConfig,
    TwinConfig,
    TwinError,
    build_twin,
    drain,
)


def tiny_twin(**twin_kwargs) -> object:
    """A twin over a few sim-hours — fast enough for unit tests."""
    cfg = dict(slice_s=300.0, telemetry_every_s=600.0)
    cfg.update(twin_kwargs)
    return build_twin(ScenarioConfig(duration_days=0.05, tail_days=0.01),
                      TwinConfig(**cfg))


@pytest.fixture(autouse=True)
def _fresh_request_ids():
    reset_ids()
    yield


def test_runs_to_completion_and_publishes_lifecycle():
    twin = tiny_twin()
    sub = twin.bus.subscribe()
    twin.start()
    assert twin.join(timeout=60)
    assert twin.finished and twin.now == twin.scenario.t_end
    twin.stop()
    kinds = [kind for kind, _, _ in drain(sub, timeout=0, max_events=10_000)]
    assert {"run.started", "state", "metrics", "run.finished"} <= set(kinds)
    assert kinds[0] == "run.started" and kinds[-1] == "run.finished"


def test_start_twice_rejected():
    twin = tiny_twin(start_paused=True)
    twin.start()
    with pytest.raises(TwinError):
        twin.start()
    twin.stop()


def test_pause_resume_step():
    twin = tiny_twin(start_paused=True)
    twin.start()
    t0 = twin.now
    assert twin.paused
    # step advances exactly dt on the engine thread
    now = twin.step(600.0)
    assert now == t0 + 600.0 and twin.now == t0 + 600.0
    # step requires a paused twin
    twin.resume()
    assert twin.join(timeout=60)
    with pytest.raises(TwinError):
        twin.step(60.0)
    twin.stop()


def test_step_past_the_horizon_stops_at_t_end():
    """A step longer than the rest of the run ends exactly at ``t_end``,
    and the resumed twin finishes there without simulating past it."""
    twin = tiny_twin(start_paused=True)
    sub = twin.bus.subscribe()
    twin.start()
    t_end = twin.scenario.t_end
    assert twin.step(t_end - twin.now + 7200.0) == t_end
    assert twin.now == t_end
    twin.resume()
    assert twin.join(timeout=60)
    finished = []
    while not sub.events.empty():
        ev = sub.events.get_nowait()
        if ev.kind == "run.finished":
            finished.append(ev.data["now"])
    assert finished == [t_end]
    assert twin.now == t_end
    twin.stop()


def test_pause_at_holds_at_exact_sim_time():
    twin = tiny_twin(start_paused=True)
    target = twin.scenario.t0 + HOUR  # inside the 0.06-sim-day horizon
    twin.pause_at(target)
    twin.start()
    twin.resume()
    deadline = 30.0
    import time
    end = time.monotonic() + deadline
    while not twin.paused and time.monotonic() < end:
        time.sleep(0.01)
    assert twin.paused and twin.now == target
    twin.resume()
    assert twin.join(timeout=60)
    twin.stop()


def test_command_in_the_past_rejected():
    twin = tiny_twin(start_paused=True)
    twin.start()
    with pytest.raises(TwinError):
        twin.submit("x", lambda mw: None, at=twin.now - 1.0)
    twin.stop()


def test_command_after_finish_rejected():
    twin = tiny_twin()
    twin.start()
    assert twin.join(timeout=60)
    with pytest.raises(TwinError):
        twin.submit("late", lambda mw: None)
    twin.stop()


def test_command_queued_in_the_final_publish_applies_at_t_end():
    """``run.finished`` closes the inbox: a command accepted while the
    engine thread publishes at the horizon is applied there, and one
    submitted afterwards, or pinned past the horizon, is refused."""
    twin = tiny_twin()
    t_end = twin.scenario.t_end
    late = []
    publish = twin._publish_telemetry

    def publish_then_queue(*args, **kwargs):
        publish(*args, **kwargs)
        if twin.now >= t_end and not late:
            late.append(twin.submit("late", lambda mw: mw.engine.now))

    twin._publish_telemetry = publish_then_queue
    twin.start()
    assert twin.join(timeout=60)
    (cmd,) = late
    assert cmd.done.wait(timeout=10)
    assert cmd.error is None and cmd.result == t_end
    with pytest.raises(TwinError, match="run already finished"):
        twin.submit("after", lambda mw: None)
    twin.stop()

    fresh = tiny_twin(start_paused=True)
    with pytest.raises(TwinError, match="after the run's end"):
        fresh.submit("past-end", lambda mw: None,
                     at=fresh.scenario.t_end + 1.0)


def test_stopped_twin_refuses_commands_at_once():
    import time

    twin = tiny_twin(start_paused=True)
    twin.start()
    twin.stop()
    assert not twin.running and not twin.finished
    t0 = time.monotonic()
    with pytest.raises(TwinError, match="engine loop exited"):
        twin.submit("after-stop", lambda mw: None, wait=2.0)
    assert time.monotonic() - t0 < 0.5


def test_command_error_propagates_to_caller():
    twin = tiny_twin(start_paused=True)
    twin.start()

    def boom(mw):
        raise ValueError("scenario said no")

    with pytest.raises(ValueError, match="scenario said no"):
        twin.submit("boom", boom, wait=10.0)
    # the engine thread survives a failed command
    twin.resume()
    assert twin.join(timeout=60)
    twin.stop()


def test_inject_request_object_and_factory():
    twin = tiny_twin(start_paused=True)
    twin.start()
    at = twin.now + HOUR
    source = next(iter(twin.mw.buildings))
    req = EdgeRequest(cycles=1e8, time=at, deadline_s=30.0, source=source)
    # pinned in the future: stays queued until the engine reaches `at`
    cmd = twin.inject_request(req, "edge", at=at)
    assert not cmd.done.is_set()

    twin.inject_request(
        lambda now: EdgeRequest(cycles=1e8, time=now, deadline_s=30.0,
                                source=source),
        "edge", wait=10.0)
    assert twin.injected["edge"] == 1  # factory one applied immediately
    twin.resume()
    assert twin.join(timeout=60)
    assert twin.injected["edge"] == 2  # pinned one applied at its time
    assert cmd.done.is_set() and cmd.result == req.request_id
    twin.stop()


def test_scenario_mutations_apply_on_engine_thread():
    twin = tiny_twin(start_paused=True)
    twin.start()
    twin.set_weather_override(-7.5, wait=10.0)
    twin.set_grid_cap(2000.0, wait=10.0)
    killed = twin.kill_district(0, wait=10.0)
    assert twin.mw.weather.override_delta_c == -7.5
    assert twin.mw.smartgrid.grid_cap_w == 2000.0
    assert killed.result["district"] == 0
    assert len(killed.result["servers_killed"]) == 6
    assert not twin.mw.edge_gateways[0].master_up
    twin.resume()
    assert twin.join(timeout=60)
    twin.stop()


def test_read_views_are_json_shaped():
    import json

    twin = tiny_twin()
    twin.start()
    assert twin.join(timeout=60)
    state = twin.state_dict()
    assert state["finished"] and 0.999 <= state["progress"] <= 1.0
    fleet = twin.fleet_dict()
    assert len(fleet["districts"]) == 2
    assert fleet["edge_completed"] > 0
    servers = twin.servers_dict()
    assert len(servers) == 12
    assert all(s["cores"] >= s["busy_cores"] for s in servers)
    slo = twin.slo_dict()
    assert {r["name"] for r in slo["slos"]} >= {"edge-deadline"}
    spans = twin.spans_dict()
    assert spans["traces"] > 0
    # every view must survive strict JSON round-tripping
    for view in (state, fleet, {"s": servers}, slo, spans,
                 twin.metrics_dict(), twin.trace_tail_dict()):
        json.loads(json.dumps(view, sort_keys=True))
    twin.stop()


def test_slo_view_reports_what_the_flight_recorder_covers():
    """With a ring smaller than the run, the SLO tables cover its tail:
    ``coverage`` counts the evicted records and starts after ``t0``."""
    twin = tiny_twin(ring_capacity=256)
    twin.start()
    assert twin.join(timeout=60)
    coverage = twin.slo_dict()["coverage"]
    tracer = twin.obs.tracer
    assert coverage["records"] == len(tracer) == 256
    assert coverage["evicted"] == tracer.total_emitted - 256 > 0
    assert twin.scenario.t0 < coverage["first_ts"] <= coverage["last_ts"]
    assert coverage["last_ts"] <= twin.scenario.t_end
    twin.stop()


def test_flight_recorder_holds_a_tiny_run_whole():
    """The tiny run emits 336 records; with one ``engine.dispatch`` record
    per callback it emitted 607, which a 512-record ring would evict.  The
    SLO tables then cover the whole run."""
    twin = tiny_twin(ring_capacity=512)
    twin.start()
    assert twin.join(timeout=60)
    coverage = twin.slo_dict()["coverage"]
    tracer = twin.obs.tracer
    assert coverage["evicted"] == 0
    assert coverage["records"] == tracer.total_emitted == len(tracer)
    assert "engine" not in tracer.counts_by_kind()
    twin.stop()


def test_state_dict_surfaces_surrogate_budget(monkeypatch):
    """With the surrogate kernel the twin's /api/state (and hence every SSE
    ``state`` event) carries the tier's error-budget status."""
    import json

    monkeypatch.setenv("REPRO_KERNEL", "surrogate")
    twin = tiny_twin()
    twin.start()
    assert twin.join(timeout=60)
    state = twin.state_dict()
    sur = state["surrogate"]
    assert set(sur) >= {"switched", "live_districts", "aggregated_districts",
                        "max_drift_c", "drift_budget_share", "budget"}
    assert sur["budget"]["district_mean_temp_tol_c"] > 0
    json.loads(json.dumps(state, sort_keys=True))
    twin.stop()


def test_state_dict_omits_surrogate_for_vector_kernel(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    twin = tiny_twin()
    twin.start()
    assert twin.join(timeout=60)
    assert "surrogate" not in twin.state_dict()
    twin.stop()


def test_slo_feed_publishes_closed_windows_only():
    """Each ``slo.burn_rate`` event carries a closed window, equal to the
    same window of a post-run evaluation; only the run's final publish
    sends windows that are still open, and ``slo.breach`` follows every
    breached window exactly once."""
    twin = build_twin(ScenarioConfig(duration_days=0.3, tail_days=0.05),
                      TwinConfig(slice_s=300.0, telemetry_every_s=900.0))
    sub = twin.bus.subscribe()
    twin.start()
    assert twin.join(timeout=120)
    twin.stop()
    events = drain(sub, timeout=0, max_events=100_000)
    assert events[-1][0] == "run.finished" and sub.dropped == 0
    final_seq = max(seq for kind, _, seq in events if kind == "state")
    post_run = SLOEngine().evaluate(twin.obs.tracer.tail(len(twin.obs.tracer)))
    windows = {(r.spec.name, w.start_ts): w.to_dict()
               for r in post_run.results for w in r.windows}

    published, breached = [], []
    for kind, data, seq in events:
        if kind not in ("slo.burn_rate", "slo.breach"):
            continue
        key = (data["slo"], data["start"])
        assert {k: data[k] for k in windows[key]} == windows[key]
        assert data["end"] <= data["now"] or seq > final_seq
        (published if kind == "slo.burn_rate" else breached).append(key)
    assert sorted(published) == sorted(windows)
    assert sorted(breached) == sorted(k for k, w in windows.items()
                                      if w["breached"])
    # the last windows close after the horizon: the final publish sent them
    assert max(w["end"] for w in windows.values()) > twin.scenario.t_end
