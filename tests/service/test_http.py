"""TwinServer: REST endpoints, SSE stream, control plane, error paths."""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.requests import reset_ids
from repro.service import (
    ScenarioConfig,
    TwinConfig,
    TwinServer,
    build_twin,
    serve,
)
from repro.service.http import _SSE_HEARTBEAT_S, SERVE_SWITCH_INTERVAL_S


@pytest.fixture()
def served_twin():
    """A paused twin behind a real socket on an ephemeral port."""
    reset_ids()
    twin = build_twin(
        ScenarioConfig(duration_days=0.05, tail_days=0.01),
        TwinConfig(slice_s=300.0, telemetry_every_s=600.0, start_paused=True),
    )
    server = TwinServer(("127.0.0.1", 0), twin)
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    twin.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield twin, base
    finally:
        twin.stop()
        server.shutdown()
        server.server_close()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as r:
        return json.loads(r.read())


def post(base, path, body):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=35) as r:
        return json.loads(r.read())


def test_healthz(served_twin):
    twin, base = served_twin
    h = get(base, "/healthz")
    assert h["status"] == "ok" and h["paused"] and not h["finished"]
    assert h["now"] == twin.scenario.t0


def test_rest_state_endpoints(served_twin):
    twin, base = served_twin
    assert get(base, "/api/state")["paused"]
    fleet = get(base, "/api/fleet")
    assert len(fleet["districts"]) == 2 and fleet["weather_override_c"] == 0.0
    assert len(get(base, "/api/servers")["servers"]) == 12
    assert "slos" in get(base, "/api/slo")
    assert "completeness" in get(base, "/api/spans?prefix=edge.&slowest=3")
    assert "series" in get(base, "/api/metrics")
    assert get(base, "/api/trace/tail?n=7")["records"] is not None


def test_dashboard_served(served_twin):
    _, base = served_twin
    with urllib.request.urlopen(base + "/", timeout=10) as r:
        page = r.read().decode("utf-8")
        assert r.headers["Content-Type"].startswith("text/html")
    assert "EventSource('/events')" in page
    assert "/api/state" in page


def test_unknown_paths_404(served_twin):
    _, base = served_twin
    for method, path in (("GET", "/api/nope"), ("POST", "/api/nope")):
        req = urllib.request.Request(base + path, method=method,
                                     data=b"{}" if method == "POST" else None)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        err.value.close()
        assert err.value.code == 404


def test_inject_and_control_round_trip(served_twin):
    twin, base = served_twin
    out = post(base, "/api/inject", {"flow": "edge", "deadline_s": 30.0})
    assert out["status"] == "injected" and out["request_id"].startswith("edge-")
    out = post(base, "/api/inject", {"flow": "cloud", "cycles": 1e10})
    assert out["request_id"].startswith("cloud-")
    assert twin.injected == {"heating": 0, "edge": 1, "cloud": 1}

    stepped = post(base, "/api/control", {"action": "step", "dt": 600.0})
    assert stepped["now"] == twin.scenario.t0 + 600.0
    post(base, "/api/control", {"action": "resume"})
    assert not get(base, "/api/state")["paused"]
    paused = post(base, "/api/control", {"action": "pause"})
    assert paused["status"] == "paused"


def test_scenario_mutation_round_trip(served_twin):
    twin, base = served_twin
    out = post(base, "/api/scenario",
               {"weather_delta_c": -5.0, "grid_cap_w": 1500.0})
    assert sorted(out["applied"]) == ["grid_cap_w", "weather_delta_c"]
    assert twin.mw.weather.override_delta_c == -5.0
    assert twin.mw.smartgrid.grid_cap_w == 1500.0
    out = post(base, "/api/scenario", {"kill_district": 1})
    assert out["detail"]["district"] == 1
    assert len(out["detail"]["servers_killed"]) == 6


def test_bad_requests_are_400_not_500(served_twin):
    twin, base = served_twin
    injected = dict(twin.injected)
    cases = [
        ("/api/inject", {"flow": "quantum"}),
        ("/api/inject", {"flow": "edge", "source": "no-such-building"}),
        # non-finite sizes would complete with NaN cycles or hold a core
        # forever, and a NaN deadline breaks the EDF queue's ordering
        ("/api/inject", {"flow": "edge", "cycles": "nan"}),
        ("/api/inject", {"flow": "edge", "cycles": "inf"}),
        ("/api/inject", {"flow": "edge", "deadline_s": "nan"}),
        ("/api/inject", {"flow": "edge", "deadline_s": "inf"}),
        ("/api/inject", {"flow": "cloud", "cycles": "nan"}),
        ("/api/scenario", {}),
        ("/api/scenario", {"kill_district": 99}),
        ("/api/control", {"action": "warp"}),
    ]
    for path, body in cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base, path, body)
        err.value.close()
        assert err.value.code == 400, (path, body)
    assert twin.injected == injected        # nothing reached the city
    # malformed JSON body
    req = urllib.request.Request(base + "/api/inject", data=b"not json{",
                                 method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    err.value.close()
    assert err.value.code == 400


def test_sse_stream_bounded_and_well_formed(served_twin):
    twin, base = served_twin
    post(base, "/api/control", {"action": "resume"})
    with urllib.request.urlopen(base + "/events?max_events=8",
                                timeout=60) as r:
        assert r.headers["Content-Type"] == "text/event-stream"
        raw = r.read().decode("utf-8")
    frames = [f for f in raw.split("\n\n") if f.strip() and
              not f.startswith(":")]
    assert len(frames) == 8
    kinds, ids = [], []
    for frame in frames:
        lines = dict(line.split(": ", 1) for line in frame.splitlines())
        kinds.append(lines["event"])
        ids.append(int(lines["id"]))
        json.loads(lines["data"])  # every payload is valid JSON
    assert ids == sorted(ids)
    assert set(kinds) <= {"run.started", "run.paused", "run.finished",
                          "state", "metrics", "slo.burn_rate", "slo.breach",
                          "trace", "command.applied", "command.failed"}


def test_sse_closes_when_run_finishes(served_twin):
    twin, base = served_twin
    done = {}

    def consume():
        # unbounded stream opened while the run is live: it must deliver
        # the lifecycle tail and then close on its own once the run is done
        with urllib.request.urlopen(base + "/events", timeout=60) as r:
            done["raw"] = r.read().decode("utf-8")

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    post(base, "/api/control", {"action": "resume"})
    assert twin.join(timeout=60)
    reader.join(timeout=30)
    assert not reader.is_alive(), "SSE stream did not close after the run"
    assert "event: run.finished" in done["raw"]


def _read_events(base, headers=None):
    req = urllib.request.Request(base + "/events", headers=headers or {})
    with urllib.request.urlopen(req, timeout=60) as r:
        return r.read().decode("utf-8")


def _frames_by_id(raw):
    """The SSE frames of a stream, keyed by their id (comments dropped)."""
    frames = {}
    for frame in raw.split("\n\n"):
        if frame.strip() and not frame.startswith(":"):
            fields = dict(line.split(": ", 1) for line in frame.splitlines())
            frames[int(fields["id"])] = frame
    return frames


def test_sse_replays_the_run_to_late_and_reconnecting_clients(served_twin):
    twin, base = served_twin
    live = {}

    def consume():
        live["raw"] = _read_events(base)

    reader = threading.Thread(target=consume, daemon=True)
    reader.start()
    deadline = time.monotonic() + 30
    while twin.bus.subscriber_count == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    post(base, "/api/control", {"action": "resume"})
    assert twin.join(timeout=60)
    reader.join(timeout=30)
    assert not reader.is_alive(), "live SSE stream did not close"

    # a client connecting after the end receives the whole run from the
    # ring, byte for byte as the live client saw it, and the stream closes
    # at run.finished rather than at the idle-heartbeat check
    t0 = time.monotonic()
    late_raw = _read_events(base)
    assert time.monotonic() - t0 < _SSE_HEARTBEAT_S
    late = _frames_by_id(late_raw)
    assert list(late) == list(range(len(late)))
    assert late == _frames_by_id(live["raw"])
    assert late[len(late) - 1].startswith("event: run.finished\n")
    assert late_raw.endswith(late[len(late) - 1] + "\n\n")

    # a reconnecting client gets only what follows its Last-Event-ID
    resumed = _frames_by_id(_read_events(base, {"Last-Event-ID": "5"}))
    assert list(resumed) == list(range(6, len(late)))
    assert all(resumed[i] == late[i] for i in resumed)
    garbled = _frames_by_id(_read_events(base, {"Last-Event-ID": "x"}))
    assert garbled == late


def test_shutdown_endpoint_flags_server(served_twin):
    twin, base = served_twin
    out = post(base, "/api/shutdown", {})
    assert out["status"] == "shutting down"


def test_serve_shortens_the_switch_interval_and_restores_it():
    """``serve`` hands the interpreter lock over every 0.5 ms while it runs
    (a command's round trip crosses threads several times) and puts the
    process's previous interval back when it returns."""
    reset_ids()
    twin = build_twin(ScenarioConfig(duration_days=0.05, tail_days=0.01),
                      TwinConfig(start_paused=True))
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    before = sys.getswitchinterval()
    assert SERVE_SWITCH_INTERVAL_S < 1e-3 < before
    ready = threading.Event()
    host = threading.Thread(target=serve, args=(twin,),
                            kwargs={"port": port, "ready": ready},
                            daemon=True)
    host.start()
    try:
        assert ready.wait(timeout=30)
        assert sys.getswitchinterval() == pytest.approx(SERVE_SWITCH_INTERVAL_S)
        base = f"http://127.0.0.1:{port}"
        out = post(base, "/api/inject", {"flow": "edge", "deadline_s": 30.0})
        assert out["status"] == "injected"
        post(base, "/api/shutdown", {})
        host.join(timeout=30)
        assert not host.is_alive()
        assert sys.getswitchinterval() == before
    finally:
        twin.stop()
        sys.setswitchinterval(before)
