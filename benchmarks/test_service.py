"""Bench the telemetry service: SSE throughput, injection latency, RSS.

Boots ``python -m repro serve`` as a real subprocess (the same entry point a
user runs), polls ``/healthz`` until ready, injects requests while paused to
time the command round trip, mutates the scenario mid-run, then consumes the
full SSE stream to measure delivery throughput.  Emits
``benchmarks/results/BENCH_service.json`` — SSE events/sec, injection
round-trip latency and steady-state RSS — which CI uploads as the
``service-bench`` artifact.

The subprocess is always torn down via ``/api/shutdown`` first (the clean
path under test) with SIGKILL as a last resort, so a failing assertion never
leaks a server.
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import bench_schema
from conftest import RESULTS_DIR

REPO = Path(__file__).resolve().parent.parent
SIM_DAYS = 0.25
N_INJECTIONS = 20
MIN_SSE_EVENTS = 50
#: how ``repro diff`` compares each numeric row key of BENCH_service.json
UNITS = {
    **dict.fromkeys(("startup_to_healthy_s", "sse_stream_s"),
                    bench_schema.WALL_S),
    **dict.fromkeys(("inject_rtt_ms_p50", "inject_rtt_ms_max"),
                    {"unit": "ms", "better": "lower"}),
    "sse_events_per_s": {"unit": "events/s", "better": "higher"},
    "steady_state_rss_mib": {"unit": "MiB", "better": "lower"},
    **dict.fromkeys(("sse_events", "injections"), bench_schema.COUNT),
}


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get(base: str, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(base + path, timeout=timeout) as r:
        return json.loads(r.read())


def _post(base: str, path: str, body: dict, timeout: float = 35.0):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=timeout) as r:
        return json.loads(r.read())


def _wait_healthy(base: str, deadline_s: float = 30.0) -> float:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < deadline_s:
        try:
            if _get(base, "/healthz", timeout=2.0)["status"] == "ok":
                return time.perf_counter() - t0
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise AssertionError(f"server not healthy within {deadline_s}s")


def _rss_kib(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    for line in status.splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS in /proc status")


def _consume_sse(base: str):
    """Read the live stream to completion; return (n_events, wall_s, kinds)."""
    kinds: dict = {}
    n = 0
    t0 = time.perf_counter()
    with urllib.request.urlopen(base + "/events", timeout=120) as r:
        assert r.headers["Content-Type"] == "text/event-stream"
        for raw in r:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                kind = line[len("event: "):]
                kinds[kind] = kinds.get(kind, 0) + 1
                n += 1
    return n, time.perf_counter() - t0, kinds


def test_service_throughput():
    port = _free_port()
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--days", str(SIM_DAYS), "--start-paused",
         "--slice-s", "300", "--telemetry-every-s", "300"],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        startup_s = _wait_healthy(base)

        # -- injection round trip, measured while paused ----------------- #
        latencies = []
        for i in range(N_INJECTIONS):
            t0 = time.perf_counter()
            out = _post(base, "/api/inject",
                        {"flow": "edge", "deadline_s": 30.0})
            latencies.append(time.perf_counter() - t0)
            assert out["status"] == "injected"

        # -- mid-run scenario mutation ----------------------------------- #
        out = _post(base, "/api/scenario",
                    {"weather_delta_c": -5.0, "grid_cap_w": 2500.0})
        assert sorted(out["applied"]) == ["grid_cap_w", "weather_delta_c"]

        # -- resume and drink the full SSE stream ------------------------ #
        _post(base, "/api/control", {"action": "resume"})
        n_events, stream_s, kinds = _consume_sse(base)
        assert n_events >= MIN_SSE_EVENTS, f"only {n_events} SSE events"
        assert kinds.get("run.finished") == 1
        assert kinds.get("metrics", 0) > 0 and kinds.get("state", 0) > 0

        state = _get(base, "/api/state")
        assert state["finished"] and state["injected"]["edge"] == N_INJECTIONS
        rss_kib = _rss_kib(proc.pid)

        # -- clean shutdown through the API ------------------------------ #
        _post(base, "/api/shutdown", {})
        assert proc.wait(timeout=30) == 0, "serve did not exit cleanly"
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)

    row = {
        "startup_to_healthy_s": round(startup_s, 3),
        "sse_events": n_events,
        "sse_stream_s": round(stream_s, 3),
        "sse_events_per_s": round(n_events / stream_s, 1),
        "injections": N_INJECTIONS,
        "inject_rtt_ms_p50": round(
            statistics.median(latencies) * 1e3, 2),
        "inject_rtt_ms_max": round(max(latencies) * 1e3, 2),
        "steady_state_rss_mib": round(rss_kib / 1024, 1),
        "clean_shutdown": True,
    }
    bench = bench_schema.envelope(
        "service", [row],
        context={"sim_days": SIM_DAYS,
                 "sse_event_kinds": dict(sorted(kinds.items()))},
        units=UNITS)
    bench_schema.write_bench(RESULTS_DIR / "BENCH_service.json", bench)
    print(f"\n{json.dumps(bench, indent=2, sort_keys=True)}\n")
