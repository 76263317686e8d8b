"""twin-live: a served F3 twin driven over HTTP by one open-loop client.

The server is the ``repro serve --start-paused`` command on the F3
scenario, started through ``serve.py`` so that it probes the host's speed
between engine slices.  The client subscribes to ``/events`` before it
sends ``resume``, so it sees every frame the bus publishes from then on,
then sends edge injections at :data:`RATE_HZ` per host second, each at a
seeded random instant of its own 1/RATE_HZ slot (a plain grid would alias
with the twin's periodic telemetry publishes, and Poisson bursts would
queue behind the two connections), until the run is
:data:`STOP_AT_PROGRESS` done.  Each injection is timed from the moment the
schedule said it was due, so a stalled server also delays the requests
queued behind it (an open loop).

The traced variant hosts the same twin in this process (``build_twin`` +
``serve``), so :mod:`ledger` can wrap its functions.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import host_factor

DAYS = 1.0                # ScenarioConfig.duration_days
SIM_DAYS = DAYS + 0.2     # plus the scenario's default drain tail
#: injections due per host second: about fifty per served run, so four runs
#: put twenty beyond p90; higher rates or Poisson arrivals spread p90 more
RATE_HZ = 10.0
MAX_INJECTIONS = 1000
STOP_AT_PROGRESS = 0.85   # stop injecting before the run can finish
CONNECTIONS = 2
FAILED_MS = 30_000.0      # a failed injection misses every latency limit
BOOT_TIMEOUT_S = 120.0
BUILDINGS = tuple(f"district-{d}/building-{b}"
                  for d in range(2) for b in range(2))


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _request(port: int, method: str, path: str,
             body: Optional[dict] = None,
             conn: Optional[http.client.HTTPConnection] = None
             ) -> Tuple[int, Any]:
    own = conn is None
    if own:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data) if data else None
    finally:
        if own:
            conn.close()


def start_server(root: Path, seed: int, port: int, probes: Path
                 ) -> Tuple[subprocess.Popen, float]:
    """Start ``repro serve`` paused; returns it and its set-up time.

    Set-up is from process start until ``/healthz`` answers ok.  The
    server's host-speed probes land in ``probes`` when it exits.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("serve.py")),
         str(probes), "--start-paused", "--port", str(port),
         "--seed", str(seed), "--days", str(DAYS)],
        cwd=root, env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.DEVNULL)
    while True:
        try:
            status, body = _request(port, "GET", "/healthz")
            if status == 200 and body.get("status") == "ok":
                return proc, time.perf_counter() - t0
        except OSError:
            pass
        if proc.poll() is not None:
            raise RuntimeError(f"repro serve exited with {proc.returncode}")
        if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
            stop_server(proc, port)
            raise RuntimeError("repro serve did not become healthy")
        time.sleep(0.01)


def _shutdown(port: int) -> None:
    """POST /api/shutdown; the reply may be cut off as the server exits."""
    try:
        _request(port, "POST", "/api/shutdown", {})
    except (OSError, http.client.HTTPException):
        pass


def stop_server(proc: subprocess.Popen, port: int) -> None:
    """Ask the server to shut down; kill it if it does not exit."""
    _shutdown(port)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _SSEReader(threading.Thread):
    """One ``/events`` subscriber; subscribed once the constructor returns."""

    def __init__(self, port: int):
        super().__init__(name="sse-reader", daemon=True)
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.conn.request("GET", "/events")
        self.resp = self.conn.getresponse()   # headers sent after subscribe
        self.seqs: List[int] = []
        self.progress = 0.0
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None

    def run(self) -> None:
        kind, seq, data = None, None, None
        try:
            for raw in self.resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    kind = line[7:]
                elif line.startswith("id: "):
                    seq = int(line[4:])
                elif line.startswith("data: "):
                    data = line[6:]
                elif line == "" and kind is not None:
                    self._frame(kind, seq, data)
                    if kind in ("run.finished", "run.error"):
                        return
                    kind, seq, data = None, None, None
        except OSError as exc:
            self.error = repr(exc)
        finally:
            self.conn.close()

    def _frame(self, kind: str, seq: int, data: str) -> None:
        self.seqs.append(seq)
        if kind == "state":
            self.progress = json.loads(data)["progress"]
        elif kind == "run.finished":
            self.finished_at = time.perf_counter()
        elif kind == "run.error":
            self.error = data


def injection_mix(seed: int):
    """Cycles and deadlines of the injections, as the F3 scenario draws them.

    The served scenario's edge flow uses ``EdgeWorkloadConfig`` with only
    its rate changed; the injections take their demand (lognormal, 200
    Mcycle mean) and deadline class (0.5/2/5 s, weighted .3/.5/.2) from the
    same config, on a stream of their own.
    """
    from repro.service import ScenarioConfig
    from repro.sim.rng import RngRegistry
    from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

    config = EdgeWorkloadConfig(
        rate_per_hour=ScenarioConfig(seed=seed).edge_rate_per_hour)
    gen = EdgeWorkloadGenerator(RngRegistry(seed).stream("bench-inject"),
                                source=BUILDINGS[0], config=config)
    return gen.plan_burst(0.0, MAX_INJECTIONS)


def drive(port: int, seed: int) -> Dict[str, Any]:
    """Resume a paused twin, load it open-loop, wait for the run to end."""
    rng = random.Random(seed)
    plan = [{"flow": "edge", "source": rng.choice(BUILDINGS),
             "deadline_s": deadline, "cycles": cycles}
            for _t, cycles, deadline, _mode in injection_mix(seed)]
    offsets = [(k + rng.random()) / RATE_HZ for k in range(MAX_INJECTIONS)]
    reader = _SSEReader(port)
    reader.start()
    status, _ = _request(port, "POST", "/api/control", {"action": "resume"})
    t_resume = time.perf_counter()
    if status != 200:
        raise RuntimeError(f"resume answered {status}")

    lock = threading.Lock()
    next_k = [0]
    latencies: List[float] = []
    lateness: List[float] = []
    failures = [0]

    def sender() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    k = next_k[0]
                    if (k >= MAX_INJECTIONS or reader.finished_at is not None
                            or reader.progress >= STOP_AT_PROGRESS):
                        return
                    next_k[0] += 1
                due = t_resume + offsets[k]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                try:
                    code, body = _request(port, "POST", "/api/inject",
                                          plan[k], conn=conn)
                    ok = code == 200 and body.get("status") == "injected"
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=60)
                    ok = False
                done = time.perf_counter()
                with lock:
                    lateness.append((sent - due) * 1e3)
                    if ok:
                        latencies.append((done - due) * 1e3)
                    else:
                        latencies.append(FAILED_MS)
                        failures[0] += 1
        finally:
            conn.close()

    senders = [threading.Thread(target=sender, name=f"inject-{i}")
               for i in range(CONNECTIONS)]
    for t in senders:
        t.start()
    for t in senders:
        t.join()
    reader.join(timeout=120)
    _, state = _request(port, "GET", "/api/state")
    _, fleet = _request(port, "GET", "/api/fleet")

    sent = len(latencies)
    ok = sent - failures[0]
    span = (max(reader.seqs) - min(reader.seqs) + 1) if reader.seqs else 1
    # every edge request completes or expires at most once; what is left
    # is still in flight (some seeds end the drain tail with indirect
    # requests queued, in batch runs too)
    accounted = fleet["edge_completed"] + fleet["edge_expired"]
    in_flight = state["submitted"]["edge"] + ok - accounted
    conserved = state["injected"].get("edge", 0) == ok and in_flight >= 0
    finished = reader.finished_at is not None and reader.error is None
    run_s = (reader.finished_at or time.perf_counter()) - t_resume
    return {
        "run_s": run_s,
        "sim_days": SIM_DAYS,
        "latencies_ms": latencies,
        "lateness_ms": lateness,
        "frames": len(reader.seqs),
        "frame_span": span,
        # operations: each injection, each expected frame, the conservation
        # check and the run reaching its horizon
        "attempted": sent + span + 2,
        "failed": (failures[0] + span - len(reader.seqs)
                   + (not conserved) + (not finished)),
        "failures": {"injections": failures[0],
                     "frames_missing": span - len(reader.seqs),
                     "conservation": not conserved, "unfinished": not finished,
                     "in_flight": in_flight},
        "events": state["events_executed"],
        "injections_ok": ok,
        "inputs_digest": hashlib.sha256(
            json.dumps([plan, offsets]).encode()).hexdigest()[:16],
    }


def served_run(root: Path, seed: int, probes: Path) -> Dict[str, Any]:
    """One served run: boot, drive, shut down.

    ``probes`` is removed first, so a server that was killed before it
    could write its probes fails the run instead of reusing stale ones.
    """
    probes.unlink(missing_ok=True)
    port = free_port()
    proc, setup_s = start_server(root, seed, port, probes)
    try:
        out = drive(port, seed)
    finally:
        stop_server(proc, port)
    out["setup_s"] = setup_s
    out["host_factor"] = host_factor(json.loads(probes.read_text()))
    return out


def traced_run(seed: int, stem: Path) -> Dict[str, Any]:
    """The same served run, hosted in this process under the ledger."""
    from ledger import Ledger

    ledger = Ledger().install()
    main = threading.get_ident()
    try:
        from repro.service import ScenarioConfig, TwinConfig, build_twin, serve

        t_build = time.perf_counter()
        twin = build_twin(ScenarioConfig(seed=seed, duration_days=DAYS),
                          TwinConfig(start_paused=True))
        build_s = time.perf_counter() - t_build
        port = free_port()
        ready = threading.Event()
        host = threading.Thread(target=serve, args=(twin,),
                                kwargs={"port": port, "ready": ready},
                                name="serve", daemon=True)
        host.start()
        if not ready.wait(BOOT_TIMEOUT_S):
            raise RuntimeError("in-process twin did not start")
        out = drive(port, seed)
        _shutdown(port)
        host.join(timeout=30)
    finally:
        ledger.uninstall()
    # the traced wall is the build on this thread plus the served run on
    # the engine thread: the other thread whose wrapped calls took longest
    engine = max((t for t in ledger.top_s if t != main),
                 key=ledger.top_s.get)
    out["layers"] = ledger.layer_times(build_s + out["run_s"],
                                       threads=[main, engine])
    out["host_factor"] = host_factor()
    run_until_s = ledger.total_s.get("sim.run_until_s", 0.0)
    out["counts"] = dict(ledger.counts)
    out["counts"].update({
        "service.twin.run_until_s": run_until_s,
        "sim.run_until_total_s": run_until_s,
        "service.events.published": twin.bus.published,
        "service.events.dropped": twin.bus.dropped,
        "obs.tracer.records": twin.obs.tracer.total_emitted,
        "workloads.requests": sum(twin.scenario.submitted.values())
        + out["injections_ok"],
    })
    ledger.write(stem)
    return out
