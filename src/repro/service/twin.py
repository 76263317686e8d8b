"""The digital twin: a background thread driving one city step-wise.

This is the engine/IO split the service mode is built on:

* **Engine thread** (one per twin) — owns the simulation.  It advances the
  city in bounded slices via ``Engine.run_until`` and is the *only* thread
  that mutates simulation state.  Between slices it drains a command queue
  (request injection, scenario mutation, pause requests) and publishes
  telemetry onto the :class:`~repro.service.events.EventBus`.  Due commands
  apply after each slice and again before the next boundary is chosen, so
  one that arrives during a publish lands at that boundary, and at the
  horizon after the final publish, so none accepted before ``run.finished``
  is dropped.  A due injection also applies inside a publish, between
  chunks of its SLO evaluation, at the same simulated time.
* **IO threads** (HTTP handlers, SSE writers) — read-only observers.  They
  consume copy-on-snapshot views (metrics registry, ring-tracer tails,
  GIL-atomic scalars) and enqueue commands; they never touch the heap.

Determinism contract (DESIGN.md §2.15): every command carries an explicit
simulated time ``at``.  The engine thread advances to exactly ``t = at``
(never past it), applies the command, and continues — so a served run that
injects request R at sim-time T is byte-identical to a scripted run that
calls ``mw.run_until(T); <apply>; mw.run_until(end)``.  Wall-clock slicing,
pause/resume and pacing only decide *when real time* the engine reaches a
boundary, never *which* boundaries it stops at in simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SLOEngine
from repro.obs.span import SpanIndex
from repro.obs.trace import RingTracer
from repro.service.events import EventBus
from repro.service.scenario import LiveScenario, ScenarioConfig, build_scenario

__all__ = ["DigitalTwin", "TwinConfig", "TwinError", "build_twin"]

#: flight-recorder records a publish's SLO evaluation reads between two
#: looks at the inbox for due injections (a few milliseconds of evaluation)
PUBLISH_CHUNK_RECORDS = 1024


class TwinError(RuntimeError):
    """Raised for invalid twin control operations (past-time commands, …)."""


@dataclass(frozen=True)
class TwinConfig:
    """Runtime knobs of the engine thread (not of the simulated city)."""

    slice_s: float = 60.0           # max simulated seconds per engine slice
    telemetry_every_s: float = 900.0  # sim-seconds between telemetry publishes
    pace: float = 0.0               # real seconds per sim second (0 = free run)
    ring_capacity: int = 65536      # flight-recorder depth
    trace_tail_per_publish: int = 10  # max trace records per telemetry event
    start_paused: bool = False

    def __post_init__(self) -> None:
        if self.slice_s <= 0:
            raise ValueError(f"slice_s must be > 0, got {self.slice_s}")
        if self.telemetry_every_s <= 0:
            raise ValueError(
                f"telemetry_every_s must be > 0, got {self.telemetry_every_s}")
        if self.pace < 0:
            raise ValueError(f"pace must be >= 0, got {self.pace}")


@dataclass(order=True)
class _Command:
    """One operation to apply on the engine thread at sim-time ``at``."""

    at: float
    order: int
    label: str = field(compare=False)
    fn: Callable[[Any], Any] = field(compare=False)
    done: threading.Event = field(compare=False, default_factory=threading.Event)
    result: Any = field(compare=False, default=None)
    error: Optional[BaseException] = field(compare=False, default=None)
    #: may apply inside a telemetry publish: it does not advance simulated
    #: time, and a client waits on it (request injection)
    in_publish: bool = field(compare=False, default=False)


class DigitalTwin:
    """Drives one :class:`LiveScenario` step-wise on a background thread."""

    def __init__(self, scenario: LiveScenario, obs: Observability,
                 config: Optional[TwinConfig] = None,
                 bus: Optional[EventBus] = None,
                 slo_engine: Optional[SLOEngine] = None):
        self.scenario = scenario
        self.mw = scenario.mw
        self.obs = obs
        self.config = config if config is not None else TwinConfig()
        self.bus = bus if bus is not None else EventBus()
        self.slo_engine = slo_engine if slo_engine is not None else SLOEngine()

        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._wake = threading.Event()   # kicks a paused/pacing engine loop
        if self.config.start_paused:
            self._paused.set()
        self._finished = threading.Event()

        self._inbox: List[_Command] = []   # heap, guarded by _inbox_lock
        self._inbox_lock = threading.Lock()
        self._closed = False   # engine loop exited; set under _inbox_lock
        self._cmd_order = itertools.count()
        self._pause_at: Optional[float] = None

        self._started_wall: Optional[float] = None
        self._last_telemetry_at = float("-inf")
        self._published_windows: set = set()
        self._trace_published = 0
        self.commands_applied = 0
        self.injected: Dict[str, int] = {"heating": 0, "edge": 0, "cloud": 0}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (GIL-atomic float read)."""
        return self.mw.engine.now

    @property
    def paused(self) -> bool:
        """True when the engine loop is holding at a boundary."""
        return self._paused.is_set()

    @property
    def finished(self) -> bool:
        """True once the run horizon has been reached."""
        return self._finished.is_set()

    @property
    def running(self) -> bool:
        """True while the engine thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Launch the engine thread (idempotent once)."""
        if self._thread is not None:
            raise TwinError("twin already started")
        self._started_wall = time.monotonic()
        # published before the engine thread exists: this thread may wait
        # longer for the interpreter lock than a short run takes
        self.bus.publish("run.started", {
            "now": self.now, "t_end": self.scenario.t_end,
            "scenario": self.scenario.config.to_dict(),
        })
        self._thread = threading.Thread(
            target=self._loop, name="repro-twin", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the engine thread to exit and join it."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the run to reach its horizon; True when it did."""
        return self._finished.wait(timeout=timeout)

    # ------------------------------------------------------------------ #
    # control API (called from IO threads)
    # ------------------------------------------------------------------ #
    def pause(self) -> float:
        """Hold the engine at the next slice boundary; returns sim-now."""
        self._pause_at = None
        self._paused.set()
        return self.now

    def pause_at(self, t: float) -> None:
        """Hold the engine exactly at simulated time ``t`` (determinism
        anchor: the loop will advance to ``t`` and stop there)."""
        if t < self.now:
            raise TwinError(f"pause_at {t} is before now={self.now}")
        self._pause_at = float(t)
        self._wake.set()

    def resume(self) -> None:
        """Release a paused engine loop (a scheduled pause_at anchor that
        has not fired yet stays armed)."""
        self._paused.clear()
        self._wake.set()

    def submit(self, label: str, fn: Callable[[Any], Any],
               at: Optional[float] = None,
               wait: Optional[float] = None) -> _Command:
        """Enqueue ``fn(mw)`` to run on the engine thread at sim-time ``at``.

        ``at=None`` means "at the next boundary" (the engine stamps it with
        its current sim time when it picks the command up).  With ``wait``,
        blocks up to that many real seconds for the command to apply and
        re-raises any error it hit.
        """
        return self._submit(label, fn, at, wait, in_publish=False)

    def _submit(self, label: str, fn: Callable[[Any], Any],
                at: Optional[float], wait: Optional[float],
                in_publish: bool) -> _Command:
        """:meth:`submit`; ``in_publish`` lets the command apply inside a
        telemetry publish, so only a ``fn`` that does not advance simulated
        time may ask for it."""
        if at is not None and at < self.now:
            raise TwinError(f"command {label!r} at={at} is before now={self.now}")
        if at is not None and at > self.scenario.t_end:
            raise TwinError(f"command {label!r} at={at} is after the run's "
                            f"end t_end={self.scenario.t_end}")
        cmd = _Command(at=float(at) if at is not None else float("-inf"),
                       order=next(self._cmd_order), label=label, fn=fn,
                       in_publish=in_publish)
        with self._inbox_lock:
            # tested under the lock the engine thread sets them under, so a
            # command is either queued before the final drain or refused
            if self._finished.is_set():
                raise TwinError(f"command {label!r}: run already finished")
            if self._closed:
                raise TwinError(f"command {label!r}: engine loop exited")
            heapq.heappush(self._inbox, cmd)
        self._wake.set()
        if wait is not None:
            if not cmd.done.wait(timeout=wait):
                raise TwinError(f"command {label!r} did not apply within {wait}s")
            if cmd.error is not None:
                raise cmd.error
        return cmd

    def step(self, dt: float, wait: float = 30.0) -> float:
        """While paused, advance exactly ``dt`` simulated seconds, or to the
        run's end if that comes first.

        Returns the new sim-now.  The advance happens on the engine thread
        (single-writer rule), the caller blocks until it lands.
        """
        if not self._paused.is_set():
            raise TwinError("step() requires a paused twin")
        if dt <= 0:
            raise TwinError(f"step dt must be > 0, got {dt}")
        target = min(self.now + dt, self.scenario.t_end)
        cmd = self.submit(f"step:{dt}", lambda mw: mw.run_until(target),
                          wait=wait)
        return cmd.result if cmd.result is not None else self.now

    # ------------------------------------------------------------------ #
    # high-level commands (request injection, scenario mutation)
    # ------------------------------------------------------------------ #
    def inject_request(self, req, flow: str, at: Optional[float] = None,
                       wait: Optional[float] = None) -> _Command:
        """Inject one request at sim-time ``at``.

        ``req`` is either a built request object (its ``time`` must not be
        earlier than ``at``) or a callable ``sim_now -> request`` invoked on
        the engine thread at apply time — the path HTTP callers use when they
        do not pin ``at`` and just mean "as soon as possible".
        """

        def _apply(mw):
            r = req(mw.engine.now) if callable(req) else req
            mw.inject([r])
            self.injected[flow] = self.injected.get(flow, 0) + 1
            return r.request_id

        return self._submit(f"inject:{flow}", _apply, at, wait,
                            in_publish=True)

    def set_weather_override(self, delta_c: float, at: Optional[float] = None,
                             wait: Optional[float] = None) -> _Command:
        """Apply an additive outdoor-temperature forcing (cold snap / heat
        wave) from sim-time ``at`` onward."""
        return self.submit(
            f"weather:{delta_c:+g}",
            lambda mw: mw.weather.set_override(delta_c), at=at, wait=wait)

    def set_grid_cap(self, cap_w: Optional[float], at: Optional[float] = None,
                     wait: Optional[float] = None) -> _Command:
        """Apply a demand-response price signal (grid power cap, W; None
        lifts it) from sim-time ``at`` onward."""
        return self.submit(
            f"grid_cap:{cap_w}",
            lambda mw: mw.smartgrid.set_grid_cap(cap_w), at=at, wait=wait)

    def kill_district(self, district: int, at: Optional[float] = None,
                      wait: Optional[float] = None) -> _Command:
        """Take a whole district down: master fails, every server hard-fails.

        Hard failures stay down (churn-model semantics) instead of being
        powered back up by the smart grid on the next thermal tick — a
        district kill should look like an outage, not a blink.
        """
        from repro.core.faults import FaultInjector

        def _apply(mw):
            if district not in mw.clusters:
                raise TwinError(f"no such district {district}")
            inj = FaultInjector(mw)
            inj.fail_master(district)
            killed = []
            for server in mw.clusters[district].workers:
                if not server.failed:
                    inj.crash_server(server.name, hard=True)
                    killed.append(server.name)
            return {"district": district, "servers_killed": killed}

        return self.submit(f"kill_district:{district}", _apply, at=at, wait=wait)

    # ------------------------------------------------------------------ #
    # engine loop (the only simulation writer)
    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                if self._paused.is_set():
                    self._apply_due_commands(self.now)
                    self._wake.wait(timeout=0.05)
                    self._wake.clear()
                    continue
                target = self._next_boundary()
                if target > self.now:
                    if self.config.pace > 0:
                        time.sleep(min(self.config.pace * (target - self.now),
                                       1.0))
                    self.mw.run_until(target)
                self._apply_due_commands(target)
                if self._pause_at is not None and self.now >= self._pause_at:
                    self._pause_at = None
                    self._paused.set()
                    self.bus.publish("run.paused", {"now": self.now})
                self._maybe_publish_telemetry()
                if self.now >= self.scenario.t_end:
                    self._publish_telemetry(final=True)
                    self._close_inbox()
                    self.bus.publish("run.finished", {
                        "now": self.now,
                        "wall_s": time.monotonic() - self._started_wall,
                    })
                    break
        except Exception as exc:  # surface engine-thread death to clients
            with self._inbox_lock:
                self._finished.set()
            self.bus.publish("run.error", {"now": self.now, "error": repr(exc)})
            raise
        finally:
            # fail fast for anyone blocked on a command that can never apply
            self._reject_pending("engine loop exited")

    def _next_boundary(self) -> float:
        """Next simulated time to stop at: slice end, command, pause, end.

        A command already due (``at=None``, or ``at`` equal to now because
        it arrived while this thread was publishing telemetry) makes the
        boundary now: the loop applies it before it advances.
        """
        target = min(self.now + self.config.slice_s, self.scenario.t_end)
        with self._inbox_lock:
            if self._inbox:
                target = max(min(target, self._inbox[0].at), self.now)
        if self._pause_at is not None:
            target = min(target, self._pause_at)
        return target

    def _close_inbox(self) -> None:
        """Apply what arrived during the final publish, then mark the run
        finished under the inbox lock: every command ``submit`` accepted is
        applied at ``t_end``, and later ones are refused."""
        while True:
            self._apply_due_commands(self.now)
            with self._inbox_lock:
                if not self._inbox:
                    self._finished.set()
                    return

    def _apply_due_commands(self, boundary: float,
                            in_publish: bool = False) -> None:
        """Run every queued command with ``at <= boundary`` in (at, order).

        With ``in_publish`` (the engine thread is inside a telemetry
        publish) it stops at the first due command that may not apply
        there, so the order holds.
        """
        while True:
            with self._inbox_lock:
                if not self._inbox or self._inbox[0].at > boundary:
                    return
                if in_publish and not self._inbox[0].in_publish:
                    return
                cmd = heapq.heappop(self._inbox)
            try:
                cmd.result = cmd.fn(self.mw)
                self.commands_applied += 1
                self.bus.publish("command.applied", {
                    "now": self.now, "label": cmd.label,
                    "at": None if cmd.at == float("-inf") else cmd.at,
                })
            except BaseException as exc:
                cmd.error = exc
                self.bus.publish("command.failed", {
                    "now": self.now, "label": cmd.label, "error": repr(exc),
                })
            finally:
                cmd.done.set()

    def _reject_pending(self, reason: str) -> None:
        with self._inbox_lock:
            self._closed = True
            pending, self._inbox = self._inbox, []
        for cmd in pending:
            cmd.error = TwinError(f"command {cmd.label!r} dropped: {reason}")
            cmd.done.set()

    # ------------------------------------------------------------------ #
    # telemetry (engine thread)
    # ------------------------------------------------------------------ #
    def _maybe_publish_telemetry(self) -> None:
        if self.now - self._last_telemetry_at >= self.config.telemetry_every_s:
            self._publish_telemetry()

    def _publish_telemetry(self, final: bool = False) -> None:
        self._last_telemetry_at = self.now
        self.bus.publish("state", self.state_dict())
        self.bus.publish("metrics", {
            "now": self.now, "series": self.obs.registry.snapshot(),
        })
        self._publish_slo_windows(final)
        self._publish_trace_tail()

    def _publish_slo_windows(self, final: bool) -> None:
        """Publish each SLO window once it has closed (``end <= now``); the
        run's final publish flushes the windows still open."""
        records = self.obs.tracer.tail(len(self.obs.tracer))
        if not records:
            return
        report = self.slo_engine.evaluate(self._admitting_injections(records),
                                          tracer=None)
        for result in report.results:
            for w in result.windows:
                key = (result.spec.name, w.start_ts)
                if key in self._published_windows or \
                        (w.end_ts > self.now and not final):
                    continue
                self._published_windows.add(key)
                payload = {"now": self.now, "slo": result.spec.name,
                           "flow": result.spec.flow,
                           "target": result.spec.target, **w.to_dict()}
                self.bus.publish("slo.burn_rate", payload)
                if w.breached:
                    self.bus.publish("slo.breach", payload)

    def _admitting_injections(self, records: List[Any]) -> Iterator[Any]:
        """``records``, applying due injections every
        :data:`PUBLISH_CHUNK_RECORDS` of them.

        The SLO evaluation over the whole flight recorder is most of a
        publish (up to ~100 ms late in a served F3 day), and a command
        waiting it out makes its client wait too.  An injection applied here
        lands at the publish's own simulated time, where the loop would
        apply it right after the publish, so the run is the same; only the
        feed differs: its ``command.applied`` event comes before this
        publish's SLO and ``trace`` frames, and its trace records ride in
        this publish's ``trace`` frame instead of the next one.  ``records``
        is a copy, so the SLO tables do not see them until the next publish,
        as before.
        """
        def chunks() -> Iterator[List[Any]]:
            for start in range(0, len(records), PUBLISH_CHUNK_RECORDS):
                if start:
                    self._apply_due_commands(self.now, in_publish=True)
                yield records[start:start + PUBLISH_CHUNK_RECORDS]

        return itertools.chain.from_iterable(chunks())

    def _publish_trace_tail(self) -> None:
        tracer = self.obs.tracer
        new = tracer.total_emitted - self._trace_published
        if new <= 0:
            return
        take = min(new, self.config.trace_tail_per_publish)
        tail = tracer.tail(take)
        self._trace_published = tracer.total_emitted
        self.bus.publish("trace", {
            "now": self.now,
            "emitted_total": tracer.total_emitted,
            "new": new,
            "shown": len(tail),
            "records": [r.to_dict() for r in tail],
        })

    # ------------------------------------------------------------------ #
    # read views (safe from IO threads: snapshots + GIL-atomic scalars)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, Any]:
        """Run-level status: clocks, progress, lifecycle, scenario.

        When the middleware runs a resilience runtime, the policy engine's
        decision counters (and the adaptive controller's current assignment)
        ride along under ``"resilience"`` — they reach SSE subscribers with
        every ``state`` telemetry event.
        """
        now = self.now
        t0, t_end = self.scenario.t0, self.scenario.t_end
        span = t_end - t0
        out = {
            "now": now,
            "t_start": t0,
            "t_end": t_end,
            "progress": min(1.0, (now - t0) / span) if span > 0 else 1.0,
            "paused": self.paused,
            "finished": self.finished,
            "events_executed": self.mw.engine.events_executed,
            "commands_applied": self.commands_applied,
            "injected": dict(self.injected),
            "submitted": self.scenario.submitted,
            "wall_uptime_s": (time.monotonic() - self._started_wall
                              if self._started_wall is not None else 0.0),
            "scenario": self.scenario.config.to_dict(),
        }
        if self.mw.resilience is not None:
            out["resilience"] = self.mw.resilience.status_dict()
        if getattr(self.mw, "surrogate", None) is not None:
            # the surrogate tier's error-budget monitor rides the same
            # telemetry: /api/state and every SSE "state" event carry it
            out["surrogate"] = self.mw.surrogate.budget_status()
        return out

    def fleet_dict(self) -> Dict[str, Any]:
        """City-level rollup: energy, flow outcomes, district health."""
        mw = self.mw
        districts = []
        for d in sorted(mw.clusters):
            workers = list(mw.clusters[d].workers)
            districts.append({
                "district": d,
                "servers": len(workers),
                "servers_up": sum(1 for s in workers
                                  if s.enabled and not s.failed),
                "free_cores": sum(s.free_cores for s in workers),
                "busy_cores": sum(s.busy_cores for s in workers),
                "master_up": mw.edge_gateways[d].master_up,
            })
        return {
            "now": self.now,
            "fleet_energy_kwh": mw.fleet_energy_j() / 3.6e6,
            "edge_completed": len(mw.completed_edge()),
            "edge_expired": len(mw.expired_edge()),
            "cloud_completed": len(mw.completed_cloud()),
            "grid_cap_w": mw.smartgrid.grid_cap_w,
            "weather_override_c": mw.weather.override_delta_c,
            "outdoor_temp_c": float(mw.weather.outdoor_temperature(
                min(self.now, mw.weather.horizon))),
            "districts": districts,
        }

    def servers_dict(self) -> List[Dict[str, Any]]:
        """Per-server rows (name, cores, load, power, health)."""
        rows = []
        for d in sorted(self.mw.clusters):
            for s in self.mw.clusters[d].workers:
                rows.append({
                    "district": d,
                    "name": s.name,
                    "cores": s.spec.n_cores,
                    "busy_cores": s.busy_cores,
                    "free_cores": s.free_cores,
                    "power_w": s.power_w(),
                    "enabled": s.enabled,
                    "failed": s.failed,
                })
        return rows

    def slo_dict(self) -> Dict[str, Any]:
        """SLO compliance tables over the records the flight recorder holds.

        The ring keeps only the last ``ring_capacity`` records, so on a long
        run the tables cover its tail, not the whole run, and the first
        window may be a fragment.  ``coverage`` says what was evaluated: the
        records held, the records emitted but not held (``evicted``; while
        the run is live this also counts any emitted after the snapshot),
        and the first and last record times.
        """
        tracer = self.obs.tracer
        records = tracer.tail(len(tracer))
        report = self.slo_engine.evaluate(records, tracer=None)
        out = report.to_dict()
        out["coverage"] = {
            "records": len(records),
            "evicted": tracer.total_emitted - len(records),
            "first_ts": records[0].ts if records else None,
            "last_ts": records[-1].ts if records else None,
        }
        return out

    def spans_dict(self, prefix: str = "edge.", slowest_n: int = 5) -> Dict[str, Any]:
        """Span-tree summary over the flight recorder."""
        records = self.obs.tracer.tail(len(self.obs.tracer))
        return SpanIndex(records).to_dict(prefix=prefix, slowest_n=slowest_n)

    def metrics_dict(self) -> Dict[str, Any]:
        """Current metrics snapshot keyed by rendered series name."""
        return self.obs.registry.snapshot()

    def trace_tail_dict(self, n: int = 50) -> Dict[str, Any]:
        """The most recent ``n`` trace records (non-destructive read)."""
        tracer = self.obs.tracer
        tail = tracer.tail(n)
        return {
            "now": self.now,
            "emitted_total": tracer.total_emitted,
            "buffered": len(tracer),
            "records": [r.to_dict() for r in tail],
        }


def build_twin(scenario_config: Optional[ScenarioConfig] = None,
               twin_config: Optional[TwinConfig] = None) -> DigitalTwin:
    """One-call constructor: instrumented city + twin, not yet started."""
    cfg = twin_config if twin_config is not None else TwinConfig()
    obs = Observability(tracer=RingTracer(capacity=cfg.ring_capacity),
                        registry=MetricsRegistry())
    scenario = build_scenario(scenario_config, obs=obs)
    return DigitalTwin(scenario, obs, config=cfg)
