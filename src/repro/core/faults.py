"""Fault injection: crashes, master outages, WAN partitions (§III-C, §IV).

The paper raises availability twice:

* §III-C — "the availability and stability of DF servers could also be a
  problem", including physical security of servers deployed in homes;
* §IV — the resource-oriented-computing argument: "such an approach can
  easily guarantee that the basic services delivered by the resources (heat
  for instance) will continue to be delivered even if there are problems in
  the central point."

:class:`FaultInjector` provides the failure vocabulary experiments need to
test those claims against the actual middleware:

* **server crash** — kills running tasks (they are re-queued or offloaded per
  the scheduler's policy via :meth:`crash_server`'s salvage hook) and powers
  the board off until :meth:`recover_server`;
* **master outage** — the cluster's indirect-request path is down: the edge
  gateway rejects indirect submissions, while *heat regulation continues*
  (regulators are local to each server — the §IV decentralisation property);
* **WAN partition** — vertical offloading is disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.hardware.server import ComputeServer, Task

__all__ = ["FaultInjector", "FaultLog"]


@dataclass
class FaultLog:
    """What the injector did, for experiment reports."""

    server_crashes: int = 0
    server_recoveries: int = 0
    tasks_killed: int = 0
    tasks_salvaged: int = 0
    master_outages: int = 0
    wan_partitions: int = 0
    events: List[str] = field(default_factory=list)

    def note(self, t: float, what: str) -> None:
        """Append a timestamped log line."""
        self.events.append(f"t={t:.0f}s {what}")


class FaultInjector:
    """Injects faults into a :class:`~repro.core.middleware.DF3Middleware`.

    All methods are safe to call from scheduled engine events.
    """

    def __init__(self, middleware):
        self.mw = middleware
        self.log = FaultLog()
        self._down_servers: Set[str] = set()
        self._masters_down: Set[int] = set()
        self._wan_partitioned = False

    def _note(self, name: str, **args) -> None:
        """Emit a ``fault`` trace record + counter through the middleware."""
        obs = getattr(self.mw, "obs", None)
        if obs is not None and obs.active:
            obs.emit("fault", name, self.mw.engine.now, **args)
            obs.counter("fault_events", type=name.split(".", 1)[-1]).inc()

    # ------------------------------------------------------------------ #
    # server crashes
    # ------------------------------------------------------------------ #
    def crash_server(self, server_name: str, salvage: bool = True,
                     hard: bool = False) -> int:
        """Hard-fail a DF server.  Returns the number of tasks it was running
        (a filler block counts as its chunks).

        With ``salvage``, killed cloud requests re-enter their cluster's queue
        and killed edge requests are re-submitted (they may still make their
        deadline elsewhere); filler is dropped.  With ``hard``, the server is
        marked failed and stays off until :meth:`recover_server` even if the
        heat regulator asks for power (churn-model semantics); the default
        soft crash keeps the legacy behaviour where the smart grid may power
        the board back up on the next thermal tick.
        """
        killed, district = self.kill_server(server_name, hard=hard)
        if salvage:
            self.salvage_tasks(killed, district)
        return sum(t.chunks for t in killed)

    def kill_server(self, server_name: str, hard: bool = False):
        """Kill a server's tasks and power it off — no salvage.

        Returns ``(killed_tasks, district)`` so a failure detector can defer
        salvage until the crash is actually *detected* (heartbeat timeout)
        rather than the omniscient instant of the fault.
        """
        server, district = self._find(server_name)
        sur = getattr(self.mw, "surrogate", None)
        if sur is not None:
            # churn-affected districts leave the aggregate model before the
            # fault lands: the crash must hit real per-server state
            sur.ensure_live(district, reason="churn")
        killed = server.kill_all()
        n_killed = sum(t.chunks for t in killed)   # a filler block: its chunks
        if hard:
            server.fail()
        else:
            server.power_off()
        self._down_servers.add(server_name)
        self.log.server_crashes += 1
        self.log.tasks_killed += n_killed
        self.log.note(self.mw.engine.now, f"crash {server_name} ({n_killed} tasks)")
        self._note("fault.server_crash", server=server_name, district=district,
                   tasks_killed=n_killed, hard=hard)
        return killed, district

    def salvage_tasks(self, killed, district: int, progress: str = "preserve",
                      salvage_edge: bool = True) -> float:
        """Re-route tasks killed by a crash; returns the wasted (redo) cycles.

        ``progress`` sets the cloud restart point:

        * ``"preserve"`` — optimistic legacy semantics: all progress survives
          the crash (as if state were continuously replicated);
        * ``"restart"`` — the request re-runs from scratch;
        * ``"checkpoint"`` — it re-runs from the last periodic checkpoint
          (``task.metadata["ckpt_remaining"]``, written by the resilience
          runtime's checkpointer).

        Killed edge requests have their lifecycle state reset and re-enter
        through the *gateway* — so a concurrent master outage rejects salvage
        exactly as it rejects fresh indirect traffic.  With
        ``salvage_edge=False`` they are terminally rejected instead (no retry
        policy: the client never learns it should resubmit).  Filler is
        always dropped.
        """
        if progress not in ("preserve", "restart", "checkpoint"):
            raise ValueError(f"unknown progress mode {progress!r}")
        sched = self.mw.schedulers[district]
        gateway = self.mw.edge_gateways[district]
        obs = getattr(self.mw, "obs", None)
        wasted = 0.0
        for task in killed:
            kind = task.metadata.get("kind")
            req = task.metadata.get("request")
            if req is None:
                continue
            if kind == "cloud":
                if progress == "preserve":
                    restart_from = task.remaining_cycles
                elif progress == "checkpoint":
                    restart_from = task.metadata.get("ckpt_remaining", req.cycles)
                else:
                    restart_from = req.cycles
                wasted += max(0.0, restart_from - task.remaining_cycles)
                req.cycles = max(restart_from, 1.0)
                req.status = RequestStatus.QUEUED
                if obs is not None and obs.active:
                    obs.emit_span("resilience", "cloud.salvaged",
                                  self.mw.engine.now, ctx=req,
                                  id=req.request_id, server=req.executed_on,
                                  progress=progress)
                sched.cloud_queue.push_front(req)
                self.log.tasks_salvaged += 1
            elif kind == "edge":
                if not salvage_edge:
                    sched.reject_edge(req, reason="crash")
                    continue
                if progress == "preserve":
                    req.cycles = max(task.remaining_cycles, 1.0)
                else:
                    wasted += max(0.0, req.cycles - task.remaining_cycles)
                if obs is not None and obs.active:
                    obs.emit_span("resilience", "edge.salvaged",
                                  self.mw.engine.now, ctx=req,
                                  id=req.request_id, server=req.executed_on,
                                  progress=progress)
                req.status = RequestStatus.QUEUED
                req.started_at = -1.0
                req.executed_on = ""
                gateway.resubmit(req)
                self.log.tasks_salvaged += 1
        sched.drain()
        return wasted

    def recover_server(self, server_name: str) -> None:
        """Bring a crashed server back (empty, powered on)."""
        if server_name not in self._down_servers:
            raise ValueError(f"server {server_name!r} is not down")
        server, district = self._find(server_name)
        server.repair()
        self._down_servers.discard(server_name)
        self.log.server_recoveries += 1
        self.log.note(self.mw.engine.now, f"recover {server_name}")
        self._note("fault.server_recover", server=server_name, district=district)
        self.mw.schedulers[district].drain()

    def _find(self, server_name: str):
        district = self.mw.server_district.get(server_name)
        if district is None:
            raise KeyError(f"no server named {server_name!r} in any cluster")
        return self.mw.clusters[district].worker(server_name), district

    @property
    def down_servers(self) -> Set[str]:
        """Names of currently crashed servers."""
        return set(self._down_servers)

    # ------------------------------------------------------------------ #
    # master outage
    # ------------------------------------------------------------------ #
    def fail_master(self, district: int) -> None:
        """Take a district's master down: indirect edge submission rejects.

        The direct path survives (it does not need the master, §II-C) and the
        gateway keeps its obs instrumentation — the outage is a first-class
        :attr:`EdgeGateway.master_up` flag, not a method patch.
        """
        if district in self._masters_down:
            raise ValueError(f"master of district {district} already down")
        self.mw.edge_gateways[district].master_up = False
        self._masters_down.add(district)
        self.log.master_outages += 1
        self.log.note(self.mw.engine.now, f"master outage district {district}")
        self._note("fault.master_outage", district=district)

    def restore_master(self, district: int) -> None:
        """Bring a district's master back."""
        if district not in self._masters_down:
            raise ValueError(f"master of district {district} is not down")
        self.mw.edge_gateways[district].master_up = True
        self._masters_down.discard(district)
        self.log.note(self.mw.engine.now, f"master restored district {district}")
        self._note("fault.master_restore", district=district)

    def master_is_down(self, district: int) -> bool:
        """Whether a district's master is currently out."""
        return district in self._masters_down

    # ------------------------------------------------------------------ #
    # WAN partition
    # ------------------------------------------------------------------ #
    def partition_wan(self) -> None:
        """Cut the city off from the datacenter (vertical offloading fails).

        With :attr:`Offloader.store_and_forward` enabled, vertical offloads
        buffer during the partition instead of failing, and drain on heal.
        """
        if self._wan_partitioned:
            raise ValueError("WAN already partitioned")
        self.mw.offloader.set_wan_up(False)
        self._wan_partitioned = True
        self.log.wan_partitions += 1
        self.log.note(self.mw.engine.now, "WAN partitioned")
        self._note("fault.wan_partition")

    def heal_wan(self) -> None:
        """Restore datacenter connectivity."""
        if not self._wan_partitioned:
            raise ValueError("WAN is not partitioned")
        self.mw.offloader.set_wan_up(True)
        self._wan_partitioned = False
        self.log.note(self.mw.engine.now, "WAN healed")
        self._note("fault.wan_heal")

    @property
    def wan_partitioned(self) -> bool:
        """Whether the WAN is currently cut."""
        return self._wan_partitioned
