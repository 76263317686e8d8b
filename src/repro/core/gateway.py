"""Edge and DCC gateways (paper Fig. 5).

"In both classes each DF server could either run: an edge gateway system, a
DCC gateway system or a worker system.  The gateways receive external
computing requests and assign them to workers ...  The edge gateway will
differ from the DCC gateway on the network interface it supports."

* :class:`EdgeGateway` — fronts one cluster on the **low-power network**:
  a request pays its radio delivery delay, then (indirect mode) the master's
  handling overhead, before reaching the scheduler.  Direct requests go
  straight to a named server's local LAN, skipping the master but losing
  placement choice (and raising the §II-C security flags, which we record).
* :class:`DCCGateway` — fronts the cluster on the **Internet**: WAN delivery,
  then the scheduler's cloud queue.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.requests import CloudRequest, EdgeMode, EdgeRequest, RequestStatus
from repro.hardware.server import ComputeServer, Task
from repro.network.link import Link
from repro.network.lowpower import LowPowerLink, LowPowerProtocol, ZIGBEE
from repro.obs import get_obs
from repro.sim.rng import StandardNormals

__all__ = ["EdgeGateway", "DCCGateway"]

#: LAN delay of the direct device→server path (one Ethernet/WiFi hop)
_DIRECT_LAN_S = 0.001


class EdgeGateway:
    """Low-power-network front door of one cluster.

    Parameters
    ----------
    scheduler: the cluster's scheduler (either architecture class).
    engine: simulation engine.
    protocol: low-power protocol of the building fabric (default Zigbee).
    rng: optional jitter stream for the radio links.  Its only reader is
        this gateway's :class:`~repro.sim.rng.StandardNormals` block source,
        which every link of the gateway draws from.
    """

    def __init__(self, scheduler, engine, protocol: LowPowerProtocol = ZIGBEE,
                 rng=None, obs=None):
        self.scheduler = scheduler
        self.engine = engine
        self.protocol = protocol
        self.normals = StandardNormals(rng) if rng is not None else None
        self.obs = obs if obs is not None else get_obs()
        self._links: Dict[str, LowPowerLink] = {}
        self.received = 0
        self.direct_requests = 0
        self.direct_rejections = 0
        #: first-class master state: while False the indirect path rejects
        #: (the §IV central-point failure), but obs instrumentation keeps
        #: recording and the direct path keeps working.
        self.master_up = True
        #: optional retry policy (``repro.core.resilience.RecoveryConfig``-like
        #: object with retry_* fields) + jitter stream, installed by the
        #: resilience runtime; None = reject immediately, the legacy behaviour.
        self.retry_policy = None
        self.retry_rng = None
        self.retries = 0

    def _link_for(self, source: str) -> LowPowerLink:
        link = self._links.get(source)
        if link is None:
            link = LowPowerLink(
                self.protocol, normals=self.normals,
                jitter_std_s=0.002 if self.normals is not None else 0.0)
            self._links[source] = link
        return link

    # ------------------------------------------------------------------ #
    def submit(self, req: EdgeRequest, direct_target: Optional[ComputeServer] = None) -> None:
        """Accept an edge request from a device.

        Indirect requests ride the radio to the gateway, pay the master
        overhead and enter the scheduler.  Direct requests need a
        ``direct_target`` server; if it cannot take the task immediately the
        request is rejected (no master to queue it — the §II-C trade-off).
        """
        self.received += 1
        if self.obs.active:
            self.obs.emit_span("request", "edge.received", self.engine.now,
                               ctx=req, id=req.request_id, mode=req.mode.value,
                               cluster=self.scheduler.cluster.name)
            self.obs.counter("gateway_received", flow="edge",
                             cluster=self.scheduler.cluster.name).inc()
        if req.mode is not EdgeMode.DIRECT and not self.master_up:
            # the master is the indirect path's single point of failure
            # (§IV); the request never reaches the radio link
            self._reject_or_retry(req)
            return
        source = req.source or "unknown"
        link = self._links.get(source)
        if link is None:
            link = self._link_for(source)
        engine = self.engine
        now = engine.now
        delivered = link.send(now, int(req.input_bytes))
        radio_delay = delivered - now
        req.network_delay_s += radio_delay

        if req.mode is EdgeMode.DIRECT:
            if direct_target is None:
                raise ValueError("direct edge request needs a target server")
            self.direct_requests += 1
            engine.schedule(radio_delay + _DIRECT_LAN_S,
                            lambda: self._direct_place(req, direct_target))
        else:
            overhead = self.scheduler.cluster.config.master_overhead_s
            req.network_delay_s += overhead
            # engine.schedule(delay, ...) without its extra call: the same
            # now + delay sum
            engine.schedule_at(now + (radio_delay + overhead),
                               lambda: self.scheduler.submit_edge(req))

    def resubmit(self, req: EdgeRequest) -> None:
        """Re-enter a request that already paid its delivery delays.

        Used for crash salvage and retries: the request reaches the scheduler
        synchronously (no second radio trip), but a down master still rejects
        it — outages apply to salvage exactly as to fresh traffic.
        """
        if req._clone_cancelled:
            return
        if not self.master_up:
            self._reject_or_retry(req, via_resubmit=True)
            return
        self.scheduler.submit_edge(req)

    def _reject_or_retry(self, req: EdgeRequest, via_resubmit: bool = False) -> None:
        """Master-down handling: back off and retry when configured, else reject."""
        pol = self.retry_policy
        if pol is not None and pol.retry:
            attempt = req._retry_attempts
            delay = pol.retry_base_backoff_s * (2.0 ** attempt)
            if self.retry_rng is not None and pol.retry_jitter_s > 0:
                delay += float(self.retry_rng.random()) * pol.retry_jitter_s
            deadline_at = req.time + req.deadline_s
            if (attempt < pol.retry_max_attempts
                    and self.engine.now + delay <= deadline_at):
                req._retry_attempts = attempt + 1
                self.retries += 1
                if self.obs.active:
                    self.obs.emit_span("request", "edge.retry", self.engine.now,
                                       ctx=req, id=req.request_id,
                                       attempt=attempt + 1,
                                       backoff_s=round(delay, 6))
                    self.obs.counter("edge_retries",
                                     cluster=self.scheduler.cluster.name).inc()
                resub = self.resubmit if via_resubmit else self.submit
                self.engine.schedule(delay, lambda: resub(req),
                                     label="gateway:retry")
                return
        self.scheduler.reject_edge(req, reason="master_down")

    def _direct_place(self, req: EdgeRequest, server: ComputeServer) -> None:
        task = Task(
            task_id=req.request_id,
            work_cycles=req.cycles,
            cores=req.cores,
            on_complete=lambda t, now: self._direct_done(req, now),
            metadata={"request": req, "kind": "edge"},
        )
        if server.free_cores >= req.cores and server.submit(task):
            req.status = RequestStatus.RUNNING
            req.started_at = self.engine.now
            req.executed_on = server.name
            if self.obs.active:
                self.obs.emit_span("request", "edge.scheduled", self.engine.now,
                                   ctx=req, id=req.request_id,
                                   worker=server.name,
                                   cluster=self.scheduler.cluster.name)
                self.obs.counter("requests_scheduled", flow="edge",
                                 cluster=self.scheduler.cluster.name).inc()
                self.obs.histogram("placement_wait_s", flow="edge").observe(
                    self.engine.now - req.time)
        else:
            self.direct_rejections += 1
            self.scheduler.reject_edge(req, reason="direct_full")

    def _direct_done(self, req: EdgeRequest, now: float) -> None:
        req.mark_completed(now + _DIRECT_LAN_S)
        self.scheduler.completed_edge.append(req)
        obs = self.obs
        if obs.active:
            service = now - req.started_at if req.started_at >= 0 else 0.0
            obs.emit_span("request", "edge.completed", now, ctx=req, dur=service,
                          id=req.request_id, worker=req.executed_on,
                          cluster=self.scheduler.cluster.name,
                          resp_s=req.completed_at - req.time,
                          ok=req.deadline_met())
            obs.counter("requests_completed", flow="edge",
                        cluster=self.scheduler.cluster.name).inc()
            obs.histogram("service_time_s", flow="edge").observe(service)
        self.scheduler.drain()


class DCCGateway:
    """Internet front door of one cluster."""

    def __init__(self, scheduler, engine, wan: Link, obs=None):
        self.scheduler = scheduler
        self.engine = engine
        self.wan = wan
        self.obs = obs if obs is not None else get_obs()
        self.received = 0

    def submit(self, req: CloudRequest) -> None:
        """Accept a cloud request from the Internet (uplink delay applies)."""
        self.received += 1
        if self.obs.active:
            self.obs.emit_span("request", "cloud.received", self.engine.now,
                               ctx=req, id=req.request_id,
                               cluster=self.scheduler.cluster.name)
            self.obs.counter("gateway_received", flow="cloud",
                             cluster=self.scheduler.cluster.name).inc()
        delay = self.wan.delay(req.input_bytes)
        req.network_delay_s += delay
        req._return_delay_s += self.wan.expected_delay(req.output_bytes)
        self.engine.schedule(delay, lambda: self.scheduler.submit_cloud(req))
