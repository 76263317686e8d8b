"""Vertical and horizontal offloading (paper §III-B).

"Offloading can be of two kinds: vertical and horizontal.  Vertical
offloadings are the ones done towards datacenter nodes.  Horizontal
offloadings are done towards another cluster of DF servers.  This latter case
implies to define coordination mechanisms between edge gateways.  This case
also raises questions about the fairness of cooperation between clusters."

* **vertical** — ship the request over the WAN to the classical datacenter
  (privacy-sensitive edge data is refused unless explicitly allowed: raw home
  audio should not leave the local network, §I);
* **horizontal** — ship it over metro fiber to the peer cluster with the most
  free capacity; a :class:`CooperationLedger` books who helped whom, in
  cycles, and reduces to Jain's fairness index (the paper's ref [16] concern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.hardware.server import Task
from repro.network.link import Link
from repro.obs import get_obs

__all__ = ["OffloadDirection", "CooperationLedger", "Offloader"]


class OffloadDirection(str, Enum):
    """The two offload kinds of §III-B."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class CooperationLedger:
    """Cycles each cluster executed on behalf of each other cluster."""

    def __init__(self) -> None:
        self._given: Dict[Tuple[str, str], float] = {}

    def record(self, helper: str, beneficiary: str, cycles: float) -> None:
        """Book ``cycles`` executed by ``helper`` for ``beneficiary``."""
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        if helper == beneficiary:
            raise ValueError("a cluster cannot offload to itself")
        key = (helper, beneficiary)
        self._given[key] = self._given.get(key, 0.0) + cycles

    def given_by(self, cluster: str) -> float:
        """Total cycles ``cluster`` executed for others."""
        return sum(v for (h, _), v in self._given.items() if h == cluster)

    def received_by(self, cluster: str) -> float:
        """Total cycles others executed for ``cluster``."""
        return sum(v for (_, b), v in self._given.items() if b == cluster)

    def net_balance(self, cluster: str) -> float:
        """given − received; positive = net helper."""
        return self.given_by(cluster) - self.received_by(cluster)

    def clusters(self) -> List[str]:
        """All clusters appearing in the ledger."""
        names = set()
        for h, b in self._given:
            names.update((h, b))
        return sorted(names)

    def jain_fairness(self) -> float:
        """Jain's index over per-cluster *given* volumes (1 = perfectly fair).

        Measures whether the help burden is evenly spread — the cooperation
        fairness question of the paper's ref [16].
        """
        xs = [self.given_by(c) for c in self.clusters()]
        if not xs or sum(xs) == 0:
            return 1.0
        n = len(xs)
        return sum(xs) ** 2 / (n * sum(x * x for x in xs))


class Offloader:
    """Executes offload decisions for a set of cluster schedulers.

    Parameters
    ----------
    engine: simulation engine.
    datacenter: vertical target (:class:`repro.hardware.datacenter.Datacenter`),
        optional.
    wan: WAN link to the datacenter; required with ``datacenter``.
    allow_privacy_vertical: permit privacy-sensitive edge data to leave for
        the datacenter (default False, per the paper's privacy motivation).
    """

    def __init__(self, engine, datacenter=None, wan: Optional[Link] = None,
                 allow_privacy_vertical: bool = False, obs=None):
        if datacenter is not None and wan is None:
            raise ValueError("vertical offloading needs a WAN link")
        self.engine = engine
        self.datacenter = datacenter
        self.wan = wan
        self.allow_privacy_vertical = allow_privacy_vertical
        self.obs = obs if obs is not None else get_obs()
        self.ledger = CooperationLedger()
        self._peers: Dict[str, Tuple[object, Link]] = {}
        self.vertical_count = 0
        self.horizontal_count = 0
        #: WAN link state: False during a partition (fault injection/churn)
        self.wan_up = True
        #: buffer vertical offloads during a partition and drain them on heal
        #: (the store-and-forward recovery policy) instead of refusing them
        self.store_and_forward = False
        self._sf_buffer: List[Tuple[object, object]] = []
        self.sf_buffered = 0
        self.sf_drained = 0

    # ------------------------------------------------------------------ #
    def register_peer(self, name: str, scheduler, link: Link) -> None:
        """Make ``scheduler`` reachable for horizontal offloads over ``link``."""
        if name in self._peers:
            raise ValueError(f"peer {name!r} already registered")
        self._peers[name] = (scheduler, link)

    # ------------------------------------------------------------------ #
    # vertical
    # ------------------------------------------------------------------ #
    def set_wan_up(self, up: bool) -> None:
        """Flip the WAN state; healing drains the store-and-forward buffer."""
        was_up, self.wan_up = self.wan_up, bool(up)
        if up and not was_up and self._sf_buffer:
            pending, self._sf_buffer = self._sf_buffer, []
            for req, sched in pending:
                self.sf_drained += 1
                self.vertical(req, sched)

    def can_vertical(self, req) -> bool:
        """True when the datacenter may legally take this request.

        During a WAN partition this is False unless store-and-forward is on,
        in which case the offloader *accepts* the request and buffers it
        until the link heals.
        """
        if self.datacenter is None:
            return False
        if not self.wan_up and not self.store_and_forward:
            return False
        if isinstance(req, EdgeRequest) and req.privacy_sensitive:
            return self.allow_privacy_vertical
        return True

    def vertical(self, req, from_scheduler) -> None:
        """Ship ``req`` to the datacenter (WAN delay both ways).

        With the WAN down and store-and-forward enabled the request parks in
        the offloader's buffer; it rides the first uplink after heal.
        """
        if not self.can_vertical(req):
            raise PermissionError(
                f"request {req.request_id} may not be offloaded vertically"
            )
        if not self.wan_up:
            req.status = RequestStatus.OFFLOADED
            self._sf_buffer.append((req, from_scheduler))
            self.sf_buffered += 1
            if self.obs.active:
                self.obs.emit_span("request", "offload.buffered", self.engine.now,
                                   ctx=req, id=req.request_id,
                                   src=from_scheduler.cluster.name)
                self.obs.counter("offloads", direction="buffered",
                                 flow="edge" if isinstance(req, EdgeRequest) else "cloud").inc()
            return
        self.vertical_count += 1
        req.status = RequestStatus.OFFLOADED
        uplink_delay = self.wan.delay(req.input_bytes)
        req.network_delay_s += uplink_delay
        is_edge = isinstance(req, EdgeRequest)
        if self.obs.active:
            flow = "edge" if is_edge else "cloud"
            self.obs.emit_span("request", f"{flow}.offloaded", self.engine.now,
                               ctx=req, id=req.request_id,
                               direction=OffloadDirection.VERTICAL.value,
                               src=from_scheduler.cluster.name,
                               dst=self.datacenter.name)
            self.obs.counter("offloads", direction="vertical", flow=flow).inc()

        def arrive() -> None:
            if req._clone_cancelled:
                return  # sibling won while this copy crossed the WAN

            def done(task: Task, now: float) -> None:
                result = req
                if is_edge:
                    group = req._clone_group
                    if group is not None:
                        result = group.on_complete(req, now)
                        if result is None:
                            return
                ret = self.wan.delay(req.output_bytes)
                result.network_delay_s += ret
                self.engine.schedule(
                    ret, lambda: result.mark_completed(self.engine.now))
                if is_edge:
                    from_scheduler.completed_edge.append(result)
                else:
                    from_scheduler.completed_cloud.append(result)
                if self.obs.active:
                    flow = "edge" if is_edge else "cloud"
                    service = (now - result.started_at
                               if result.started_at >= 0 else 0.0)
                    done_at = now + ret
                    extra = {}
                    if is_edge:
                        extra = {"resp_s": done_at - result.time,
                                 "ok": (done_at - result.time
                                        <= result.deadline_s + 1e-12)}
                    self.obs.emit_span(
                        "request", f"{flow}.completed", now, ctx=result,
                        dur=service, id=result.request_id,
                        worker=result.executed_on,
                        cluster=from_scheduler.cluster.name, **extra)
                    self.obs.counter("requests_completed", flow=flow,
                                     cluster=from_scheduler.cluster.name).inc()
                    self.obs.histogram("service_time_s", flow=flow).observe(service)

            req.status = RequestStatus.RUNNING
            req.started_at = self.engine.now
            req.executed_on = f"{self.datacenter.name}"
            if is_edge:
                group = req._clone_group
                if group is not None:
                    # cancel-on-start: a datacenter placement counts as the
                    # sibling-cancelling start just like a Q.rad placement
                    group.on_start(req)
            self.datacenter.submit(
                Task(
                    task_id=req.request_id,
                    work_cycles=req.cycles,
                    cores=req.cores,
                    on_complete=done,
                    metadata={"request": req, "kind": "edge" if is_edge else "cloud"},
                )
            )

        self.engine.schedule(uplink_delay, arrive)

    # ------------------------------------------------------------------ #
    # horizontal
    # ------------------------------------------------------------------ #
    def best_peer(self, req, exclude: str) -> Optional[str]:
        """Peer (≠ exclude) with the most free cores that fit ``req``."""
        best_name, best_free = None, -1
        for name, (sched, _link) in sorted(self._peers.items()):
            if name == exclude:
                continue
            free = sched.cluster.free_cores()
            fits = any(w.free_cores >= req.cores for w in sched.edge_workers())
            if fits and free > best_free:
                best_name, best_free = name, free
        return best_name

    def horizontal(self, req: EdgeRequest, from_scheduler) -> bool:
        """Ship an edge request to the best peer cluster, if any fits."""
        me = from_scheduler.cluster.name
        peer_name = self.best_peer(req, exclude=me)
        if peer_name is None:
            return False
        peer_sched, link = self._peers[peer_name]
        self.horizontal_count += 1
        req._offloaded_once = True
        req.status = RequestStatus.OFFLOADED
        if self.obs.active:
            self.obs.emit_span("request", "edge.offloaded", self.engine.now,
                               ctx=req, id=req.request_id,
                               direction=OffloadDirection.HORIZONTAL.value,
                               src=me, dst=peer_name)
            self.obs.counter("offloads", direction="horizontal", flow="edge").inc()
        hop = link.delay(req.input_bytes)
        req.network_delay_s += hop
        req._return_delay_s += link.expected_delay(req.output_bytes)
        self.ledger.record(helper=peer_name, beneficiary=me, cycles=req.cycles)
        # completion lands in the peer's lists; experiments aggregate across
        # schedulers via the middleware, so nothing is lost
        self.engine.schedule(hop, lambda: peer_sched.submit_edge(req))
        return True
