"""Recovery policies: what the middleware does once a failure is *detected*.

The pipeline for every churn-induced crash is

    fail (ChurnModel) → kill, heartbeats stop (FaultInjector.kill_server)
      → detect (HeartbeatFailureDetector, timeout later)
        → salvage (FaultInjector.salvage_tasks under the armed policies)

Nothing is salvaged at the instant of the fault — orphaned tasks are only
re-routed after the detection latency, which is what makes detection tuning
matter and what experiment A6 measures.

Armed policies (:class:`~repro.core.resilience.config.RecoveryConfig`):

* **retry** — crashed/rejected edge requests resubmit through the gateway
  with exponential backoff + jitter (the gateway owns the backoff; this
  runtime arms it and routes crash salvage through ``gateway.resubmit``);
* **clone** — tight-deadline indirect edge requests are speculatively
  duplicated to the best peer district; first completion wins, the loser is
  cancelled (queued → lazily dropped, running → preempted) and its executed
  cycles are booked as waste.  With ``clone_cancel_on="start"`` the sibling
  is cancelled the instant either member *begins execution* (synchronized-
  service cloning, per the PS-model reproducibility report in PAPERS.md), so
  at most one copy ever burns cycles; ``clone_max_utilisation`` and
  ``clone_max_queue_depth`` additionally gate spawning on the home district's
  paying load — cloning only helps while the system has slack;
* **checkpoint** — a per-district periodic process snapshots every running
  cloud task's remaining work into ``task.metadata["ckpt_remaining"]``; crash
  salvage restarts from the last snapshot instead of from scratch;
* **failover** — a standby master takes over ``failover_takeover_s`` after a
  master outage is detected (``EdgeGateway.master_up`` flips back on);
* **store_and_forward** — vertical offloads buffer in the
  :class:`~repro.core.offloading.Offloader` during WAN partitions and drain
  on heal.

With ``RecoveryConfig.adaptive`` the runtime additionally owns a
:class:`~repro.core.resilience.policy.PolicyController` that re-picks the
discipline per flow class at runtime; every spawn/skip/cancel/switch the
engine makes is recorded as a ``policy.decision`` trace record (threaded
into the request's span tree when it concerns one request) and counted in
``ResilienceLog.policy_decisions``.

Without any policy armed, crashes restart cloud work from scratch (clients
eventually resubmit — full redo, maximal waste) and edge requests die with
the server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.faults import FaultInjector
from repro.core.requests import EdgeMode, EdgeRequest, RequestStatus
from repro.core.resilience.churn import ChurnModel
from repro.core.resilience.config import ResilienceConfig
from repro.core.resilience.detector import HeartbeatFailureDetector
from repro.core.resilience.policy import PolicyController
from repro.obs import adopt_chain, copy_span_context, link_spans

__all__ = ["CloneGroup", "RecoveryRuntime", "ResilienceLog"]


@dataclass
class ResilienceLog:
    """What churn did and what recovery salvaged, for experiment reports."""

    server_failures: int = 0
    server_repairs: int = 0
    master_failures: int = 0
    failovers: int = 0
    wan_flaps: int = 0
    checkpoints_taken: int = 0
    clones_spawned: int = 0
    clone_wins: int = 0            # times the speculative copy finished first
    tasks_salvaged: int = 0
    #: cycles a losing clone executed before cancellation (speculation tax)
    clone_waste_cycles: float = 0.0
    #: cycles lost to crashes: redo-after-restart beyond the last checkpoint
    failure_waste_cycles: float = 0.0
    #: policy-engine decision counters (``spawn_clone``, ``skip_clone``,
    #: ``cancel_sibling``, ``switch_<flow_class>`` …)
    policy_decisions: Dict[str, int] = field(default_factory=dict)
    detection_latencies_s: List[float] = field(default_factory=list)

    @property
    def wasted_cycles(self) -> float:
        """Total cycles executed and thrown away, both attributions summed."""
        return self.clone_waste_cycles + self.failure_waste_cycles

    def detection_latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of detection latency (0 when no failures)."""
        xs = sorted(self.detection_latencies_s)
        if not xs:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * len(xs)))
        return xs[min(rank, len(xs)) - 1]


class CloneGroup:
    """First-completion-wins pair of an edge request and its speculative copy.

    Both members carry this group in ``req._clone_group``;
    schedulers/offloaders consult it at completion and terminal rejection:

    * :meth:`on_complete` — returns the **primary** (with the winner's
      attribution copied onto it) for the first finisher, ``None`` for the
      loser (its result is discarded and booked as waste);
    * :meth:`on_failure` — returns ``None`` while the sibling is still in
      flight (the failure is silent: the sibling may yet win) and the primary
      once both members are dead, so exactly one terminal record exists;
    * :meth:`on_start` — with ``cancel_on="start"``, the first member to be
      placed on a server cancels its sibling immediately.  At that instant
      the sibling cannot itself be running (it would have fired its own
      start hook first), so cancel-on-start never preempts mid-execution:
      the loser is still queued or in network flight and is dropped lazily,
      making the speculation's cycle waste essentially zero.
    """

    __slots__ = ("primary", "clone", "runtime", "cancel_on", "started",
                 "resolved", "_dead")

    def __init__(self, primary: EdgeRequest, clone: EdgeRequest, runtime,
                 cancel_on: str = "completion"):
        self.primary = primary
        self.clone = clone
        self.runtime = runtime
        self.cancel_on = cancel_on
        self.started = False
        self.resolved = False
        self._dead = 0  # bit 1 = primary dead, bit 2 = clone dead

    def on_start(self, member: EdgeRequest) -> None:
        """A member was just placed on a server; under ``cancel_on="start"``
        the sibling is cancelled now rather than at first completion."""
        if self.cancel_on != "start" or self.started or self.resolved:
            return
        self.started = True
        loser = self.clone if member is self.primary else self.primary
        # mark the loser dead so a later terminal failure of the starter
        # still yields exactly one terminal record (via the _dead == 3 path)
        self._dead |= 2 if loser is self.clone else 1
        self.runtime._cancel_loser(loser)
        self.runtime.decide(
            "cancel_sibling", ctx=member, id=self.primary.request_id,
            starter="clone" if member is self.clone else "primary")

    def on_complete(self, member: EdgeRequest, now: float):
        if self.resolved or self._dead & (2 if member is self.clone else 1):
            # the loser ran to completion anyway (e.g. in the datacenter,
            # beyond preemption reach): pure speculation waste
            self.runtime.log.clone_waste_cycles += member.cycles
            return None
        self.resolved = True
        winner_is_clone = member is self.clone
        self.runtime._cancel_loser(self.primary if winner_is_clone else self.clone)
        if winner_is_clone:
            # the primary is the caller-visible request: graft the winning
            # copy's execution record onto it
            p, c = self.primary, self.clone
            p.started_at = c.started_at
            p.executed_on = c.executed_on
            p.network_delay_s = c.network_delay_s
            p._return_delay_s = c._return_delay_s
            if self.runtime.mw.obs.tracer.enabled:
                # the completion record must parent to the clone's execution
                # — the true cause — not the primary's abandoned attempt
                adopt_chain(p, c)
            self.runtime.log.clone_wins += 1
        return self.primary

    def on_failure(self, member: EdgeRequest):
        bit = 2 if member is self.clone else 1
        if self.resolved or self._dead & bit:
            return None
        self._dead |= bit
        if self._dead == 3:
            self.resolved = True
            return self.primary
        return None


class RecoveryRuntime:
    """Arms the recovery policies on a middleware and reacts to churn."""

    def __init__(self, middleware, config: ResilienceConfig):
        self.mw = middleware
        self.cfg = config
        self.engine = middleware.engine
        self.log = ResilienceLog()
        #: per district, the peers a speculative copy may go to (ascending)
        self._peers: Dict[int, List[int]] = {
            d: [p for p in sorted(middleware.clusters) if p != d]
            for d in middleware.clusters}
        self.injector = FaultInjector(middleware)
        self.detector = HeartbeatFailureDetector(
            config.detector, middleware.rngs.stream("resilience-detector"))
        # registration order is sorted → deterministic phase draws
        for d in sorted(middleware.clusters):
            for w in middleware.clusters[d].workers:
                self.detector.register(w.name)
        for d in sorted(middleware.edge_gateways):
            self.detector.register(f"master-{d}")

        rec = config.recovery
        if rec.retry:
            for d in sorted(middleware.edge_gateways):
                gw = middleware.edge_gateways[d]
                gw.retry_policy = rec
                gw.retry_rng = middleware.rngs.stream(f"resilience-retry-{d}")
        middleware.offloader.store_and_forward = rec.store_and_forward
        if rec.checkpoint:
            # phase-shifted per district so checkpointers don't pile onto
            # the same event timestamps
            for i, d in enumerate(sorted(middleware.clusters)):
                self.engine.add_process(
                    f"ckpt-{d}", rec.checkpoint_interval_s,
                    self._checkpoint_fn(d), offset=float(i))

        # only built when asked for: non-adaptive configurations register no
        # extra engine process and stay byte-identical to the fixed policies
        self.policy: Optional[PolicyController] = None
        if rec.adaptive:
            self.policy = PolicyController(self, config)

        self.churn: Optional[ChurnModel] = None
        if config.enable_churn:
            self.churn = ChurnModel(middleware, config.churn, self)

    # ------------------------------------------------------------------ #
    # decision provenance
    # ------------------------------------------------------------------ #
    def decide(self, action: str, ctx=None, **fields) -> None:
        """Count a policy decision and emit its ``policy.decision`` record.

        With a request context the record is a *span* threaded into that
        request's causal chain (so ``repro report`` waterfalls show why a
        clone existed); pass ``ctx`` only for requests that already carry
        spans — a pre-submission decision (``skip_clone``) or a controller
        switch emits a plain record instead, so ``edge.received`` stays every
        trace's root.  Counters update unconditionally — they are part of
        the deterministic simulation state, not observability.
        """
        self.log.policy_decisions[action] = \
            self.log.policy_decisions.get(action, 0) + 1
        obs = self.mw.obs
        if obs.active:
            if ctx is not None:
                obs.emit_span("policy", "policy.decision", self.engine.now,
                              ctx=ctx, action=action, **fields)
            else:
                obs.emit("policy", "policy.decision", self.engine.now,
                         action=action, **fields)

    def paying_load(self, district: int):
        """(busy paying cores, live cores) of one district's fleet.

        Filler tasks are excluded from the busy count: filler is displaced
        the instant paying work arrives, so a filler-saturated winter fleet
        is *not* loaded in the PS-model sense.  Dead servers drop out of the
        denominator — their cores are not available to anyone.  Each
        server's share is its :attr:`~repro.hardware.server.ComputeServer.
        paying_cores`, so the cost is per server, not per running task.
        """
        busy = total = 0
        for w in self.mw.clusters[district].workers:
            if not w.enabled:
                continue
            total += w.n_cores
            busy += w.paying_cores
        return busy, total

    def status_dict(self) -> Dict[str, object]:
        """JSON-ready counters for the twin's ``/api/state`` view."""
        log = self.log
        out: Dict[str, object] = {
            "server_failures": log.server_failures,
            "clones_spawned": log.clones_spawned,
            "clone_wins": log.clone_wins,
            "clone_waste_gcycles": round(log.clone_waste_cycles / 1e9, 3),
            "failure_waste_gcycles": round(log.failure_waste_cycles / 1e9, 3),
            "policy_decisions": dict(sorted(log.policy_decisions.items())),
        }
        if self.policy is not None:
            out["controller"] = self.policy.to_dict()
        return out

    # ------------------------------------------------------------------ #
    # churn hooks: failure → detect → salvage
    # ------------------------------------------------------------------ #
    def _record_detection(self, key: str, kind: str, t_fail: float) -> float:
        t_detect = self.detector.detection_time(key, t_fail)
        latency = t_detect - t_fail
        self.log.detection_latencies_s.append(latency)
        obs = self.mw.obs
        if obs.active:
            obs.emit("resilience", "failure.detected", t_detect,
                     component=key, role=kind, latency_s=round(latency, 6))
            obs.histogram("detection_latency_s", kind=kind).observe(latency)
        return t_detect

    def on_server_failure(self, name: str) -> None:
        """A server just died: kill its tasks, schedule detection-time salvage."""
        now = self.engine.now
        killed, district = self.injector.kill_server(name, hard=True)
        self.log.server_failures += 1
        t_detect = self._record_detection(name, "server", now)
        if killed:
            self.engine.schedule_at(
                t_detect, lambda: self._salvage(killed, district),
                label="resilience:salvage")

    def _salvage(self, killed, district: int) -> None:
        rec = self.cfg.recovery
        progress = "checkpoint" if rec.checkpoint else "restart"
        before = self.injector.log.tasks_salvaged
        wasted = self.injector.salvage_tasks(
            killed, district, progress=progress, salvage_edge=rec.retry)
        self.log.failure_waste_cycles += wasted
        self.log.tasks_salvaged += self.injector.log.tasks_salvaged - before

    def on_server_recovery(self, name: str) -> None:
        """Repaired: back on, empty, eligible for placement again."""
        self.injector.recover_server(name)
        self.log.server_repairs += 1

    def on_master_failure(self, district: int) -> None:
        """Master down: indirect path rejects until failover or repair."""
        now = self.engine.now
        self.injector.fail_master(district)
        self.log.master_failures += 1
        t_detect = self._record_detection(f"master-{district}", "master", now)
        if self.cfg.recovery.failover:
            self.engine.schedule_at(
                t_detect + self.cfg.recovery.failover_takeover_s,
                lambda: self._promote_standby(district),
                label="resilience:failover")

    def _promote_standby(self, district: int) -> None:
        gateway = self.mw.edge_gateways[district]
        if not gateway.master_up:
            gateway.master_up = True
            self.log.failovers += 1
            if self.mw.obs.active:
                self.mw.obs.emit("resilience", "master.failover", self.engine.now,
                                 district=district)

    def on_master_recovery(self, district: int) -> None:
        # after a failover the standby already serves; restoring the original
        # master is then a no-op flag flip, but it clears the injector state
        self.injector.restore_master(district)

    def on_wan_down(self) -> None:
        if not self.injector.wan_partitioned:
            self.injector.partition_wan()
            self.log.wan_flaps += 1

    def on_wan_up(self) -> None:
        if self.injector.wan_partitioned:
            self.injector.heal_wan()

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def _checkpoint_fn(self, district: int):
        cluster = self.mw.clusters[district]

        def tick(now: float, dt: float) -> None:
            for w in cluster.workers:
                if not w.running_tasks:
                    continue
                w.sync()
                for task in w.running_tasks:
                    if task.metadata.get("kind") == "cloud":
                        task.metadata["ckpt_remaining"] = task.remaining_cycles
                        self.log.checkpoints_taken += 1

        return tick

    # ------------------------------------------------------------------ #
    # speculative cloning
    # ------------------------------------------------------------------ #
    def wants_clone(self, req) -> bool:
        """Whether this request is *eligible* for speculative duplication."""
        rec = self.cfg.recovery
        return (rec.clone
                and isinstance(req, EdgeRequest)
                and req.mode is EdgeMode.INDIRECT
                and req.deadline_s <= rec.clone_deadline_threshold_s
                and len(self.mw.edge_gateways) > 1)

    def _clone_peer(self, district: int) -> int:
        """The district that takes the speculative copy: most free cores
        among the peers (lowest district id breaks ties)."""
        peers = self._peers[district]
        if len(peers) == 1:
            return peers[0]
        return min(peers, key=lambda d: (-self.mw.clusters[d].free_cores(), d))

    def maybe_clone(self, req, district: int) -> bool:
        """Clone ``req`` if eligible and no gate vetoes it.

        Returns True when the request (plus its clone) was submitted; False
        hands the request back to the normal single-copy path.  Three gates,
        cheapest first, each recorded as a ``skip_clone`` decision:

        * the adaptive controller has switched the tight class off cloning;
        * the **peer** district's paying utilisation exceeds
          ``clone_max_utilisation``;
        * the **peer** district's edge queue is deeper than
          ``clone_max_queue_depth``.

        The load gates look at the clone's *target*, not the request's home:
        the PS-model analysis says a clone only helps while spare capacity
        exists to absorb it — a loaded peer makes the copy pure added load,
        while a loaded *home* is exactly when racing an idle peer rescues
        the request.  Gate signals are only computed when the corresponding
        knob is armed, so the legacy always-clone configuration does no
        extra work.
        """
        if not self.wants_clone(req):
            return False
        rec = self.cfg.recovery
        if self.policy is not None:
            self.policy.note_tight_deadline(req.deadline_s)
            if not self.policy.clone_active():
                self.decide("skip_clone", id=req.request_id,
                            reason="policy_off")
                return False
        peer = self._clone_peer(district)
        if rec.clone_max_utilisation < 1.0:
            busy, total = self.paying_load(peer)
            util = busy / total if total else 1.0
            if util > rec.clone_max_utilisation:
                self.decide("skip_clone", id=req.request_id,
                            reason="peer_utilisation", peer=peer,
                            util=round(util, 6))
                return False
        if rec.clone_max_queue_depth >= 0:
            depth = len(self.mw.schedulers[peer].edge_queue)
            if depth > rec.clone_max_queue_depth:
                self.decide("skip_clone", id=req.request_id,
                            reason="peer_queue_depth", peer=peer, depth=depth)
                return False
        self.submit_cloned(req, district, peer)
        return True

    def submit_cloned(self, req: EdgeRequest, district: int,
                      peer: Optional[int] = None) -> None:
        """Submit ``req`` to its district plus a speculative copy to a peer.

        The peer with the most free cores takes the copy (lowest district id
        breaks ties) unless the caller already picked one.  The group is
        attached to *both* members before either submission so a synchronous
        rejection (master down, no retry) stays silent while the sibling is
        in flight.
        """
        if peer is None:
            peer = self._clone_peer(district)
        clone = req.shallow_copy(f"{req.request_id}#clone")
        copy_span_context(clone, req)
        group = CloneGroup(req, clone, self,
                           cancel_on=self.cfg.recovery.clone_cancel_on)
        req._clone_group = group
        clone._clone_group = group
        self.log.clones_spawned += 1
        if self.mw.obs.active:
            self.mw.obs.emit_span("resilience", "edge.cloned", self.engine.now,
                                  ctx=req, id=req.request_id,
                                  home=district, peer=peer)
        if self.mw.obs.tracer.enabled:
            # the clone's first span hangs off the primary's chain tip so
            # both execution attempts live in one causal tree
            link_spans(clone, req)
        self.mw.edge_gateways[district].submit(req)
        self.mw.edge_gateways[peer].submit(clone)
        # decided *after* submission so the span parents into the request's
        # lifecycle chain (edge.received is already the trace root)
        self.decide("spawn_clone", ctx=req, id=req.request_id,
                    home=district, peer=peer)

    def _cancel_loser(self, loser: EdgeRequest) -> None:
        """Cancel the losing clone; preempt it if it is running on a Q.rad."""
        loser._clone_cancelled = True
        if loser.status is not RequestStatus.RUNNING or not loser.executed_on:
            return  # queued or in flight: dropped lazily at the next touch
        d = self.mw.server_district.get(loser.executed_on)
        if d is None:
            # running in the datacenter: out of preemption reach; its
            # completion will be discarded (and booked as waste) by
            # CloneGroup.on_complete
            return
        worker = self.mw.clusters[d].worker(loser.executed_on)
        try:
            task = worker.preempt(loser.request_id)
        except KeyError:
            return  # completed in the same instant; on_complete discards
        self.log.clone_waste_cycles += max(
            0.0, loser.cycles - task.remaining_cycles)
        self.mw.schedulers[d].drain()  # the freed cores can serve queues
