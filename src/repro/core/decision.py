"""The automated decision system (paper §III-B).

"In all cases, we recommend to modelize the computational problem as a
decision problem that can be solved by an automated system."

Given a saturated cluster and an edge request, :class:`DecisionSystem` picks
one of the §III-B options — queue/delay, preempt DCC work, offload
horizontally, offload vertically, or reject — from an estimate of whether each
option can still meet the deadline:

1. **QUEUE** when the EDF queue is expected to reach this request before its
   deadline (estimated from running-task residuals);
2. **PREEMPT** when preemptible DCC work can free enough cores right now;
3. **HORIZONTAL** when a peer fits it and the metro hop leaves slack;
4. **VERTICAL** when the WAN round trip leaves slack and privacy allows;
5. **REJECT** when nothing can make the deadline (failing fast beats wasting
   cycles on a response nobody can use).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.core.requests import EdgeRequest

__all__ = ["Decision", "DecisionConfig", "DecisionSystem"]


class Decision(str, Enum):
    """Possible outcomes for a saturated edge request."""

    LOCAL = "local"
    QUEUE = "queue"
    PREEMPT = "preempt"
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    REJECT = "reject"


@dataclass(frozen=True)
class DecisionConfig:
    """Tunables of the decision policy.

    ``slack_factor`` discounts the usable deadline (safety margin);
    ``prefer_preempt`` ranks preemption above horizontal offload (local
    placement keeps data in the building).
    """

    slack_factor: float = 0.8
    prefer_preempt: bool = True
    metro_hop_estimate_s: float = 0.01
    wan_rtt_estimate_s: float = 0.05

    def __post_init__(self) -> None:
        if not 0 < self.slack_factor <= 1:
            raise ValueError("slack factor must be in (0, 1]")
        if self.metro_hop_estimate_s < 0 or self.wan_rtt_estimate_s < 0:
            raise ValueError("delay estimates must be >= 0")


class DecisionSystem:
    """Deadline-feasibility-driven choice among the §III-B options."""

    def __init__(self, config: DecisionConfig = DecisionConfig()):
        self.config = config
        self.decisions: dict[Decision, int] = {d: 0 for d in Decision}

    # ------------------------------------------------------------------ #
    def _exec_time_s(self, req: EdgeRequest, scheduler) -> float:
        workers = scheduler.edge_workers()
        if not workers:
            return float("inf")
        rate = max(w.core_rate_cycles_per_s() for w in workers)
        if rate <= 0:
            rate = max(
                w.spec.ladder.top.freq_ghz * 1e9 for w in workers
            )
        return req.cycles / (rate * req.cores)

    def _queue_wait_estimate_s(self, req: EdgeRequest, scheduler) -> float:
        """Rough time until ``req.cores`` free up on some edge worker."""
        best = float("inf")
        for w in scheduler.edge_workers():
            if not w.enabled:
                continue
            if w.free_cores >= req.cores:
                return 0.0
            rate = w.core_rate_cycles_per_s()
            if rate <= 0:
                continue
            # residual times of running tasks, shortest first
            residuals = sorted(
                t.remaining_cycles / (rate * t.cores) for t in w.running_tasks
            )
            freed = w.free_cores
            for r in residuals:
                freed_cores = freed
                freed_cores += sum(
                    t.cores * t.chunks
                    for t in w.running_tasks
                    if t.remaining_cycles / (rate * t.cores) <= r
                )
                if freed_cores >= req.cores:
                    best = min(best, r)
                    break
        # pending EDF queue ahead of us adds delay; coarse linear penalty
        best += len(scheduler.edge_queue) * self._exec_time_s(req, scheduler)
        return best

    def _preemptible_cores(self, scheduler) -> int:
        return sum(
            t.cores
            for w in scheduler.edge_workers()
            for t in w.running_tasks
            if t.metadata.get("kind") == "cloud" and t.metadata["request"].preemptible
        )

    # ------------------------------------------------------------------ #
    def decide(self, req: EdgeRequest, scheduler) -> Decision:
        """Choose an action for a request that found no free cores."""
        cfg = self.config
        now = scheduler.engine.now
        budget = (req.time + req.deadline_s - now) * cfg.slack_factor
        exec_s = self._exec_time_s(req, scheduler)
        choice = self._decide_inner(req, scheduler, budget, exec_s)
        self.decisions[choice] += 1
        return choice

    def _decide_inner(self, req, scheduler, budget, exec_s) -> Decision:
        cfg = self.config
        if budget <= 0:
            return Decision.REJECT
        can_preempt = self._preemptible_cores(scheduler) + sum(
            w.free_cores for w in scheduler.edge_workers()
        ) >= req.cores
        if cfg.prefer_preempt and can_preempt and exec_s <= budget:
            return Decision.PREEMPT
        wait = self._queue_wait_estimate_s(req, scheduler)
        if wait + exec_s <= budget:
            return Decision.QUEUE
        off = scheduler.offloader
        if off is not None:
            peer = off.best_peer(req, exclude=scheduler.cluster.name)
            if peer is not None and cfg.metro_hop_estimate_s + exec_s <= budget:
                return Decision.HORIZONTAL
            if off.can_vertical(req) and cfg.wan_rtt_estimate_s + exec_s <= budget:
                return Decision.VERTICAL
        if can_preempt and exec_s <= budget:  # preemption as last resort
            return Decision.PREEMPT
        return Decision.REJECT
