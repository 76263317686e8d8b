"""Classical air-cooled datacenter: the paper's comparator substrate.

A :class:`DatacenterNode` is the same compute engine as a Q.rad, but its heat
is *removed* by a cooling plant instead of warming a room.  Cooling draws
extra electricity proportional to the IT load (a COP model), which is exactly
what PUE measures:

.. math:: \\mathrm{PUE} = \\frac{P_{IT} + P_{cooling} + P_{fixed}}{P_{IT}}

The paper cites CloudandHeat's data-furnace PUE of **1.026** versus typical
air-cooled facilities; experiment E1 regenerates that comparison.  All heat
(IT + cooling compressor work) is rejected outdoors and can be booked to the
:class:`~repro.thermal.heat_island.HeatIslandLedger` (experiment E7).

:class:`Datacenter` is a fleet of nodes with a shared admission queue — the
vertical-offloading target of §III-B.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.hardware.cpu import DVFSLadder
from repro.hardware.server import ComputeServer, ServerSpec, Task
from repro.thermal.heat_island import HeatIslandLedger, OutdoorHeatSource

__all__ = ["DatacenterNode", "Datacenter", "DC_NODE_SPEC"]

#: a 2-socket air-cooled rack server
DC_NODE_SPEC = ServerSpec(
    model="dc-node",
    n_cores=32,
    ladder=DVFSLadder.intel_like(f_min=1.6, f_max=3.2),
    p_idle_w=120.0,
    p_max_w=450.0,
    heat_fraction=0.0,  # heat never reaches a room: it is rejected outdoors
)


class DatacenterNode(ComputeServer):
    """One air-cooled node.

    Parameters
    ----------
    cooling_overhead:
        Cooling electrical power as a fraction of IT power (1/COP of the
        chiller chain).  0.35 ≈ legacy air-cooled room; 0.1 ≈ modern facility.
    fixed_overhead_w:
        Per-node share of facility fixed load (UPS losses, lighting).
    """

    def __init__(
        self,
        name: str,
        engine,
        spec: ServerSpec = DC_NODE_SPEC,
        cooling_overhead: float = 0.35,
        fixed_overhead_w: float = 20.0,
    ):
        if cooling_overhead < 0 or fixed_overhead_w < 0:
            raise ValueError("overheads must be >= 0")
        super().__init__(name, spec, engine)
        self.cooling_overhead = cooling_overhead
        self.fixed_overhead_w = fixed_overhead_w
        self.it_energy_j = 0.0

    def sync(self) -> None:
        """Advance accounting; also integrates IT-only energy for PUE."""
        dt = self.engine.now - self._last_sync
        if dt > 0:
            self.it_energy_j += self.it_power_w() * dt
        super().sync()

    def it_power_w(self) -> float:
        """IT-only electrical draw (W): the base server formula, uncached."""
        if not self._enabled:
            return 0.0
        spec = self.spec
        return (spec.p_idle_w + spec.p_span_w * (self._busy_cores / spec.n_cores)
                * spec.power_scales[self._freq_cap])

    def power_w(self) -> float:
        """Total draw including cooling + fixed overheads (W).

        This is what the power cache holds for a node, so the energy that
        :meth:`ComputeServer.sync` integrates is the facility's.
        """
        p = self._power_cache
        if p is None:
            it = self.it_power_w()
            p = self._power_cache = (
                0.0 if it == 0.0
                else it * (1.0 + self.cooling_overhead) + self.fixed_overhead_w)
        return p

    def pue(self) -> float:
        """Instantaneous PUE (undefined → returns inf when IT power is 0)."""
        it = self.it_power_w()
        return self.power_w() / it if it > 0 else float("inf")

    def outdoor_heat_w(self) -> float:
        """All consumed power ends up as outdoor heat rejection."""
        return self.power_w()


class Datacenter:
    """A fleet of nodes with FCFS spillover placement.

    The vertical-offload target: ``submit`` places a task on the first node
    with enough free cores, queueing it otherwise (released as nodes free up).

    Parameters
    ----------
    n_nodes: fleet size.
    engine: simulation engine.
    ledger: optional heat-island ledger; when provided, call
        :meth:`account_heat` on a periodic tick to book outdoor rejection.
    """

    def __init__(
        self,
        name: str,
        n_nodes: int,
        engine,
        spec: ServerSpec = DC_NODE_SPEC,
        cooling_overhead: float = 0.35,
        fixed_overhead_w: float = 20.0,
        ledger: Optional[HeatIslandLedger] = None,
    ):
        if n_nodes < 1:
            raise ValueError("datacenter needs at least one node")
        self.name = name
        self.engine = engine
        self.ledger = ledger
        self.nodes: List[DatacenterNode] = [
            DatacenterNode(f"{name}-n{i}", engine, spec, cooling_overhead, fixed_overhead_w)
            for i in range(n_nodes)
        ]
        self._queue: List[Task] = []
        self._wrapped_cb: Dict[str, Optional[Callable[[Task, float], None]]] = {}

    # ------------------------------------------------------------------ #
    @property
    def total_cores(self) -> int:
        """Fleet core count."""
        return sum(n.n_cores for n in self.nodes)

    @property
    def free_cores(self) -> int:
        """Currently free cores across the fleet."""
        return sum(n.free_cores for n in self.nodes)

    @property
    def queue_depth(self) -> int:
        """Tasks waiting for placement."""
        return len(self._queue)

    def submit(self, task: Task) -> None:
        """Place (or queue) a task; its completion drains the queue."""
        original = task.on_complete
        self._wrapped_cb[task.task_id] = original

        def chained(t: Task, now: float) -> None:
            cb = self._wrapped_cb.pop(t.task_id, None)
            if cb is not None:
                cb(t, now)
            self._drain()

        task.on_complete = chained
        if task.submitted_at < 0:
            task.submitted_at = self.engine.now
        if not self._try_place(task):
            self._queue.append(task)

    def _try_place(self, task: Task) -> bool:
        for node in self.nodes:
            if node.free_cores >= task.cores and node.submit(task):
                return True
        return False

    def _drain(self) -> None:
        still_waiting: List[Task] = []
        for task in self._queue:
            if not self._try_place(task):
                still_waiting.append(task)
        self._queue = still_waiting

    # ------------------------------------------------------------------ #
    def power_w(self) -> float:
        """Total fleet electrical draw (W)."""
        return sum(n.power_w() for n in self.nodes)

    def it_power_w(self) -> float:
        """Fleet IT-only draw (W)."""
        return sum(n.it_power_w() for n in self.nodes)

    def fleet_pue(self) -> float:
        """Fleet-level PUE at this instant."""
        it = self.it_power_w()
        return self.power_w() / it if it > 0 else float("inf")

    def energy_pue(self) -> float:
        """Energy-weighted PUE over the whole run so far.

        ``ComputeServer.sync`` integrates the polymorphic ``power_w`` — total
        facility draw for datacenter nodes — while :class:`DatacenterNode`
        additionally integrates IT-only energy, so the ratio is exact.
        """
        for n in self.nodes:
            n.sync()
        it_j = sum(n.it_energy_j for n in self.nodes)
        total_j = sum(n.energy_j for n in self.nodes)
        return total_j / it_j if it_j > 0 else float("inf")

    def account_heat(self, dt: float) -> None:
        """Book ``dt`` seconds of outdoor heat rejection to the ledger."""
        if self.ledger is None:
            return
        p = sum(n.outdoor_heat_w() for n in self.nodes)
        if p > 0:
            self.ledger.add_outdoor(OutdoorHeatSource.DC_COOLING, p * dt)
