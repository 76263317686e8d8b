"""Desktop-grid / volunteer-computing baseline (paper §I, refs [3–5]).

Personal computers in homes execute grid work **opportunistically**: only when
the owner is not using the machine.  The paper's critique, reproduced here:

* "the experimental validation of desktop grid architectures has often been
  done on opportunistic workloads ... Such workloads do not capture the
  foundations of real-time applications" — edge requests stall whenever the
  local desktops are reclaimed by their owners;
* "the execution of edge computing workloads on personal computers will
  introduce new discomfort problems for end-users like: unexpected heat,
  noises or the fact of not being able to fully use their computing power" —
  we account *discomfort hours*: fan-noise hours while the owner is present,
  plus unwanted-heat hours outside the heating season.

Desktops have fans (they are not silent Q.rads), a smaller envelope, and an
owner-presence schedule that suspends grid tasks.
"""

from __future__ import annotations

from typing import List

from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.hardware.cpu import DVFSLadder
from repro.hardware.server import ComputeServer, ServerSpec, Task
from repro.sim.calendar import SimCalendar
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

__all__ = ["DesktopGridBaseline", "DESKTOP_SPEC"]

#: a typical home desktop volunteered to the grid
DESKTOP_SPEC = ServerSpec(
    model="desktop",
    n_cores=8,
    ladder=DVFSLadder.intel_like(),
    p_idle_w=45.0,
    p_max_w=180.0,
    heat_fraction=1.0,
)


class DesktopGridBaseline:
    """Opportunistic execution on owner-scheduled desktops."""

    def __init__(
        self,
        n_desktops: int = 12,
        seed: int = 0,
        start_time: float = 0.0,
        owner_hours: tuple = (18.0, 23.0),
        tick_s: float = 300.0,
    ):
        if n_desktops < 1:
            raise ValueError("need at least one desktop")
        if not 0 <= owner_hours[0] < owner_hours[1] <= 24:
            raise ValueError("owner hours must be an increasing pair in [0, 24]")
        self.engine = Engine(start=start_time)
        self.rngs = RngRegistry(seed)
        self.cal = SimCalendar()
        self.owner_hours = owner_hours
        self.desktops: List[ComputeServer] = [
            ComputeServer(f"desktop-{i}", DESKTOP_SPEC, self.engine)
            for i in range(n_desktops)
        ]
        self._queue: List = []       # (req, sink) pairs waiting for idle windows
        self.completed_edge: List[EdgeRequest] = []
        self.completed_cloud: List[CloudRequest] = []
        self.suspensions = 0
        self.noise_discomfort_hours = 0.0
        self.unwanted_heat_kwh = 0.0
        self.engine.add_process("desktop-grid-tick", tick_s, self._tick)

    # ------------------------------------------------------------------ #
    def owner_present(self, t: float) -> bool:
        """Whether owners are at their machines (grid must yield)."""
        hod = self.cal.hour_of_day(t)
        return self.owner_hours[0] <= hod < self.owner_hours[1]

    def _tick(self, now: float, dt: float) -> None:
        present = self.owner_present(now)
        for d in self.desktops:
            # discomfort accounting covers the interval that just elapsed,
            # while grid work was (still) running
            d.sync()
            busy = d.busy_cores > 0
            if busy and present:
                self.noise_discomfort_hours += dt / 3600.0
            if busy and not self.cal.in_heating_season(now):
                self.unwanted_heat_kwh += d.heat_output_w() * dt / 3.6e6
            if present:
                # owners reclaim their machines: suspend all grid work
                for task in list(d.running_tasks):
                    t = d.preempt(task.task_id)
                    req = t.metadata["request"]
                    req.cycles = max(t.remaining_cycles, 1.0)
                    req.status = RequestStatus.QUEUED
                    sink = t.metadata["sink"]
                    self._queue.insert(0, (req, sink))
                    self.suspensions += 1
        if not present:
            self._drain()

    # ------------------------------------------------------------------ #
    def _drain(self) -> None:
        if self.owner_present(self.engine.now):
            return
        # no simulated time passes in a drain and placements only shrink free
        # cores, so a request wider than the widest free gap cannot fit
        widest = max(d.free_cores for d in self.desktops)
        remaining = []
        for req, sink in self._queue:
            if req.cores > widest or not self._try_place(req, sink):
                remaining.append((req, sink))
            else:
                widest = max(d.free_cores for d in self.desktops)
        self._queue = remaining

    def _try_place(self, req, sink) -> bool:
        for d in self.desktops:
            if d.free_cores >= req.cores:
                task = Task(
                    f"{req.request_id}-try{int(self.engine.now)}",
                    req.cycles,
                    req.cores,
                    on_complete=lambda t, now: self._done(t, now),
                    metadata={"request": req, "sink": sink},
                )
                if d.submit(task):
                    req.status = RequestStatus.RUNNING
                    req.started_at = self.engine.now
                    req.executed_on = d.name
                    return True
        return False

    def _done(self, task: Task, now: float) -> None:
        req = task.metadata["request"]
        req.mark_completed(now)
        task.metadata["sink"].append(req)
        self._drain()

    # ------------------------------------------------------------------ #
    def submit_edge(self, req: EdgeRequest) -> None:
        """Edge request: runs only if an idle window is open right now."""
        self._submit(req, self.completed_edge)

    def submit_cloud(self, req: CloudRequest) -> None:
        """Grid batch work: waits for idle windows like BOINC."""
        self._submit(req, self.completed_cloud)

    def _submit(self, req, sink) -> None:
        if self.owner_present(self.engine.now) or not self._try_place(req, sink):
            req.status = RequestStatus.QUEUED
            self._queue.append((req, sink))

    def inject(self, requests) -> None:
        """Schedule request arrivals."""
        for req in requests:
            if isinstance(req, EdgeRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_edge(r))
            elif isinstance(req, CloudRequest):
                self.engine.schedule_at(req.time, lambda r=req: self.submit_cloud(r))
            else:
                raise TypeError(f"desktop grid cannot take {type(req).__name__}")

    def run_until(self, t: float) -> None:
        """Advance the baseline world."""
        self.engine.run_until(t)

    # ------------------------------------------------------------------ #
    def edge_deadline_miss_rate(self) -> float:
        """Miss rate counting still-queued edge requests as misses."""
        done = [r for r in self.completed_edge if r.status is RequestStatus.COMPLETED]
        stuck = [r for r, _ in self._queue if isinstance(r, EdgeRequest)]
        n = len(done) + len(stuck)
        if n == 0:
            return 0.0
        return (sum(1 for r in done if not r.deadline_met()) + len(stuck)) / n

    def total_energy_j(self) -> float:
        """Desktop fleet energy."""
        for d in self.desktops:
            d.sync()
        return sum(d.energy_j for d in self.desktops)
