"""The generic DVFS-capable compute server.

Every machine in the framework — Q.rad, e-radiator, boiler blade, datacenter
node — is a :class:`ComputeServer`: ``n_cores`` cores stepping a DVFS ladder,
running :class:`Task` objects measured in **cycles**.  The server integrates
its own electrical energy, exposes its heat output, and schedules its own
task-completion events on the simulation engine, so higher layers (gateways,
schedulers) only deal in ``submit`` / ``preempt`` / ``on_complete``.

Model choices (kept deliberately simple and documented):

* a task occupies a fixed number of cores and progresses at
  ``cores × freq × 10⁹`` cycles/s — perfect intra-task parallelism;
* electrical power is ``P_idle + (P_max − P_idle) · util · powerscale(f)``
  with the classic ``f·V²`` DVFS power scale (paper ref [17]);
* a powered-off server (motherboards off — the Qarnot hybrid infrastructure,
  §III-A) draws nothing and refuses work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.hardware.cpu import DVFSLadder

__all__ = ["Task", "TaskState", "ServerSpec", "ComputeServer"]

_GHZ = 1e9
#: tasks complete when fewer cycles than this remain (float-tolerance)
_CYCLE_EPS = 1.0
#: minimum schedulable completion horizon (s).  A horizon below the float ulp
#: of the current simulation time would fire "now" with dt == 0 and never make
#: progress; 1 µs is far below any latency this framework resolves and far
#: above the ulp of a multi-year time axis (~7.5e-9 s at t = 2 years).
_TIME_EPS = 1e-6


class TaskState(Enum):
    """Lifecycle of a task on a server."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    PREEMPTED = "preempted"
    KILLED = "killed"


@dataclass(slots=True)
class Task:
    """A unit of compute work.

    Attributes
    ----------
    task_id: unique identifier (any string).
    work_cycles: total CPU cycles the task needs (across all its cores).
    cores: cores occupied while running.
    on_complete: callback ``(task, now)`` invoked at completion.
    metadata: free-form tags used by schedulers (flow kind, deadline, ...).
    chunks: identical copies this one entry stands for.  A filler *block*
        (``chunks > 1``) is ``chunks`` interchangeable filler chunks started
        together: ``work_cycles``, ``remaining_cycles`` and ``cores`` are per
        chunk, the block occupies ``cores × chunks`` cores, and it completes
        (one ``on_complete`` call) when its chunks would.  Blocks start
        through :meth:`ComputeServer.submit_batch` (DESIGN.md §2.13).
    """

    task_id: str
    work_cycles: float
    cores: int = 1
    on_complete: Optional[Callable[["Task", float], None]] = None
    metadata: dict = field(default_factory=dict)
    chunks: int = 1

    state: TaskState = TaskState.PENDING
    remaining_cycles: float = field(default=-1.0)
    submitted_at: float = -1.0
    completed_at: float = -1.0
    server_name: str = ""

    def __post_init__(self) -> None:
        if self.work_cycles <= 0:
            raise ValueError(f"work_cycles must be > 0, got {self.work_cycles}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.remaining_cycles < 0:
            self.remaining_cycles = float(self.work_cycles)

    @classmethod
    def prevalidated(cls, task_id: str, work_cycles: float, cores: int,
                     on_complete, metadata: dict, chunks: int = 1) -> "Task":
        """Fast constructor for hot loops that build tasks in bulk.

        Produces the same object state as ``Task(...)`` but skips the
        dataclass argument plumbing and ``__post_init__`` validation — the
        caller guarantees ``work_cycles > 0``, ``cores >= 1`` and
        ``chunks >= 1``.
        """
        t = object.__new__(cls)
        t.task_id = task_id
        t.work_cycles = work_cycles
        t.cores = cores
        t.on_complete = on_complete
        t.metadata = metadata
        t.chunks = chunks
        t.state = TaskState.PENDING
        t.remaining_cycles = float(work_cycles)
        t.submitted_at = -1.0
        t.completed_at = -1.0
        t.server_name = ""
        return t


@dataclass(frozen=True)
class ServerSpec:
    """Static electrical/compute envelope of a server model."""

    model: str
    n_cores: int
    ladder: DVFSLadder
    p_idle_w: float
    p_max_w: float
    heat_fraction: float = 1.0  # fraction of electrical power emitted as heat

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if not 0 <= self.p_idle_w <= self.p_max_w:
            raise ValueError("need 0 <= p_idle <= p_max")
        if not 0.0 <= self.heat_fraction <= 1.0:
            raise ValueError("heat_fraction must be in [0, 1]")
        # derived constants of the frozen envelope, computed once per spec
        # and shared by every server of the model.  They are plain instance
        # attributes, not dataclass fields, so equality, hashing and the
        # runner's canonical cache keys see only the fields above.
        ladder = self.ladder
        set_ = object.__setattr__
        #: per P-state f·V² power factor (``ladder.power_scale(i)``)
        set_(self, "power_scales", tuple(ladder.power_scale(i)
                                         for i in range(len(ladder))))
        #: per P-state core rate in cycles/s (``ladder[i].freq_ghz * 1e9``)
        set_(self, "rates_hz", tuple(s.freq_ghz * _GHZ for s in ladder.states))
        #: dynamic power span ``p_max_w - p_idle_w``
        set_(self, "p_span_w", self.p_max_w - self.p_idle_w)


class ComputeServer:
    """A running server instance bound to a simulation engine.

    Parameters
    ----------
    name: unique instance name.
    spec: electrical/compute envelope.
    engine: the simulation engine used for time and completion events.
    """

    def __init__(self, name: str, spec: ServerSpec, engine):
        self.name = name
        self.spec = spec
        self.engine = engine
        self._freq_cap = len(spec.ladder) - 1
        self._enabled = True
        self._failed = False
        self._running: Dict[str, Task] = {}
        # Σ task.cores × task.chunks, maintained at every site that changes
        # the running-task map, so busy load is O(1) to read
        self._busy_cores = 0
        # the same sum over filler tasks, maintained beside _busy_cores, so
        # paying load is one subtraction
        self._filler_cores = 0
        # memoised power_w()/core_rate values; invalidated whenever busy
        # cores, the frequency cap or the power state change, so the cached
        # value is always bitwise equal to a recomputation
        self._power_cache: Optional[float] = None
        self._rate_cache: Optional[float] = None
        self._last_sync = engine.now
        self._completion_event = None
        # accounting
        self.energy_j = 0.0
        self.busy_core_seconds = 0.0
        self.completed_count = 0
        self.cycles_executed = 0.0

    # ------------------------------------------------------------------ #
    # state inspection
    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """False when motherboards are powered off."""
        return self._enabled

    @property
    def failed(self) -> bool:
        """True while the server is hard-failed (crashed, awaiting repair).

        A failed server stays off even if the heat regulator asks for power:
        a crashed board cannot be resurrected by flipping the relay — only
        :meth:`repair` clears the state.
        """
        return self._failed

    @property
    def n_cores(self) -> int:
        """Total cores of the server."""
        return self.spec.n_cores

    @property
    def busy_cores(self) -> int:
        """Cores currently occupied by running tasks (a maintained counter)."""
        return self._busy_cores

    @property
    def paying_cores(self) -> int:
        """Busy cores minus filler cores: the load paying work puts here.

        Filler is displaced the instant paying work arrives, so it does not
        count: busy minus the maintained filler counter.
        """
        return self._busy_cores - self._filler_cores

    @property
    def idle(self) -> bool:
        """True when no task is running (cheaper than ``running_tasks``)."""
        return not self._running

    @property
    def free_cores(self) -> int:
        """Cores available for new tasks (0 when powered off)."""
        if not self._enabled:
            return 0
        return self.spec.n_cores - self._busy_cores

    @property
    def utilization(self) -> float:
        """Instantaneous core utilisation in [0, 1]."""
        return self.busy_cores / self.spec.n_cores

    @property
    def freq_index(self) -> int:
        """Current operating P-state index (the cap; idle cores gate off)."""
        return self._freq_cap

    @property
    def running_tasks(self) -> List[Task]:
        """Snapshot of running tasks."""
        return list(self._running.values())

    def core_rate_cycles_per_s(self) -> float:
        """Per-core execution rate at the current P-state."""
        rate = self._rate_cache
        if rate is None:
            rate = self._rate_cache = (self.spec.rates_hz[self._freq_cap]
                                       if self._enabled else 0.0)
        return rate

    def power_w(self) -> float:
        """Instantaneous electrical draw (W).

        ``P_idle + (P_max − P_idle) · util · powerscale(f)``, from the spec's
        precomputed span and power factors; same association as that formula.
        """
        p = self._power_cache
        if p is None:
            if not self._enabled:
                p = 0.0
            else:
                spec = self.spec
                p = (spec.p_idle_w + spec.p_span_w * (self._busy_cores / spec.n_cores)
                     * spec.power_scales[self._freq_cap])
            self._power_cache = p
        return p

    def heat_output_w(self) -> float:
        """Thermal power currently delivered to the environment (W)."""
        return self.power_w() * self.spec.heat_fraction

    # ------------------------------------------------------------------ #
    # time integration
    # ------------------------------------------------------------------ #
    def sync(self) -> None:
        """Advance task progress and energy accounting to ``engine.now``."""
        now = self.engine.now
        dt = now - self._last_sync
        if dt < 0:
            raise RuntimeError(f"server {self.name}: engine time went backwards")
        if dt == 0:
            return
        # when a cache is unset, its accessor computes the value and sets it
        power = self._power_cache
        if power is None:
            power = self.power_w()
        self.energy_j += power * dt
        self.busy_core_seconds += self._busy_cores * dt
        rate = self._rate_cache
        if rate is None:
            rate = self.core_rate_cycles_per_s()
        if rate > 0:
            # same fold order as `self.cycles_executed += executed` per task;
            # rem - rem == +0.0 exactly, so the branch matches min()+subtract.
            # A block folds its step once per chunk, as its chunks would.
            acc = self.cycles_executed
            for t in self._running.values():
                step = rate * t.cores * dt
                rem = t.remaining_cycles
                if step < rem:
                    t.remaining_cycles = rem - step
                else:
                    t.remaining_cycles = 0.0
                    step = rem
                for _ in range(t.chunks):
                    acc += step
            self.cycles_executed = acc
        self._last_sync = now

    def _reschedule_completion(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        rate = self._rate_cache
        if rate is None:
            rate = self.core_rate_cycles_per_s()
        if rate <= 0 or not self._running:
            return
        horizon = float("inf")
        for t in self._running.values():
            h = t.remaining_cycles / (rate * t.cores)
            if h < horizon:
                horizon = h
        # max(horizon, _TIME_EPS) in branch form: a NaN horizon stays NaN
        # (and is rejected by the engine), exactly as max() keeps it
        engine = self.engine
        self._completion_event = engine.schedule_at(
            engine.now + (_TIME_EPS if _TIME_EPS > horizon else horizon),
            self._on_completion_event,
        )

    def _on_completion_event(self) -> None:
        self._completion_event = None
        self.sync()
        now = self.engine.now
        rate = self._rate_cache
        if rate is None:
            rate = self.core_rate_cycles_per_s()
        # threshold = max(_CYCLE_EPS, rate * t.cores * _TIME_EPS), branch form
        finished = []
        for t in self._running.values():
            thr = rate * t.cores * _TIME_EPS
            if thr < _CYCLE_EPS:
                thr = _CYCLE_EPS
            if t.remaining_cycles <= thr:
                finished.append(t)
        for t in finished:
            del self._running[t.task_id]
            self._busy_cores -= t.cores * t.chunks
            if t.metadata.get("kind") == "filler":
                self._filler_cores -= t.cores * t.chunks
            t.state = TaskState.COMPLETED
            t.remaining_cycles = 0.0
            t.completed_at = now
            self.completed_count += t.chunks
        if finished:
            self._power_cache = None
        self._reschedule_completion()
        for t in finished:  # callbacks last: they may submit new work
            if t.on_complete is not None:
                t.on_complete(t, now)

    # ------------------------------------------------------------------ #
    # task control
    # ------------------------------------------------------------------ #
    def submit(self, task: Task) -> bool:
        """Start ``task`` now.  Returns False if it does not fit (or off)."""
        if task.task_id in self._running:
            raise ValueError(f"task {task.task_id!r} already running on {self.name}")
        if task.cores > self.spec.n_cores:
            raise ValueError(
                f"task {task.task_id!r} needs {task.cores} cores; "
                f"{self.name} has {self.spec.n_cores}"
            )
        self.sync()  # a no-op at an unchanged clock, kept: one sync per submit
        if not self._enabled:
            return False
        if task.cores > self.spec.n_cores - self._busy_cores:
            return False
        task.state = TaskState.RUNNING
        task.submitted_at = self.engine.now if task.submitted_at < 0 else task.submitted_at
        task.server_name = self.name
        self._running[task.task_id] = task
        self._busy_cores += task.cores
        if task.metadata.get("kind") == "filler":
            self._filler_cores += task.cores
        self._power_cache = None
        self._reschedule_completion()
        return True

    def submit_batch(self, tasks: List[Task]) -> int:
        """Start as many of ``tasks`` as fit, as one batch.

        Returns the number of chunks started (one per plain task).
        Byte-equivalent to calling :meth:`submit` chunk by chunk — the same
        prefix of ``tasks`` is accepted, the running-task order is the same,
        and the engine sees the same live completion event with the same
        ``(time, priority, seq)`` — but with one sync and one completion
        reschedule instead of one per chunk.  The k−1 intermediate sequence
        numbers the sequential path would have burned on immediately
        re-cancelled completion events are reserved explicitly, which is what
        keeps the two paths' event streams identical (and spares the heap
        k−1 dead entries).  A block is accepted whole or not at all.
        """
        self.sync()
        accepted = 0
        free = self.free_cores  # tracked locally; enabled can't change mid-loop
        now = self.engine.now
        name = self.name
        running = self._running
        n_cores = self.spec.n_cores
        enabled = self._enabled
        for task in tasks:
            if task.task_id in running:
                raise ValueError(f"task {task.task_id!r} already running on {self.name}")
            if task.cores > n_cores:
                raise ValueError(
                    f"task {task.task_id!r} needs {task.cores} cores; "
                    f"{self.name} has {self.spec.n_cores}"
                )
            need = task.cores * task.chunks
            if not enabled or need > free:
                break
            task.state = TaskState.RUNNING
            task.submitted_at = now if task.submitted_at < 0 else task.submitted_at
            task.server_name = name
            self._running[task.task_id] = task
            self._busy_cores += need
            if task.metadata.get("kind") == "filler":
                self._filler_cores += need
            free -= need
            accepted += task.chunks
        if accepted:
            self._power_cache = None
            self.engine.reserve_seq(accepted - 1)
            self._reschedule_completion()
        return accepted

    def preempt(self, task_id: str, chunks: Optional[int] = None) -> Task:
        """Stop a running task, preserving its remaining work for resubmission.

        On a block, ``chunks`` stops only that many of its chunks (default:
        all).  A partial preempt leaves the block running with the rest and
        returns it.  Stopping ``n`` chunks reserves the n−1 sequence numbers
        their one-by-one preempts would have burned, as :meth:`submit_batch`
        does.
        """
        self.sync()
        try:
            task = self._running[task_id]
        except KeyError:
            raise KeyError(f"task {task_id!r} not running on {self.name}") from None
        n = task.chunks if chunks is None else chunks
        if not 1 <= n <= task.chunks:
            raise ValueError(f"cannot preempt {n} of {task.chunks} chunks of {task_id!r}")
        if n == task.chunks:
            del self._running[task_id]
            task.state = TaskState.PREEMPTED
        else:
            task.chunks -= n
        self._busy_cores -= task.cores * n
        if task.metadata.get("kind") == "filler":
            self._filler_cores -= task.cores * n
        self._power_cache = None
        if n > 1:
            self.engine.reserve_seq(n - 1)
        self._reschedule_completion()
        return task

    def preempt_kind(self, kind: str) -> List[Task]:
        """Preempt every running task whose ``metadata["kind"]`` matches.

        One sync and one completion reschedule for the whole batch — the
        per-task :meth:`preempt` loop is quadratic in reschedules, which the
        surrogate tier's switch-time quiesce of a full fleet cannot afford.
        """
        self.sync()
        tasks = [t for t in self._running.values()
                 if t.metadata.get("kind") == kind]
        for t in tasks:
            del self._running[t.task_id]
            t.state = TaskState.PREEMPTED
            self._busy_cores -= t.cores * t.chunks
            if kind == "filler":
                self._filler_cores -= t.cores * t.chunks
        if tasks:
            self._power_cache = None
            self._reschedule_completion()
        return tasks

    def kill_all(self) -> List[Task]:
        """Kill every running task (e.g. crash injection); returns them."""
        self.sync()
        tasks = list(self._running.values())
        self._running.clear()
        self._busy_cores = 0
        self._filler_cores = 0
        self._power_cache = None
        for t in tasks:
            t.state = TaskState.KILLED
        self._reschedule_completion()
        return tasks

    # ------------------------------------------------------------------ #
    # power / DVFS control
    # ------------------------------------------------------------------ #
    def set_freq_cap(self, index: int) -> None:
        """Clamp the P-state (the heat regulator's actuator).

        Setting the cap it already has keeps the power and rate caches
        (their inputs are unchanged), but still syncs and re-arms the
        completion event, exactly as a change does.
        """
        n = len(self.spec.power_scales)
        if not 0 <= index < n:
            raise ValueError(f"freq index {index} out of range 0..{n - 1}")
        self.sync()
        if index != self._freq_cap:
            self._power_cache = None
            self._rate_cache = None
        self._freq_cap = index
        self._reschedule_completion()

    def power_off(self) -> None:
        """Turn the motherboards off.  Requires the server to be idle."""
        self.sync()
        if self._running:
            raise RuntimeError(
                f"cannot power off {self.name}: {len(self._running)} tasks running "
                "(preempt or drain first)"
            )
        self._enabled = False
        self._power_cache = None
        self._rate_cache = None

    def power_on(self) -> None:
        """Turn the motherboards back on (refused while hard-failed)."""
        self.sync()
        if self._failed:
            return
        self._enabled = True
        self._power_cache = None
        self._rate_cache = None

    def fail(self) -> None:
        """Hard-fail the server: off, and immune to :meth:`power_on`.

        Running tasks must already be killed (see :meth:`kill_all`).
        """
        self.sync()
        if self._running:
            raise RuntimeError(
                f"cannot fail {self.name}: {len(self._running)} tasks running "
                "(kill_all first)"
            )
        self._enabled = False
        self._failed = True
        self._power_cache = None
        self._rate_cache = None

    def repair(self) -> None:
        """Clear the hard-failure state and power the board back on."""
        self._failed = False
        self.power_on()

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} cores={self.busy_cores}/{self.spec.n_cores} "
            f"f={self.spec.ladder[self._freq_cap].freq_ghz:.1f}GHz "
            f"{'on' if self._enabled else 'off'}>"
        )
