"""The three request flows of the DF3 model (paper §II-C).

* :class:`HeatingRequest` — "deliver heat to the environment in which the DF
  server is deployed"; numerical comfort targets, individual or collective;
* :class:`CloudRequest` — Internet computing requests serviced with a
  distributed-cloud model (rendering, risk computation, BOINC-like batches);
* :class:`EdgeRequest` — local computing requests, **direct** (device talks
  straight to a DF server) or **indirect** (via the cluster master), with
  near-real-time deadlines and a privacy class.

Requests carry their own outcome timeline (queued → started → completed /
rejected / missed-deadline) so metric collectors can reduce over plain lists
of requests without auxiliary bookkeeping.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

__all__ = [
    "Flow",
    "EdgeMode",
    "RequestStatus",
    "HeatingRequest",
    "CloudRequest",
    "EdgeRequest",
    "reset_ids",
]

_ids = itertools.count()

#: per-request recovery state beside the dataclass fields, in the order
#: ``_ComputeRequest.__post_init__`` assigns it (DESIGN.md §2.16)
SIDE_STATE = ("_clone_group", "_clone_cancelled", "_retry_attempts",
              "_return_delay_s", "_offloaded_once")


def _next_id(prefix: str) -> str:
    return f"{prefix}-{next(_ids)}"


@functools.lru_cache(maxsize=None)
def _copy_order(cls) -> tuple:
    """Attribute names a shallow copy of ``cls`` assigns, in build order."""
    return tuple(f.name for f in fields(cls)) + SIDE_STATE


def reset_ids(start: int = 0) -> None:
    """Restart the request-id counter (trace determinism in sweep workers).

    Request ids are process-global, so a forked worker inherits whatever
    count its parent had reached and a traced parallel sweep would name the
    same request differently from run to run.  Sweep workers call this
    before each traced point so its ids are a pure function of the point.
    """
    global _ids
    _ids = itertools.count(start)


class Flow(str, Enum):
    """The three flows of the DF3 processing model."""

    HEATING = "heating"
    CLOUD = "cloud"
    EDGE = "edge"


class EdgeMode(str, Enum):
    """How an edge request reaches its worker (paper §II-C)."""

    DIRECT = "direct"      # straight to a DF server on the local network
    INDIRECT = "indirect"  # via the cluster master (safer, + latency)


class RequestStatus(str, Enum):
    """Lifecycle of a compute request."""

    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    OFFLOADED = "offloaded"


@dataclass
class HeatingRequest:
    """A comfort target from a host (the first flow).

    Collective requests target the mean temperature of several rooms
    ("set the mean temperature in rooms of an apartment"); individual
    requests target one server's room.
    """

    target_temp_c: float
    time: float
    rooms: tuple = ()           # room names in scope
    collective: bool = False
    request_id: str = field(default_factory=lambda: _next_id("heat"))

    def __post_init__(self) -> None:
        if not 5.0 <= self.target_temp_c <= 30.0:
            raise ValueError(
                f"target temperature {self.target_temp_c} outside sane range 5..30 °C"
            )
        if self.collective and len(self.rooms) < 2:
            raise ValueError("collective request needs at least two rooms")


@dataclass
class _ComputeRequest:
    """Shared fields of cloud and edge requests."""

    cycles: float
    time: float
    cores: int = 1
    input_bytes: float = 0.0
    output_bytes: float = 0.0

    status: RequestStatus = RequestStatus.CREATED
    started_at: float = -1.0
    completed_at: float = -1.0
    executed_on: str = ""
    network_delay_s: float = 0.0

    def __post_init__(self) -> None:
        # the chained comparisons also reject NaN (every comparison with it
        # is False): NaN cycles would poison server accounting, infinite
        # ones hold a core forever
        if not 0 < self.cycles < math.inf:
            raise ValueError(f"cycles must be finite and > 0, got {self.cycles}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if not (0 <= self.input_bytes < math.inf
                and 0 <= self.output_bytes < math.inf):
            raise ValueError("message sizes must be finite and >= 0")
        # recovery side state (not dataclass fields: eq, repr and the runner's
        # cache keys never see it), assigned here in SIDE_STATE order so every
        # request of a class shares one attribute layout
        self._clone_group = None        # CloneGroup of a speculative pair
        self._clone_cancelled = False   # the losing copy: drop at next touch
        self._retry_attempts = 0        # master-down retries so far
        self._return_delay_s = 0.0      # result's trip back to its source
        self._offloaded_once = False    # no second horizontal hop

    def shallow_copy(self, request_id: str):
        """A fresh instance sharing this one's attribute values, under
        ``request_id`` — what ``copy.copy`` makes of these dataclasses.

        Assigned attribute by attribute in construction order (fields, then
        side state), so the copy keeps the class's shared layout instead of
        growing an instance dict.
        """
        cls = type(self)
        dup = object.__new__(cls)
        for name in _copy_order(cls):
            setattr(dup, name, getattr(self, name))
        dup.request_id = request_id
        return dup

    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """True once the request reached a terminal state."""
        return self.status in (RequestStatus.COMPLETED, RequestStatus.REJECTED)

    def response_time(self) -> float:
        """Submission-to-completion latency including network (s)."""
        if self.status is not RequestStatus.COMPLETED:
            raise ValueError(f"request {self.request_id} not completed")
        return self.completed_at - self.time

    def mark_completed(self, now: float) -> None:
        """Transition to COMPLETED at ``now``."""
        self.status = RequestStatus.COMPLETED
        self.completed_at = now

    def mark_rejected(self) -> None:
        """Transition to REJECTED (no capacity anywhere, or inadmissible)."""
        self.status = RequestStatus.REJECTED


@dataclass
class CloudRequest(_ComputeRequest):
    """An Internet/DCC computing request (the second flow)."""

    user: str = "anonymous"
    preemptible: bool = True
    request_id: str = field(default_factory=lambda: _next_id("cloud"))

    flow = Flow.CLOUD


@dataclass
class EdgeRequest(_ComputeRequest):
    """A local computing request (the third flow, the paper's addition)."""

    deadline_s: float = 1.0          # relative near-real-time deadline
    mode: EdgeMode = EdgeMode.INDIRECT
    source: str = ""                 # topology node (building) of origin
    privacy_sensitive: bool = True   # edge data should not leave the cluster
    request_id: str = field(default_factory=lambda: _next_id("edge"))

    flow = Flow.EDGE

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 < self.deadline_s < math.inf:
            raise ValueError(f"deadline must be finite and > 0, got {self.deadline_s}")

    def deadline_met(self) -> bool:
        """True when the request completed within its deadline."""
        if self.status is not RequestStatus.COMPLETED:
            return False
        return self.response_time() <= self.deadline_s + 1e-12
