"""Edge request generators (the third flow — the paper's addition).

Edge traffic is the sense-compute-actuate loop of building IoT (§III-B): small
inputs (sensor frames), small compute, tight deadlines, strong locality.  The
generator produces Poisson arrivals on a residential-presence diurnal profile;
each request carries a deadline drawn from the configured class mix and a
direct/indirect submission mode.

The paper's example application classes (low-bandwidth neighbourhood services,
§II-A): map serving, traffic estimation, local navigation, audio-event
detection — all share this shape.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.requests import EdgeMode, EdgeRequest
from repro.workloads.arrivals import DiurnalProfile

__all__ = ["EdgeWorkloadConfig", "EdgeWorkloadGenerator"]

# one planned request: (arrival time, cycles, deadline_s, EdgeMode value).
# Pure data — no request ids are consumed until materialization.
EdgePlan = Tuple[Tuple[float, float, float, str], ...]

_GHZ = 1e9


@dataclass(frozen=True)
class EdgeWorkloadConfig:
    """Parameters of the edge request flow per building.

    ``deadline_classes`` is a sequence of ``(deadline_s, weight)`` pairs —
    e.g. audio alarms at 0.5 s, navigation at 2 s, map tiles at 5 s.
    """

    rate_per_hour: float = 120.0
    mean_megacycles: float = 200.0
    sigma_log: float = 0.6
    deadline_classes: Sequence = ((0.5, 0.3), (2.0, 0.5), (5.0, 0.2))
    direct_fraction: float = 0.0  # paper's Fig. 5 discussion ignores direct
    # devices send extracted features, not raw dumps: a few KB per request
    input_kb: float = 2.0
    output_kb: float = 0.5
    privacy_sensitive: bool = True

    def __post_init__(self) -> None:
        if self.rate_per_hour < 0 or self.mean_megacycles <= 0:
            raise ValueError("rates and demands must be positive")
        if not self.deadline_classes:
            raise ValueError("need at least one deadline class")
        if any(d <= 0 or w < 0 for d, w in self.deadline_classes):
            raise ValueError("deadlines must be > 0 and weights >= 0")
        if not 0.0 <= self.direct_fraction <= 1.0:
            raise ValueError("direct_fraction must be in [0, 1]")


class EdgeWorkloadGenerator:
    """Generates :class:`EdgeRequest` streams for one building."""

    def __init__(
        self,
        rng: np.random.Generator,
        source: str,
        config: EdgeWorkloadConfig = EdgeWorkloadConfig(),
    ):
        self.rng = rng
        self.source = source
        self.config = config
        self.profile = DiurnalProfile.home_evenings(config.rate_per_hour / 3600.0)
        self._mu = (np.log(config.mean_megacycles * 1e6)
                    - 0.5 * config.sigma_log**2)
        weights = np.array([w for _, w in config.deadline_classes], dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError("deadline class weights sum to zero")
        # built exactly as ``Generator.choice(p=...)`` builds it per call
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        self._deadline_cdf = cdf.tolist()
        self._deadlines = [float(d) for d, _ in config.deadline_classes]

    def generate(self, t0: float, t1: float) -> List[EdgeRequest]:
        """All edge requests arriving in [t0, t1), time-sorted."""
        times = self.profile.sample(self.rng, t0, t1)
        return [self._make(t) for t in times]

    def generate_burst(self, t0: float, n: int, spacing_s: float = 0.05) -> List[EdgeRequest]:
        """A deterministic-rate burst (peak-management experiments E4/E5)."""
        if n < 0 or spacing_s < 0:
            raise ValueError("burst needs n >= 0 and spacing >= 0")
        return [self._make(t0 + i * spacing_s) for i in range(n)]

    # ------------------------------------------------------------------ #
    # plan / materialize split (task-DAG shared prefixes)
    # ------------------------------------------------------------------ #
    def plan(self, t0: float, t1: float) -> EdgePlan:
        """The pure-data draw plan of ``generate`` — same rng consumption,
        no :class:`EdgeRequest` construction.

        ``materialize(plan(t0, t1))`` equals ``generate(t0, t1)`` request for
        request.  The split lets a sweep's shared workload become an upstream
        DAG node: planning consumes the rng stream but is *globally inert*
        (no request-id allocation), so the plan can be computed once in any
        process and fanned out to every sweep point, which materializes the
        requests locally in its own id order.
        """
        times = self.profile.sample(self.rng, t0, t1)
        return tuple(self._draw(t) for t in times)

    def plan_burst(self, t0: float, n: int, spacing_s: float = 0.05) -> EdgePlan:
        """The pure-data draw plan of ``generate_burst``."""
        if n < 0 or spacing_s < 0:
            raise ValueError("burst needs n >= 0 and spacing >= 0")
        return tuple(self._draw(t0 + i * spacing_s) for i in range(n))

    def materialize(self, plan: EdgePlan) -> List[EdgeRequest]:
        """Construct the planned requests (consumes request ids, no rng)."""
        return [self._build(*entry) for entry in plan]

    def _draw(self, t: float) -> Tuple[float, float, float, str]:
        cfg = self.config
        cycles = float(self.rng.lognormal(self._mu, cfg.sigma_log))
        # one uniform bisected into the cdf: the class and the stream state
        # ``rng.choice(deadlines, p=p)`` leaves, without its per-call checks
        deadline = self._deadlines[bisect_right(self._deadline_cdf,
                                                self.rng.random())]
        mode = EdgeMode.DIRECT if self.rng.random() < cfg.direct_fraction else EdgeMode.INDIRECT
        return (float(t), cycles, deadline, mode.value)

    def _build(self, t: float, cycles: float, deadline: float,
               mode: str) -> EdgeRequest:
        cfg = self.config
        return EdgeRequest(
            cycles=cycles,
            time=t,
            cores=1,
            input_bytes=cfg.input_kb * 1e3,
            output_bytes=cfg.output_kb * 1e3,
            deadline_s=deadline,
            mode=EdgeMode(mode),
            source=self.source,
            privacy_sensitive=cfg.privacy_sensitive,
        )

    def _make(self, t: float) -> EdgeRequest:
        return self._build(*self._draw(t))
