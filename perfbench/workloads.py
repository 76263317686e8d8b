"""The simulated work of each batch workload, and its output checks.

Imported by ``child.py`` (one benchmark iteration per process) and, for
``a6-churn``, by the sweep's worker processes, which resolve
:func:`a6_cell` by name.  Everything here calls ``repro`` through the
functions its experiments and tests use; nothing under ``src/`` changes.

Every workload advances its city in slices of :data:`SLICE_S` simulated
seconds, the served twin's default ``TwinConfig.slice_s``.  A command due
at any moment is applied at the next slice boundary, so the host time of
one slice is the longest a command can wait; :func:`slice_ms` lists them.
Slicing does not change the simulation: ``run_until`` in steps is
byte-identical to one call (the determinism contract the service layer
relies on).  Between slices the host's speed is probed (see
:mod:`hostspeed`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import PROBE_EVERY_S, probe
from repro.core.requests import RequestStatus
from repro.core.scheduling.base import SaturationPolicy
from repro.experiments import a6_churn, f3_three_flows
from repro.experiments.common import mid_month_start, small_city
from repro.runner.spec import SweepSpec
from repro.sim.calendar import DAY, HOUR
from repro.sim.rng import RngRegistry
from repro.thermal.surrogate import SurrogateConfig
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

__all__ = ["A6_JOBS", "A6_SPEC", "BATCH", "SLICE_S", "Batch", "a6_cell",
           "a6_inputs_digest", "conservation_violations", "digest",
           "inputs_digest", "run_sliced", "slice_ms"]

SLICE_S = 300.0          # simulated seconds per engine slice
CITY_SEED = 83           # city of the scaled workloads; --seed drives traffic
A6_JOBS = 2              # sweep worker processes (= the box's nproc)
A6_MTBF = "mtbf=2h"
A6_HORIZON_S = DAY + 2 * HOUR

#: set in a traced sweep before the pool forks; each cell then reports the
#: self times of its own layers (see :func:`a6_cell`)
CELL_LEDGER = None


# --------------------------------------------------------------------------- #
# running and checking one city
# --------------------------------------------------------------------------- #
def run_sliced(mw, horizon: float) -> Tuple[List[float], List[float]]:
    """Advance ``mw`` to ``horizon`` slice by slice.

    Returns ``(boundaries, probes)``: host seconds from the start to each
    slice boundary, with probe time left out, and the probe timings.
    """
    boundaries: List[float] = []
    probes: List[float] = []
    start = time.perf_counter()
    paused = 0.0
    next_probe = start + PROBE_EVERY_S
    while mw.engine.now < horizon:
        mw.run_until(min(mw.engine.now + SLICE_S, horizon))
        now = time.perf_counter()
        boundaries.append(now - start - paused)
        if now >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter()
            paused += next_probe - now
            next_probe += PROBE_EVERY_S
    return boundaries, probes


def slice_ms(boundaries: List[float]) -> List[float]:
    """Host milliseconds of each slice, from its boundaries."""
    return [(b - a) * 1e3 for a, b in zip([0.0] + boundaries, boundaries)]


def conservation_violations(mw, injected: Dict[str, list]) -> Tuple[int, int]:
    """Check that every injected request is accounted for exactly once.

    An edge request must be completed, expired, or still in flight (not in
    a terminal state), and appear at most once across the completed and
    expired lists; the lists may hold nothing that was not injected.  Cloud
    completions obey the same rule.  Returns ``(violations, injected)``.
    """
    seen: Dict[int, int] = {}
    foreign = 0
    edge_ids = {id(r) for r in injected.get("edge", ())}
    cloud_ids = {id(r) for r in injected.get("cloud", ())}
    for r in mw.completed_edge() + mw.expired_edge():
        if id(r) not in edge_ids:
            foreign += 1
        seen[id(r)] = seen.get(id(r), 0) + 1
    for r in mw.completed_cloud():
        if id(r) not in cloud_ids:
            foreign += 1
        seen[id(r)] = seen.get(id(r), 0) + 1
    terminal = (RequestStatus.COMPLETED, RequestStatus.REJECTED)
    bad = foreign
    for r in list(injected.get("edge", ())) + list(injected.get("cloud", ())):
        n = seen.get(id(r), 0)
        if n > 1 or (n == 0 and r.status in terminal):
            bad += 1
    return bad, len(edge_ids) + len(cloud_ids)


def _sha(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


def digest(mw, extra: Any = None) -> str:
    """Id-insensitive digest of a finished city's simulated outputs."""
    return _sha((
        sorted((r.time, r.source, r.started_at, r.completed_at, r.executed_on)
               for r in mw.completed_edge()),
        sorted((r.time, r.source) for r in mw.expired_edge()),
        sorted((r.time, r.completed_at) for r in mw.completed_cloud()),
        mw.fleet_energy_j(),
        mw.total_cycles_executed(),
        mw.filler_completed,
        mw.engine.events_executed,
        extra,
    ))


def inputs_digest(injected: Dict[str, list]) -> str:
    """Digest of the generated inputs (times and sizes, not ids)."""
    return _sha(sorted(
        (flow, r.time, getattr(r, "source", None), getattr(r, "cycles", None),
         getattr(r, "target_temp_c", None))
        for flow, reqs in injected.items() for r in reqs))


def a6_inputs_digest(seed: int) -> str:
    """Digest of the A6 workload plan the sweep's prefix node computes."""
    return _sha(a6_churn._workload_plan(seed))


# --------------------------------------------------------------------------- #
# batch workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Batch:
    """One batch workload: ``build(seed) -> (mw, horizon, injected)``."""

    build: Callable[[int], Tuple[Any, float, Dict[str, list]]]
    sim_days: float


def _build_f3(seed: int):
    mw, _t0, t1, injected = f3_three_flows.build(duration_days=3.0, seed=seed)
    return mw, t1 + 0.2 * DAY, injected


def _edge_city(seed: int, n_districts: int, kernel: str, rate_per_hour: float,
               days: float, surrogate: Optional[SurrogateConfig] = None,
               sample_only: bool = False):
    mw = small_city(seed=CITY_SEED, start_time=mid_month_start(1),
                    n_districts=n_districts, buildings_per_district=2,
                    rooms_per_building=3,
                    saturation_policy=SaturationPolicy.PREEMPT,
                    kernel=kernel, surrogate=surrogate)
    rngs = RngRegistry(seed)
    t0 = mw.engine.now
    loaded = (set(mw.surrogate.sample_districts) if sample_only
              else set(range(n_districts)))
    edge: list = []
    for bname in mw.buildings:
        if int(bname.split("/")[0].split("-")[1]) not in loaded:
            continue
        gen = EdgeWorkloadGenerator(
            rngs.stream(f"edge-{bname}"), source=bname,
            config=EdgeWorkloadConfig(rate_per_hour=rate_per_hour))
        reqs = gen.generate(t0, t0 + days * DAY)
        mw.inject(reqs)
        edge.extend(reqs)
    return mw, t0 + (days + 0.05) * DAY, {"edge": edge}


def _build_city64(seed: int):
    return _edge_city(seed, 64, "vector", rate_per_hour=3.0, days=1.0)


def _build_surrogate256(seed: int):
    return _edge_city(seed, 256, "surrogate", rate_per_hour=60.0, days=2.0,
                      surrogate=SurrogateConfig(warmup_ticks=6,
                                                sample_districts=1),
                      sample_only=True)


BATCH: Dict[str, Batch] = {
    "f3-mixed": Batch(_build_f3, sim_days=3.2),
    "city-64x": Batch(_build_city64, sim_days=1.05),
    "city-256x-surrogate": Batch(_build_surrogate256, sim_days=2.05),
}


# --------------------------------------------------------------------------- #
# a6-churn: the mtbf=2h row of A6 as a benchmark-side sweep
# --------------------------------------------------------------------------- #
def _a6_points(seed: int):
    return [replace(p, cell="workloads:a6_cell")
            for p in a6_churn.sweep_points(seed)
            if p.point_id.startswith(A6_MTBF + "/")]


def _a6_reduce(cells: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return cells


A6_SPEC = SweepSpec("A6", points=_a6_points, reduce=_a6_reduce,
                    prefixes=a6_churn.sweep_prefixes)

#: simulated city-days one sweep covers (every cell runs the 26 h horizon)
A6_SIM_DAYS = len(a6_churn.BUNDLES) * A6_HORIZON_S / DAY


def a6_cell(seed: int, mtbf_s: float, recovery, plan=None) -> Dict[str, Any]:
    """One A6 cell, sliced, with its output digest and checks.

    The simulated work is exactly ``a6_churn._run_cell``: the same build,
    the same horizon and the same reduction to a metrics row.
    """
    ledger = CELL_LEDGER
    if ledger is not None:
        ledger.reset()
    t0 = time.perf_counter()
    mw, start, edge, cloud = a6_churn._build_cell(seed, mtbf_s, recovery,
                                                  plan=plan)
    boundaries, probes = run_sliced(mw, start + A6_HORIZON_S)
    t_end = time.perf_counter()
    out: Dict[str, Any] = {}
    if ledger is not None:
        # read the ledger before the output checks call into the city
        out["layers"] = ledger.layer_times(t_end - t0)
        out["counts"] = dict(ledger.counts)
        out["counts"]["workloads.requests"] = len(edge) + len(cloud)
        out["counts"]["sim.run_until_total_s"] = \
            ledger.total_s["sim.run_until_s"]
    row = a6_churn._finish_cell(mw, edge, cloud)
    log = mw.resilience.log
    counters = {
        "server_failures": log.server_failures,
        "retries": sum(g.retries for g in mw.edge_gateways.values()),
        "clones": log.clones_spawned,
        "wasted_gcycles": log.wasted_cycles / 1e9,
    }
    violations, injected = conservation_violations(
        mw, {"edge": edge, "cloud": cloud})
    out.update({
        "row": row,
        "counters": counters,
        "digest": digest(mw, extra=(sorted(row.items()),
                                    sorted(counters.items()))),
        "violations": violations,
        "injected": injected,
        "slices_ms": slice_ms(boundaries),
        "probes": probes,
        "events": mw.engine.events_executed,
    })
    return out
