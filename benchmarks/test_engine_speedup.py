"""Bench the simulation hot path: scalar vs vector vs surrogate kernels.

Runs an E14-shaped city (same generator as the scale experiment: districts
of Q.rad-heated buildings under an edge workload, PREEMPT saturation policy)
at 1x/4x/16x fleet size under the scalar and vector kernels, then pushes the
vector vs surrogate comparison to 64x/256x, and emits
``benchmarks/results/BENCH_engine.json`` — sim-phase wall-clock per kernel,
speedups, and the cross-kernel equivalence verdict — which CI uploads as the
``engine-bench`` artifact.

Methodology:

* Only the simulation phase (``run_until``) is timed.  City construction and
  workload generation are identical work under either kernel and would
  dilute the ratio.
* Best-of-3: each (size, kernel) cell runs three times and keeps the fastest
  wall-clock, damping scheduler noise on shared runners.
* Every run's output signature (completed/expired request multisets, fleet
  energy, executed cycles, filler count, event count) must match across
  kernels and across repetitions — a speedup over a wrong answer is worth
  nothing.

The surrogate section keeps the edge flow aimed at the tier's own sample
districts (byte-identical under both kernels, and the quiesced remainder
stays aggregated), asserts run-to-run determinism per kernel, and checks the
fleet-energy deviation against the declared tolerance budget instead of byte
equality — the surrogate trades bounded accuracy for wall-clock.

The >=3x assertion at the 16x fleet and the >=10x assertion at the 256x
fleet are gated on ``os.cpu_count() >= 2`` so a starved single-core runner
records its numbers honestly (rows labeled ``skipped_insufficient_cores``)
instead of flaking.
"""

import os
import time

import bench_schema
from conftest import RESULTS_DIR

from repro.core.scheduling.base import SaturationPolicy
from repro.experiments.common import mid_month_start, small_city
from repro.thermal import budget
from repro.thermal.surrogate import SurrogateConfig
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

DAY = 86400.0
SEED = 83
REPEATS = 3
SIZES = (1, 4, 16)          # n_districts: 1x / 4x / 16x fleet
LOAD_DAYS = 0.25            # edge arrivals span
DRAIN_DAYS = 0.05           # extra horizon to drain in-flight work
RATE_PER_HOUR = 60.0
MIN_SPEEDUP_16X = 3.0

SUR_SIZES = (64, 256)       # 64x / 256x fleet: vector vs surrogate
SUR_REPEATS = 2
SUR_LOAD_DAYS = 1.0         # longer horizon: amortise the exact warm-up
SUR_TIER = SurrogateConfig(warmup_ticks=6, sample_districts=1)
MIN_SUR_SPEEDUP_256X = 10.0
#: how ``repro diff`` compares each numeric row key of BENCH_engine.json
UNITS = {
    **dict.fromkeys(("scalar_s", "vector_s", "surrogate_s"),
                    bench_schema.WALL_S),
    "speedup": bench_schema.SPEEDUP,
    "n_districts": bench_schema.COUNT,
    # a simulated outcome of a seeded run: exact on any hardware
    "fleet_energy_rel_dev": {"unit": "share", "better": "exact"},
}


def _run(n_districts: int, kernel: str, load_buildings=None,
         load_days: float = LOAD_DAYS):
    """Build the city, inject the workload, time the sim phase only.

    ``load_buildings`` restricts the edge flow to a subset of buildings (the
    surrogate section targets its sample districts); ``None`` loads all.
    """
    mw = small_city(
        seed=SEED,
        start_time=mid_month_start(1),
        n_districts=n_districts,
        buildings_per_district=2,
        rooms_per_building=3,
        saturation_policy=SaturationPolicy.PREEMPT,
        kernel=kernel,
        surrogate=SUR_TIER if kernel == "surrogate" else None,
    )
    t0 = mw.engine.now
    for bname in mw.buildings:
        if load_buildings is not None and bname not in load_buildings:
            continue
        gen = EdgeWorkloadGenerator(
            mw.rngs.stream(f"edge-{bname}"),
            source=bname,
            config=EdgeWorkloadConfig(rate_per_hour=RATE_PER_HOUR),
        )
        mw.inject(gen.generate(t0, t0 + load_days * DAY))
    wall0 = time.perf_counter()
    mw.run_until(t0 + (load_days + DRAIN_DAYS) * DAY)
    wall = time.perf_counter() - wall0
    # request ids come from a global counter, so the signature is built from
    # id-insensitive fields only
    signature = (
        sorted(
            (r.time, r.source, r.started_at, r.completed_at, r.executed_on)
            for r in mw.completed_edge()
        ),
        sorted((r.time, r.source) for r in mw.expired_edge()),
        mw.fleet_energy_j(),
        mw.total_cycles_executed(),
        mw.filler_completed,
        mw.engine.events_executed,
    )
    return wall, signature


def test_engine_speedup():
    cpus = os.cpu_count() or 1
    rows = []
    all_identical = True
    for n in SIZES:
        walls = {"scalar": [], "vector": []}
        sigs = {"scalar": [], "vector": []}
        for _ in range(REPEATS):
            for kernel in ("scalar", "vector"):
                wall, sig = _run(n, kernel)
                walls[kernel].append(wall)
                sigs[kernel].append(sig)
        # determinism within a kernel and equivalence across kernels
        for kernel in ("scalar", "vector"):
            assert all(s == sigs[kernel][0] for s in sigs[kernel]), (
                f"n={n}: {kernel} kernel is not run-to-run deterministic"
            )
        identical = sigs["scalar"][0] == sigs["vector"][0]
        all_identical = all_identical and identical
        assert identical, f"n={n}: kernels disagree on simulation outputs"
        scalar_s = min(walls["scalar"])
        vector_s = min(walls["vector"])
        rows.append(
            {
                "n_districts": n,
                "fleet_multiplier": f"{n}x",
                "scalar_s": round(scalar_s, 3),
                "vector_s": round(vector_s, 3),
                "speedup": round(scalar_s / vector_s, 2),
                "outputs_identical": identical,
            }
        )

    # rows first: a failed speed-up gate still ships the numbers that failed it
    _update_bench("sizes", rows, {
        "experiment": "ENGINE",
        "seed": SEED,
        "repeats": REPEATS,
        "timed_phase": "run_until only",
        "load_days": LOAD_DAYS,
        "drain_days": DRAIN_DAYS,
        "rate_per_hour": RATE_PER_HOUR,
        "speedup_asserted": cpus >= 2,
        "min_speedup_16x": MIN_SPEEDUP_16X,
        "outputs_identical": all_identical,
    })

    big = rows[-1]
    if cpus >= 2:
        assert big["speedup"] >= MIN_SPEEDUP_16X, (
            f"vector kernel only {big['speedup']:.2f}x at {big['fleet_multiplier']} "
            f"fleet (need >= {MIN_SPEEDUP_16X}x)"
        )


def _update_bench(section: str, rows: list, context: dict) -> None:
    """Merge one test's rows into BENCH_engine.json (tests run separately)."""
    bench_schema.merge_section(RESULTS_DIR / "BENCH_engine.json", "engine",
                               section, rows, context, units=UNITS)


def _sample_building_names(n_districts: int):
    """The surrogate's own sample districts for this seed/size — discovered
    from a probe city so both kernels get the identical (restricted) load."""
    probe = small_city(
        seed=SEED, start_time=mid_month_start(1), n_districts=n_districts,
        buildings_per_district=2, rooms_per_building=3,
        saturation_policy=SaturationPolicy.PREEMPT,
        kernel="surrogate", surrogate=SUR_TIER,
    )
    return frozenset(
        bname for bname in probe.buildings
        if int(bname.split("/")[0].split("-")[1])
        in probe.surrogate.sample_districts
    )


def test_surrogate_speedup():
    """64x/256x fleets: the surrogate tier vs the vector kernel it rides on."""
    cpus = os.cpu_count() or 1
    asserted = cpus >= 2
    rows = []
    for n in SUR_SIZES:
        load = _sample_building_names(n)
        walls = {"vector": [], "surrogate": []}
        sigs = {"vector": [], "surrogate": []}
        for _ in range(SUR_REPEATS):
            for kernel in ("vector", "surrogate"):
                wall, sig = _run(n, kernel, load_buildings=load,
                                 load_days=SUR_LOAD_DAYS)
                walls[kernel].append(wall)
                sigs[kernel].append(sig)
        for kernel in ("vector", "surrogate"):
            assert all(s == sigs[kernel][0] for s in sigs[kernel]), (
                f"n={n}: {kernel} kernel is not run-to-run deterministic"
            )
        vec, sur = sigs["vector"][0], sigs["surrogate"][0]
        # sample-district edge traffic is inside the byte-identity contract
        assert sur[0] == vec[0], f"n={n}: completed-edge sets diverged"
        assert sur[1] == vec[1], f"n={n}: expired-edge sets diverged"
        energy_rel = abs(sur[2] - vec[2]) / vec[2]
        assert energy_rel <= budget.FLEET_ENERGY_REL_TOL, (
            f"n={n}: fleet energy off by {energy_rel:.3f} "
            f"(budget {budget.FLEET_ENERGY_REL_TOL})"
        )
        vector_s = min(walls["vector"])
        surrogate_s = min(walls["surrogate"])
        rows.append({
            "n_districts": n,
            "fleet_multiplier": f"{n}x",
            "vector_s": round(vector_s, 3),
            "surrogate_s": round(surrogate_s, 3),
            "speedup": round(vector_s / surrogate_s, 2),
            "fleet_energy_rel_dev": round(energy_rel, 4),
            "edge_outputs_identical": True,
            "speedup_asserted": asserted or "skipped_insufficient_cores",
        })

    _update_bench("surrogate_sizes", rows, {
        "surrogate_repeats": SUR_REPEATS,
        "surrogate_load_days": SUR_LOAD_DAYS,
        "surrogate_warmup_ticks": SUR_TIER.warmup_ticks,
        "surrogate_sample_districts": SUR_TIER.sample_districts,
        "min_surrogate_speedup_256x": MIN_SUR_SPEEDUP_256X,
        "surrogate_speedup_asserted": asserted,
    })

    big = rows[-1]
    if asserted:
        assert big["speedup"] >= MIN_SUR_SPEEDUP_256X, (
            f"surrogate only {big['speedup']:.2f}x at "
            f"{big['fleet_multiplier']} fleet (need >= {MIN_SUR_SPEEDUP_256X}x)"
        )
