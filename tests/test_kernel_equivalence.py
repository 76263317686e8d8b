"""Differential fuzz + perf wall for the vectorised simulation kernel.

DESIGN.md §2.13 promises the ``vector`` kernel is byte-identical to the
``scalar`` reference while doing O(active) instead of O(fleet) work per
tick.  This module holds that promise under fire:

* **differential fuzz** — seeded-random :class:`MiddlewareConfig`\\ s
  (architecture, saturation policy, fleet size, boilers, filler, resilience
  on/off) run under both kernels and must produce identical output
  signatures: request multisets, fleet energy, executed cycles, comfort
  statistics, smart-grid logs, event counts.  Churn cities with A6's
  cloning bundles get their own cases, so clone gating and loser
  cancellation are held to the same standard;
* **surrogate tolerance fuzz** (DESIGN.md §2.18) — seeded-random cities run
  under ``surrogate`` vs ``vector`` and every metric of the declared budget
  (:mod:`repro.thermal.budget`) is asserted against *those constants*:
  per-district time-mean temperature, comfort-violation rate, fleet energy.
  Sample districts are exempt from the budget because they must match the
  vector kernel **byte-for-byte** — asserted separately;
* **perf-regression guard** — the placement-scan op counter
  (``scan_key_evals``) proves the vector scheduler evaluates priority keys
  only for workers with free capacity, while the scalar reference pays for
  the whole worker set, and that the op counting never changes placements;
* **caching regressions** — ``all_servers`` is built once at construction,
  and the fast constructors (``Task.prevalidated``, batched submits,
  vectorised P-state lookups, batched comfort rows) equal their reference
  counterparts exactly;
* **filler blocks** — a server driven with one block per filler batch stays
  in lockstep with one driven chunk by chunk: same live events, same next
  sequence number, bitwise-equal accounting after every random step.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.middleware import MiddlewareConfig
from repro.core.resilience.config import ResilienceConfig
from repro.core.scheduling.base import BaseScheduler, SaturationPolicy
from repro.experiments import a6_churn
from repro.experiments.common import mid_month_start, small_city
from repro.hardware.qrad import QRAD_SPEC
from repro.hardware.server import ComputeServer, Task
from repro.sim.engine import Engine
from repro.thermal import budget
from repro.thermal.comfort import ComfortTracker
from repro.thermal.fused import FusedCityThermal
from repro.thermal.surrogate import SurrogateConfig
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

DAY = 86400.0


# --------------------------------------------------------------------------- #
# differential fuzz
# --------------------------------------------------------------------------- #
def _random_configs(n: int, seed: int = 20260806):
    """Seeded-random city configurations (deterministic across runs)."""
    rng = random.Random(seed)
    configs = []
    for i in range(n):
        arch = rng.choice(["shared", "dedicated"])
        cfg = dict(
            seed=rng.randrange(10_000),
            start_time=mid_month_start(rng.choice([1, 4, 7, 10])),
            n_districts=rng.randint(1, 3),
            buildings_per_district=rng.randint(1, 3),
            rooms_per_building=rng.randint(2, 4),
            boilers_per_district=rng.choice([0, 0, 1]),
            architecture=arch,
            saturation_policy=rng.choice(list(SaturationPolicy)),
            enable_filler=rng.random() < 0.8,
            thermal_tick_s=rng.choice([300.0, 600.0]),
            resilience=ResilienceConfig() if rng.random() < 0.4 else None,
        )
        if arch == "dedicated":
            cfg["dedicated_per_cluster"] = 1
        configs.append(cfg)
    return configs


CONFIGS = _random_configs(6)


def _run(cfg_kwargs: dict, kernel: str, load_days: float = 0.08,
         rate_per_hour: float = 30.0):
    mw = small_city(kernel=kernel, **cfg_kwargs)
    t0 = mw.engine.now
    for bname in mw.buildings:
        gen = EdgeWorkloadGenerator(
            mw.rngs.stream(f"edge-{bname}"),
            source=bname,
            config=EdgeWorkloadConfig(rate_per_hour=rate_per_hour),
        )
        mw.inject(gen.generate(t0, t0 + load_days * DAY))
    mw.run_until(t0 + (load_days + 0.02) * DAY)
    return mw


def _signature(mw):
    """Kernel-independent output digest.

    Request ids come from a global counter shared by both runs of a
    differential pair, so the digest uses id-insensitive fields only.
    """
    comfort = mw.comfort.result()
    return {
        "edge_completed": sorted(
            (r.time, r.source, r.started_at, r.completed_at, r.executed_on)
            for r in mw.completed_edge()
        ),
        "edge_expired": sorted((r.time, r.source) for r in mw.expired_edge()),
        "cloud_completed": len(mw.completed_cloud()),
        "fleet_energy_j": mw.fleet_energy_j(),
        "cycles": mw.total_cycles_executed(),
        "filler_completed": mw.filler_completed,
        "events_executed": mw.engine.events_executed,
        "comfort": (comfort.hours_tracked, comfort.time_in_band, comfort.rmse_c,
                    comfort.mean_temp_c, comfort.cold_degree_hours,
                    comfort.overheat_degree_hours),
        "useful_heat_j": mw.ledger._useful_heat_j,
        "capacity_log": dict(mw.smartgrid.capacity_log),
        "energy_budget_log": dict(mw.smartgrid.energy_budget_log),
        "monthly_temps": mw.comfort.monthly_mean_temps(),
    }


@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=[f"cfg{i}" for i in range(len(CONFIGS))])
def test_kernels_agree_on_random_configs(cfg):
    sig_scalar = _signature(_run(cfg, "scalar"))
    sig_vector = _signature(_run(cfg, "vector"))
    assert sig_scalar == sig_vector


@pytest.mark.parametrize("bundle", ["clone", "clone-cs", "adaptive"])
@pytest.mark.parametrize("seed", [5, 17])
def test_kernels_agree_on_churn_cities_with_clone_bundles(bundle, seed):
    """A6's churn at mtbf=2h with each cloning bundle: clone gating reads
    paying cores, losers are cancelled by server name, and both kernels
    still produce the same outputs and the same resilience log."""
    cfg = dict(seed=seed, start_time=mid_month_start(1),
               saturation_policy=SaturationPolicy.QUEUE,
               resilience=a6_churn._resilience(2 * 3600.0,
                                               a6_churn.BUNDLES[bundle]))
    scalar = _run(cfg, "scalar", load_days=0.2, rate_per_hour=240.0)
    vector = _run(cfg, "vector", load_days=0.2, rate_per_hour=240.0)
    log = scalar.resilience.log
    assert log.clones_spawned > 0 and log.server_failures > 0
    assert _signature(scalar) == _signature(vector)
    assert dataclasses.asdict(log) == dataclasses.asdict(vector.resilience.log)


# --------------------------------------------------------------------------- #
# surrogate tier: tolerance fuzz against the declared budget (DESIGN.md §2.18)
# --------------------------------------------------------------------------- #
def _surrogate_configs(n: int, seed: int = 20260807):
    """Seeded-random surrogate-eligible cities (see EXPERIMENTS.md).

    Resilience is off (churn materialises districts, which is covered by its
    own test) and every city has >= 2 districts so the aggregate model
    actually engages.
    """
    rng = random.Random(seed)
    configs = []
    for _ in range(n):
        arch = rng.choice(["shared", "dedicated"])
        cfg = dict(
            seed=rng.randrange(10_000),
            start_time=mid_month_start(rng.choice([1, 4, 10])),
            n_districts=rng.randint(2, 4),
            buildings_per_district=rng.randint(1, 2),
            rooms_per_building=rng.randint(2, 3),
            architecture=arch,
            saturation_policy=rng.choice(
                [SaturationPolicy.QUEUE, SaturationPolicy.PREEMPT]),
            enable_filler=True,
            thermal_tick_s=600.0,
        )
        if arch == "dedicated":
            cfg["dedicated_per_cluster"] = 1
        configs.append(cfg)
    return configs


SURROGATE_CONFIGS = _surrogate_configs(4)
SUR_TIER = SurrogateConfig(warmup_ticks=4, sample_districts=1)
SUR_TICKS = 20


def _run_tracked(cfg_kwargs: dict, kernel: str, load_buildings,
                 rate_per_hour: float = 30.0):
    """Run ``SUR_TICKS`` thermal ticks recording per-district mean temps.

    Edge load targets only ``load_buildings`` (the surrogate run's sample
    districts), so aggregate districts stay aggregated — the regime the
    tolerance budget is stated for.
    """
    kw = dict(cfg_kwargs)
    if kernel == "surrogate":
        kw["surrogate"] = SUR_TIER
    mw = small_city(kernel=kernel, **kw)
    t0 = mw.engine.now
    tick = mw.config.thermal_tick_s
    for bname in load_buildings:
        gen = EdgeWorkloadGenerator(
            mw.rngs.stream(f"edge-{bname}"),
            source=bname,
            config=EdgeWorkloadConfig(rate_per_hour=rate_per_hour),
        )
        mw.inject(gen.generate(t0, t0 + SUR_TICKS * tick))
    nd = mw.config.n_districts
    means = []
    for k in range(1, SUR_TICKS + 1):
        mw.run_until(t0 + k * tick + 1.0)
        grid = np.asarray(mw._fused_thermal.t_air).reshape(nd, -1)
        means.append(grid.mean(axis=1))
    return mw, np.asarray(means)


def _sample_buildings(cfg_kwargs: dict):
    """The surrogate run's sample districts' buildings for this config."""
    probe = small_city(kernel="surrogate",
                       **dict(cfg_kwargs, surrogate=SUR_TIER))
    return probe.surrogate.sample_districts, [
        f"district-{d}/building-{b}"
        for d in probe.surrogate.sample_districts
        for b in range(cfg_kwargs.get("buildings_per_district", 2))
    ]


@pytest.mark.parametrize("cfg", SURROGATE_CONFIGS,
                         ids=[f"sur{i}" for i in range(len(SURROGATE_CONFIGS))])
def test_surrogate_within_declared_budget(cfg):
    """Every budget metric is asserted against the constants in
    ``repro.thermal.budget`` — tightening the budget is a one-line diff
    there, and a silently drifting surrogate fails here."""
    _samples, load = _sample_buildings(cfg)
    mw_s, means_s = _run_tracked(cfg, "surrogate", load)
    mw_v, means_v = _run_tracked(cfg, "vector", load)
    assert mw_s.surrogate.switched
    assert mw_s.surrogate.agg_ids, "no aggregate district: budget test is vacuous"

    # metric 1: per-district time-mean air temperature
    dev_c = np.abs(means_s.mean(axis=0) - means_v.mean(axis=0))
    assert dev_c.max() <= budget.DISTRICT_MEAN_TEMP_TOL_C, dev_c

    # metric 2: comfort-violation rate (1 − time_in_band)
    viol_s = 1.0 - mw_s.comfort.result().time_in_band
    viol_v = 1.0 - mw_v.comfort.result().time_in_band
    assert abs(viol_s - viol_v) <= budget.COMFORT_VIOLATION_RATE_TOL

    # metric 3: fleet electrical energy (modelled replaces metered)
    e_s, e_v = mw_s.fleet_energy_j(), mw_v.fleet_energy_j()
    assert e_v > 0
    assert abs(e_s - e_v) / e_v <= budget.FLEET_ENERGY_REL_TOL


def test_surrogate_sample_district_byte_identical_to_vector():
    """Sample districts run the exact path end to end: their per-room
    temperature and regulator trajectories must equal the vector kernel's
    bit for bit, tick by tick — the exactness half of the budget contract."""
    cfg = dict(seed=29, start_time=mid_month_start(1), n_districts=3,
               buildings_per_district=2, rooms_per_building=3,
               saturation_policy=SaturationPolicy.QUEUE,
               thermal_tick_s=600.0)
    samples, load = _sample_buildings(cfg)
    rpd = cfg["buildings_per_district"] * cfg["rooms_per_building"]
    idx = np.concatenate([np.arange(d * rpd, (d + 1) * rpd) for d in samples])
    runs = {}
    for kernel in ("surrogate", "vector"):
        kw = dict(cfg, surrogate=SUR_TIER) if kernel == "surrogate" else cfg
        mw = small_city(kernel=kernel, **kw)
        t0 = mw.engine.now
        for bname in load:
            gen = EdgeWorkloadGenerator(
                mw.rngs.stream(f"edge-{bname}"),
                source=bname,
                config=EdgeWorkloadConfig(rate_per_hour=30.0),
            )
            mw.inject(gen.generate(t0, t0 + SUR_TICKS * 600.0))
        temps, pf = [], []
        for k in range(1, SUR_TICKS + 1):
            mw.run_until(t0 + k * 600.0 + 1.0)
            temps.append(np.asarray(mw._fused_thermal.t_air)[idx].copy())
            pf.append(np.asarray(mw._bank.power_fraction)[idx].copy())
        edge = sorted(
            (r.time, r.source, r.started_at, r.completed_at, r.executed_on)
            for r in mw.completed_edge()
        )
        runs[kernel] = (np.asarray(temps), np.asarray(pf), edge)
    assert np.array_equal(runs["surrogate"][0], runs["vector"][0])
    assert np.array_equal(runs["surrogate"][1], runs["vector"][1])
    assert runs["surrogate"][2] == runs["vector"][2]


def test_kernel_flag_reaches_surrogate_layer():
    sur = small_city(kernel="surrogate")
    assert sur.kernel == "surrogate"
    assert all(s.incremental_scans for s in sur.schedulers.values())
    assert sur._bank is not None and sur._fused_thermal is not None
    assert sur.surrogate is not None
    assert small_city(kernel="vector").surrogate is None
    with pytest.raises(ValueError, match="kernel"):
        MiddlewareConfig(kernel="bogus")


def test_kernel_flag_reaches_every_layer():
    vec = small_city(kernel="vector")
    ref = small_city(kernel="scalar")
    assert vec.kernel == "vector" and ref.kernel == "scalar"
    assert all(s.incremental_scans for s in vec.schedulers.values())
    assert not any(s.incremental_scans for s in ref.schedulers.values())
    assert vec._bank is not None and ref._bank is None
    assert vec._fused_thermal is not None and ref._fused_thermal is None


# --------------------------------------------------------------------------- #
# perf-regression guard: per-tick scan work
# --------------------------------------------------------------------------- #
def test_placement_scans_cost_capacity_not_fleet():
    """Key evaluations: scalar pays O(workers), vector O(workers with room)."""
    cfg = dict(seed=11, start_time=mid_month_start(1),
               saturation_policy=SaturationPolicy.PREEMPT)
    runs = {}
    for kernel in ("scalar", "vector"):
        mw = _run(dict(cfg, n_districts=2), kernel)
        runs[kernel] = (
            sum(s.scan_key_evals for s in mw.schedulers.values()),
            _signature(mw),
        )
    scalar_evals, scalar_sig = runs["scalar"]
    vector_evals, vector_sig = runs["vector"]
    assert scalar_sig == vector_sig        # op counting never changes outputs
    requests = len(scalar_sig["edge_completed"]) + len(scalar_sig["edge_expired"])
    assert requests > 0 and scalar_evals > 0
    # the scalar reference sorts the full eligible worker set per scan; the
    # vector path touches only workers with free capacity — with the filler
    # keeping wanted servers saturated, that is a strict, material saving
    assert vector_evals < scalar_evals


def test_best_worker_probes_only_workers_with_capacity():
    mw = small_city(kernel="vector", seed=3)
    sched = next(iter(mw.schedulers.values()))
    workers = list(sched.edge_workers())
    assert len(workers) >= 3
    # saturate all but one worker
    open_worker = workers[-1]
    for w in workers[:-1]:
        while w.free_cores > 0:
            assert w.submit(Task(f"fill-{w.name}-{w.free_cores}", 1e9, cores=1))
    before = sched.scan_key_evals
    chosen = sched._best_worker(workers, 1)
    probes = sched.scan_key_evals - before
    assert chosen is open_worker
    assert probes == 1                      # O(workers with capacity)
    before = sched.scan_key_evals
    ordered = sched._ordered(workers)
    assert sched.scan_key_evals - before == len(workers)   # O(fleet) reference
    # and the incremental choice matches the sorted reference's first fit
    assert next(w for w in ordered if w.free_cores >= 1) is chosen


def test_best_worker_scan_calls_do_not_grow_with_full_workers(python_calls):
    """A scan reads each server's counters: a full worker costs no call.

    One ``_best_worker(workers, 1)`` scan past 2 and past 5 saturated
    workers makes the same Python calls (the scan itself and one priority
    key for the open worker); a ``free_cores`` property read per worker
    would add one call per saturated worker.
    """
    calls = {}
    for n_full in (2, 5):
        mw = small_city(kernel="vector", seed=3)
        sched = next(iter(mw.schedulers.values()))
        workers = list(sched.edge_workers())[:n_full + 1]
        assert len(workers) == n_full + 1
        for w in workers[:-1]:
            while w.free_cores > 0:
                assert w.submit(Task(f"fill-{w.name}-{w.free_cores}", 1e9, cores=1))
        sched.worker_priority(workers[-1])  # the per-version flag cache, warm
        calls[n_full] = python_calls(sched._best_worker, workers, 1)
        assert sched._best_worker(workers, 1) is workers[-1]
    assert calls[2] == calls[5]


# --------------------------------------------------------------------------- #
# caching regressions
# --------------------------------------------------------------------------- #
def test_all_servers_cached_at_construction():
    mw = small_city()
    first = mw.all_servers
    second = mw.all_servers
    assert first == second
    assert first is not second              # callers get private copies
    assert first is not mw._all_servers
    assert mw._all_servers is mw._all_servers  # no rebuild per access
    n_qrads = (mw.config.n_districts * mw.config.buildings_per_district
               * mw.config.rooms_per_building)
    assert len(first) == n_qrads + len(mw.boilers)
    # aggregate accessors walk the same cached list
    assert mw.fleet_energy_j() == sum(s.energy_j for s in first)
    assert mw.total_cycles_executed() == sum(s.cycles_executed for s in first)


def test_task_prevalidated_matches_reference_constructor():
    def done(t, now):
        return None

    for chunks in (1, 3):
        ref = Task(task_id="t-1", work_cycles=3.7e9, cores=2, on_complete=done,
                   metadata={"kind": "filler"}, chunks=chunks)
        fast = Task.prevalidated("t-1", 3.7e9, 2, done, {"kind": "filler"},
                                 chunks)
        for f in ("task_id", "work_cycles", "cores", "on_complete", "metadata",
                  "chunks", "state", "remaining_cycles", "submitted_at",
                  "completed_at", "server_name"):
            assert getattr(ref, f) == getattr(fast, f), (chunks, f)


# --------------------------------------------------------------------------- #
# filler blocks: one entry with a chunk count equals its chunks
# --------------------------------------------------------------------------- #
class _FillerSide:
    """One Q.rad on its own engine, given filler chunk by chunk or as blocks.

    The chunk side is the scalar kernel's representation; it alternates
    sequential :meth:`ComputeServer.submit` calls with one
    :meth:`ComputeServer.submit_batch` per batch, which must be the same.
    """

    def __init__(self, blocks: bool):
        self.blocks = blocks
        self.engine = Engine()
        self.server = ComputeServer("q", QRAD_SPEC, self.engine)
        self.batches = {}                   # batch number → its entry ids
        self.filler_done = Counter()        # completion time → chunks
        self.paying_done = []               # (task id, completion time)

    def _filler_cb(self, task, now):
        self.filler_done[now] += task.chunks

    def _paying_cb(self, task, now):
        self.paying_done.append((task.task_id, now))

    def filler_batch(self, b: int, n: int, cores: int, work: float) -> int:
        def mk(task_id, chunks):
            return Task(task_id, work, cores=cores, on_complete=self._filler_cb,
                        metadata={"kind": "filler"}, chunks=chunks)

        if self.blocks:
            self.batches[b] = [f"f{b}"]
            return self.server.submit_batch([mk(f"f{b}", n)])
        self.batches[b] = [f"f{b}.{i}" for i in range(n)]
        tasks = [mk(tid, 1) for tid in self.batches[b]]
        if b % 2:
            return self.server.submit_batch(tasks)
        return sum(self.server.submit(t) for t in tasks)

    def paying(self, task_id: str, cores: int, work: float) -> bool:
        """A paying placement as the scheduler makes it: evict, then submit."""
        task = Task(task_id, work, cores=cores, on_complete=self._paying_cb,
                    metadata={"kind": "cloud"})
        return (BaseScheduler._evict_filler(self.server, cores)
                and self.server.submit(task))

    def live_chunks(self, b: int) -> int:
        running = {t.task_id: t for t in self.server.running_tasks}
        return sum(running[i].chunks for i in self.batches[b] if i in running)

    def filler_chunks(self) -> int:
        return sum(t.chunks for t in self.server.running_tasks
                   if t.metadata["kind"] == "filler")

    def preempt_batch(self, b: int) -> None:
        running = {t.task_id for t in self.server.running_tasks}
        for task_id in self.batches[b]:
            if task_id in running:
                self.server.preempt(task_id)

    def state(self) -> dict:
        s, eng = self.server, self.engine
        recomputed = sum(t.cores * t.chunks for t in s.running_tasks)
        assert s._busy_cores == recomputed == s.busy_cores
        probe = eng.schedule(0.0, lambda: None)   # reads the next seq; both
        probe.cancel()                            # sides burn it alike
        return {
            "live_events": sorted((t, p, q) for t, p, q, ev in eng._heap
                                  if not ev.cancelled),
            "next_seq": probe.seq,
            "cycles_executed": s.cycles_executed,
            "energy_j": s.energy_j,
            "busy_core_seconds": s.busy_core_seconds,
            "completed_count": s.completed_count,
            "busy_cores": s.busy_cores,
            # running entries expanded to chunks, in running order
            "chunks": [(t.remaining_cycles, t.cores, t.metadata["kind"])
                       for t in s.running_tasks for _ in range(t.chunks)],
            "filler_done": sorted(self.filler_done.items()),
            "paying_done": list(self.paying_done),
        }


_FILLER_OPS = ("filler", "paying", "cap", "preempt_batch", "preempt_kind",
               "kill", "gap")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_filler_block_equals_its_chunks_at_the_server(seed):
    rng = random.Random(seed)
    ref, blk = sides = (_FillerSide(blocks=False), _FillerSide(blocks=True))
    n_batches = n_paying = 0
    ops = Counter()
    for step in range(300):
        op = rng.choices(_FILLER_OPS, weights=(5, 3, 1, 2, 0.5, 0.3, 5))[0]
        if op == "filler":
            cores = rng.choice((1, 1, 1, 2))
            free = ref.server.free_cores
            if free < cores:
                continue
            n = rng.randint(1, free // cores)
            work = rng.uniform(1.0, 3.0) * 1e9 * rng.uniform(60.0, 1200.0)
            got = [side.filler_batch(n_batches, n, cores, work) for side in sides]
            assert got == [n, n]
            n_batches += 1
        elif op == "paying":
            cores = rng.randint(1, 6)
            work = rng.uniform(1e9, 2e12)
            before = blk.filler_chunks()
            got = [side.paying(f"p{n_paying}", cores, work) for side in sides]
            assert got[0] == got[1]
            if before - blk.filler_chunks() >= 2:
                ops["multi_chunk_eviction"] += 1
            n_paying += 1
        elif op == "cap":
            index = rng.randrange(len(QRAD_SPEC.ladder))
            for side in sides:
                side.server.set_freq_cap(index)
        elif op == "preempt_batch":
            live = [b for b in ref.batches if ref.live_chunks(b)]
            if not live:
                continue
            b = rng.choice(live)
            assert blk.live_chunks(b) == ref.live_chunks(b)
            if blk.live_chunks(b) >= 2:
                ops["multi_chunk_preempt"] += 1
            for side in sides:
                side.preempt_batch(b)
        elif op in ("preempt_kind", "kill"):
            got = [
                sum(t.chunks for t in (side.server.preempt_kind("filler")
                                       if op == "preempt_kind"
                                       else side.server.kill_all()))
                for side in sides
            ]
            assert got[0] == got[1]
        else:
            gap = rng.choice((rng.uniform(0.0, 5.0), rng.uniform(0.0, 2000.0)))
            for side in sides:
                side.engine.run_until(side.engine.now + gap)
        ops[op] += 1
        assert blk.state() == ref.state(), (seed, step, op)
    # the walk really exercised blocks: every step kind, multi-chunk
    # preempts and evictions, and filler completions
    assert all(ops[op] >= 2 for op in _FILLER_OPS), ops
    assert ops["multi_chunk_preempt"] >= 3 and ops["multi_chunk_eviction"] >= 3, ops
    assert sum(ref.filler_done.values()) > 0


def _comfort_accumulators(tracker):
    return [float(v).hex() for v in (
        tracker._seconds, tracker._in_band_weight, tracker._sq_err_weight,
        tracker._temp_weight, tracker._cold_dh, tracker._hot_dh)]


def test_comfort_add_rows_equals_sequential_adds():
    rng = np.random.default_rng(42)
    a, b = ComfortTracker(band_c=1.0), ComfortTracker(band_c=1.0)
    for _ in range(20):
        rows, rooms = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        temps = rng.uniform(10, 30, size=(rows, rooms))
        sets = rng.uniform(18, 23, size=(rows, rooms))
        month = int(rng.integers(1, 13))
        for i in range(rows):
            a.add(600.0, temps[i], sets[i], month=month)
        b.add_rows(600.0, temps, sets, month=month)
    assert a.result() == b.result()
    assert a.monthly_mean_temps() == b.monthly_mean_temps()
    # hundreds of rows spanning decades, where a pairwise sum of the rows
    # differs from the sequential fold add() performs: bit for bit
    for rows in (500, 777, 1024):
        rooms = int(rng.integers(1, 7))
        dt = float(10 ** rng.uniform(0, 4))
        temps = rng.uniform(-1, 1, size=(rows, rooms)) * 10 ** rng.uniform(
            -2, 3, size=(rows, 1))
        sets = temps + rng.normal(0, 2, size=(rows, rooms)) * 10 ** rng.uniform(
            -1, 2, size=(rows, 1))
        month = int(rng.integers(1, 13))
        for i in range(rows):
            a.add(dt, temps[i], sets[i], month=month)
        b.add_rows(dt, temps, sets, month=month)
        assert _comfort_accumulators(a) == _comfort_accumulators(b)
        assert a._n_samples == b._n_samples
    assert ({m: v.hex() for m, v in a.monthly_mean_temps().items()}
            == {m: v.hex() for m, v in b.monthly_mean_temps().items()})


def test_fused_thermal_bitwise_equals_per_building_steps():
    mk = lambda: small_city(kernel="scalar", seed=5, n_districts=2)  # noqa: E731
    ref, fus = mk(), mk()
    fused = FusedCityThermal(list(fus.buildings.values()))
    assert fused.compatible
    now = ref.engine.now
    for k in range(6):
        now += 600.0
        for b in ref.buildings.values():
            b.step(now, 600.0)
        fused.step(now, 600.0)
    for (bn, b_ref), b_fus in zip(ref.buildings.items(), fus.buildings.values()):
        assert np.array_equal(b_ref.network.t_air, b_fus.network.t_air), bn
        assert np.array_equal(b_ref.network.t_env, b_fus.network.t_env), bn


def test_shared_ladder_caps_match_per_server_lookup():
    mw = small_city(kernel="vector", seed=9)
    sg = mw.smartgrid
    assert sg._shared_scales is not None
    rng = np.random.default_rng(7)
    budgets = np.concatenate([
        rng.uniform(0.0, 1.2, size=200),
        np.asarray(sg._shared_scales),          # exact boundaries
        np.asarray(sg._shared_scales) - 1e-12,
    ])
    ladder = sg._fleet[0].server.spec.ladder
    caps = np.maximum(
        np.searchsorted(sg._shared_scales, budgets + 1e-12, side="right") - 1, 0
    ).tolist()
    expected = [ladder.index_for_power_budget(float(b)) for b in budgets]
    assert caps == expected
