"""`DF3Middleware`: one middleware for district heating, edge and DCC.

The paper's thesis (§II-C): "With DF3, we propose to operate distributed cloud
and edge on the same platform.  We also suggest to have a single middleware
both for district heating, edge and DCC."  This class is that middleware,
assembled from the substrates:

* a city of districts, each a :class:`~repro.core.cluster.Cluster` of
  Q.rads — one per room of each building — plus optional digital boilers;
* per-cluster schedulers (architecture class 1 or 2) behind edge/DCC gateways;
* an :class:`~repro.core.offloading.Offloader` wired to peer clusters and to
  a classical :class:`~repro.hardware.datacenter.Datacenter`;
* a :class:`~repro.core.regulation.HeatRegulator` per server bound to its
  room, coordinated by a :class:`~repro.core.smartgrid.SmartGridManager`;
* the thermal fabric (buildings + weather) stepped on a fixed tick, with
  comfort and heat-island accounting.

The **filler** mechanism keeps rooms warm when paying work is scarce: the
seasonal/opportunistic application class of Liu et al. (paper ref [6], e.g.
BOINC batches) is modelled as preemptible chunk tasks injected wherever heat
is wanted and cores are idle — evicted instantly when real work arrives.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.collective import CollectiveController
from repro.core.decision import DecisionConfig, DecisionSystem
from repro.core.gateway import DCCGateway, EdgeGateway
from repro.core.offloading import Offloader
from repro.core.regulation import FleetRegulatorBank, HeatRegulator, RegulatorConfig
from repro.core.requests import CloudRequest, EdgeRequest, HeatingRequest
from repro.core.resilience.config import ResilienceConfig
from repro.core.resilience.recovery import RecoveryRuntime
from repro.core.scheduling.base import SaturationPolicy
from repro.core.scheduling.dedicated import DedicatedWorkersScheduler
from repro.core.scheduling.shared import SharedWorkersScheduler
from repro.core.smartgrid import SmartGridManager
from repro.hardware.boiler import STIMERGY_SMALL, DigitalBoiler
from repro.hardware.datacenter import Datacenter
from repro.hardware.qrad import QRAD_SPEC, QRad
from repro.hardware.server import Task
from repro.network.internet import WANLink, WANProfile
from repro.network.link import Link
from repro.network.lowpower import ZIGBEE, LowPowerProtocol
from repro.obs import get_obs
from repro.sim.calendar import SimCalendar
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.thermal.building import Building, RoomConfig, ThermostatSchedule
from repro.thermal.comfort import ComfortTracker
from repro.thermal.fused import FusedCityThermal
from repro.thermal.surrogate import SurrogateConfig, SurrogateController
from repro.thermal.heat_island import HeatIslandLedger, OutdoorHeatSource
from repro.thermal.hydronics import WaterLoop, WaterLoopConfig
from repro.thermal.rc_model import RoomThermalParams
from repro.thermal.weather import Weather, WeatherConfig

__all__ = ["MiddlewareConfig", "DF3Middleware", "resolve_kernel"]

_GHZ = 1e9

_KERNELS = ("scalar", "vector", "surrogate")


def resolve_kernel(value: Optional[str] = None) -> str:
    """Resolve the simulation kernel: explicit config > env > default.

    ``value`` is :attr:`MiddlewareConfig.kernel`; when None the
    ``REPRO_KERNEL`` environment variable applies (how the CLI's ``--kernel``
    flag reaches pool workers), and the default is ``"vector"``.  The scalar
    and vector kernels are byte-identical by contract (DESIGN.md §2.13);
    ``"scalar"`` is the reference implementation.  The ``"surrogate"`` tier
    (DESIGN.md §2.18) trades a declared tolerance budget
    (:mod:`repro.thermal.budget`) for district-aggregate speed.
    """
    kernel = value or os.environ.get("REPRO_KERNEL") or "vector"
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
    return kernel


@dataclass(frozen=True)
class MiddlewareConfig:
    """Deployment + policy knobs of a DF3 city.

    The defaults describe a small laptop-scale city: 2 districts × 2 buildings
    × 3 rooms, one 500 W Q.rad per room, one 8-node datacenter for vertical
    offloading.
    """

    n_districts: int = 2
    buildings_per_district: int = 2
    rooms_per_building: int = 3
    boilers_per_district: int = 0
    architecture: str = "shared"          # "shared" (class 1) | "dedicated" (class 2)
    dedicated_per_cluster: int = 1        # edge-reserved Q.rads (class 2 only)
    saturation_policy: SaturationPolicy = SaturationPolicy.QUEUE
    context_switch_s: float = 0.0
    dc_nodes: int = 8
    thermal_tick_s: float = 300.0
    enable_filler: bool = True
    filler_chunk_s: float = 300.0
    hybrid_migration: bool = True
    allow_privacy_vertical: bool = False
    regulator: RegulatorConfig = field(default_factory=RegulatorConfig)
    decision: DecisionConfig = field(default_factory=DecisionConfig)
    edge_protocol: LowPowerProtocol = ZIGBEE
    weather: WeatherConfig = field(default_factory=WeatherConfig)
    wan: WANProfile = field(default_factory=WANProfile.national_internet)
    start_time: float = 0.0
    weather_horizon: float = 2 * 365 * 86400.0
    seed: int = 0
    initial_setpoint_c: float = 20.0
    room_thermal: RoomThermalParams = field(default_factory=RoomThermalParams)
    #: arm churn + recovery (None = no resilience machinery at all; runs are
    #: byte-identical to builds without the subsystem)
    resilience: Optional[ResilienceConfig] = None
    #: simulation kernel: "scalar" | "vector" | "surrogate" | None
    #: (= ``REPRO_KERNEL`` env or the "vector" default).  Scalar and vector
    #: outputs are byte-identical; surrogate is tolerance-budgeted.
    kernel: Optional[str] = None
    #: surrogate-tier knobs (warm-up window, sample size, checkpoint cadence);
    #: only consulted when the resolved kernel is "surrogate"
    surrogate: Optional[SurrogateConfig] = None

    def __post_init__(self) -> None:
        if self.kernel is not None and self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; expected one of {_KERNELS}")
        if self.architecture not in ("shared", "dedicated"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "dedicated" and not (
            0 < self.dedicated_per_cluster
            <= self.buildings_per_district * self.rooms_per_building
        ):
            raise ValueError("dedicated pool size out of range")
        if self.thermal_tick_s <= 0 or self.filler_chunk_s <= 0:
            raise ValueError("tick and filler chunk must be > 0")


class DF3Middleware:
    """The single middleware for the three flows.  See module docstring.

    ``obs`` is the :class:`repro.obs.Observability` bundle instrumenting this
    city; it defaults to the process-wide current one (inactive unless the
    CLI or a test installed an active bundle), so uninstrumented construction
    and runs are byte-identical to pre-observability behaviour.
    """

    def __init__(self, config: MiddlewareConfig = MiddlewareConfig(), obs=None):
        self.config = config
        cfg = config
        self.obs = obs if obs is not None else get_obs()
        self.engine = Engine(start=cfg.start_time, profiler=self.obs.profiler)
        #: resolved kernel for this city ("scalar" | "vector" | "surrogate").
        #: The surrogate tier runs on the vector substrate (bank + fused arrays).
        self.kernel = resolve_kernel(cfg.kernel)
        self.rngs = RngRegistry(cfg.seed)
        self.cal = SimCalendar()
        self.weather = Weather(
            self.rngs.stream("weather"), cfg.weather, horizon=cfg.weather_horizon
        )
        self.ledger = HeatIslandLedger()
        self.comfort = ComfortTracker(band_c=1.0)

        self.datacenter: Optional[Datacenter] = None
        if cfg.dc_nodes > 0:
            self.datacenter = Datacenter(
                "dc", cfg.dc_nodes, self.engine, ledger=self.ledger
            )
        wan_link = WANLink(cfg.wan, rng=self.rngs.stream("wan"))
        self.offloader = Offloader(
            self.engine,
            datacenter=self.datacenter,
            wan=wan_link if self.datacenter else None,
            allow_privacy_vertical=cfg.allow_privacy_vertical,
            obs=self.obs,
        )

        # --- districts: buildings, rooms, Q.rads, regulators, clusters ----
        self.buildings: Dict[str, Building] = {}
        self.clusters: Dict[int, Cluster] = {}
        self.schedulers: Dict[int, object] = {}
        self.edge_gateways: Dict[int, EdgeGateway] = {}
        self.dcc_gateways: Dict[int, DCCGateway] = {}
        self.regulators: Dict[str, HeatRegulator] = {}   # room name → regulator
        self.collectives: Dict[str, CollectiveController] = {}  # building → ctrl
        self._server_room: Dict[str, str] = {}           # server name → room name
        self._room_server: Dict[str, QRad] = {}
        self.boilers: List[DigitalBoiler] = []
        self.smartgrid = SmartGridManager(self.engine)
        self._filler_ids = itertools.count()
        self.filler_completed = 0

        bank = FleetRegulatorBank() if self.kernel != "scalar" else None
        self._bank: Optional[FleetRegulatorBank] = bank
        #: bank index → (qrad, district); only populated on the vector kernel
        self._bank_entries: List[Tuple[QRad, int]] = []
        self._district_qrad_idx: Dict[int, List[int]] = {}
        self._district_boilers: Dict[int, List[DigitalBoiler]] = {}
        #: Q.rad name → bank index (vector kernel only)
        self._bank_index: Dict[str, int] = {}
        #: (bank version, heat-wanted flag per bank index) for _worker_priority
        self._wanted_cache: Tuple[int, List[bool]] = (-1, [])

        for d in range(cfg.n_districts):
            cluster = Cluster(ClusterConfig(name=f"district-{d}", district=d))
            self._district_qrad_idx[d] = []
            self._district_boilers[d] = []
            dedicated_left = (
                cfg.dedicated_per_cluster if cfg.architecture == "dedicated" else 0
            )
            for b in range(cfg.buildings_per_district):
                bname = f"district-{d}/building-{b}"
                rooms = [
                    RoomConfig(
                        name=f"{bname}/room-{r}",
                        thermal=cfg.room_thermal,
                        schedule=ThermostatSchedule(),
                    )
                    for r in range(cfg.rooms_per_building)
                ]
                building = Building(rooms, self.weather, t_init_c=18.0)
                self.buildings[bname] = building
                building_regs = []
                for r, room in enumerate(building.rooms):
                    qrad = QRad(f"{bname}/qrad-{r}", self.engine, QRAD_SPEC)
                    room.attach(qrad)
                    reg = HeatRegulator(cfg.regulator)
                    reg.set_target(cfg.initial_setpoint_c)
                    if self.obs.active:
                        reg.observer = self._regulator_observer(room.name, d)
                    self.regulators[room.name] = reg
                    building_regs.append(reg)
                    self._server_room[qrad.name] = room.name
                    self._room_server[room.name] = qrad
                    self.smartgrid.register(qrad, reg)
                    if bank is not None:
                        i = bank.attach(reg)
                        self._district_qrad_idx[d].append(i)
                        self._bank_entries.append((qrad, d))
                        self._bank_index[qrad.name] = i
                    cluster.add_worker(qrad, dedicated_edge=dedicated_left > 0)
                    dedicated_left -= 1
                self.collectives[bname] = CollectiveController(building_regs)
            for bi in range(cfg.boilers_per_district):
                loop = WaterLoop(WaterLoopConfig(), t_init_c=40.0)
                boiler = DigitalBoiler(
                    f"district-{d}/boiler-{bi}", self.engine, loop,
                    spec=STIMERGY_SMALL, ledger=self.ledger,
                )
                self.boilers.append(boiler)
                self._district_boilers[d].append(boiler)
                self.smartgrid.register_boiler(boiler)
                cluster.add_worker(boiler)
            self.clusters[d] = cluster

            decision = (
                DecisionSystem(cfg.decision)
                if cfg.saturation_policy is SaturationPolicy.DECISION
                else None
            )
            sched_kwargs = dict(
                cluster=cluster,
                engine=self.engine,
                policy=cfg.saturation_policy,
                offloader=self.offloader,
                decision_system=decision,
                worker_priority=self._worker_priority,
                incremental_scans=self.kernel != "scalar",
                obs=self.obs,
            )
            if cfg.architecture == "shared":
                sched = SharedWorkersScheduler(
                    context_switch_s=cfg.context_switch_s, **sched_kwargs
                )
            else:
                sched = DedicatedWorkersScheduler(**sched_kwargs)
            self.schedulers[d] = sched
            self.edge_gateways[d] = EdgeGateway(
                sched, self.engine, protocol=cfg.edge_protocol,
                rng=self.rngs.stream(f"edge-net-{d}"), obs=self.obs,
            )
            self.dcc_gateways[d] = DCCGateway(sched, self.engine, wan_link,
                                              obs=self.obs)

        for d, sched in self.schedulers.items():
            self.offloader.register_peer(
                f"district-{d}", sched, Link(f"metro-{d}", 0.004, 1e9)
            )

        # fleet membership is fixed after construction (churn fails/repairs
        # servers in place); cache the flat list so the hot aggregate helpers
        # stop rebuilding it on every call
        self._all_servers: List = [
            w for c in self.clusters.values() for w in c.workers
        ]
        #: server name → district of the cluster that owns it
        self.server_district: Dict[str, int] = {
            w.name: d for d, c in self.clusters.items() for w in c.workers
        }
        #: edge source → district, memoised by _district_of
        self._source_district: Dict[str, int] = {}

        #: city-fused thermal stepping (vector kernel only; None when the
        #: city's buildings cannot be fused — the tick then falls back to
        #: per-building stepping, still byte-identical)
        self._fused_thermal: Optional[FusedCityThermal] = None
        if bank is not None:
            bank.freeze()
            self.smartgrid.attach_bank(bank)
            fused = FusedCityThermal(list(self.buildings.values()))
            if fused.compatible and fused.n == len(bank):
                self._fused_thermal = fused
            # the three tick stages share one fused heap event per period —
            # the same single "df3-tick" dispatch the scalar kernel schedules,
            # so event counts, sequence numbers and labels stay identical
            self.engine.add_process(
                "df3-regulation", cfg.thermal_tick_s, self._tick_regulation,
                group="df3-tick")
            self.engine.add_process(
                "df3-workload", cfg.thermal_tick_s, self._tick_workload,
                group="df3-tick")
            self.engine.add_process(
                "df3-thermal", cfg.thermal_tick_s, self._tick_thermal,
                group="df3-tick")
        else:
            self.engine.add_process("df3-tick", cfg.thermal_tick_s, self._tick)

        #: reduced-order tier (kernel == "surrogate" only); constructed after
        #: the fused substrate so it can validate fleet homogeneity
        self.surrogate: Optional[SurrogateController] = None
        if self.kernel == "surrogate":
            if self._fused_thermal is None:
                raise ValueError(
                    "surrogate kernel requires a fusable city "
                    "(uncoupled rooms, one weather, uniform sub-stepping)"
                )
            self.surrogate = SurrogateController(self, cfg.surrogate)

        self.resilience: Optional[RecoveryRuntime] = None
        if cfg.resilience is not None:
            self.resilience = RecoveryRuntime(self, cfg.resilience)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _regulator_observer(self, room: str, district: int):
        """Per-room hook emitting ``regulator`` records + power gauges.

        Heat-wanted transitions are the regulator's *actions* (they flip the
        filler/power-off admission flag), so only those become trace records;
        the continuous power fraction lands in a gauge.
        """
        state = {"wanted": None}

        def observe(reg) -> None:
            obs = self.obs
            if not obs.active:
                return
            wanted = reg.heat_wanted
            if wanted is not state["wanted"]:
                state["wanted"] = wanted
                obs.emit(
                    "regulator",
                    "regulator.heat_on" if wanted else "regulator.heat_off",
                    self.engine.now, room=room,
                    power_fraction=round(reg.power_fraction, 6),
                    setpoint_c=reg.setpoint_c,
                )
                obs.counter("regulator_transitions", district=district).inc()
            obs.gauge("regulator_power_fraction", room=room).set(reg.power_fraction)

        return observe

    def _tick_metrics(self, now: float) -> None:
        """Fleet-level gauges + sample records, once per thermal tick.

        The ``sample`` records give the SLO engine and run reports a time
        series of the paper's two service-level quantities (comfort in-band
        fraction, fleet availability) that no request record carries.
        """
        obs = self.obs
        for d, cluster in self.clusters.items():
            obs.gauge("cluster_free_cores", district=d).set(cluster.free_cores())
        for bname, building in self.buildings.items():
            temps = building.temperatures
            obs.gauge("building_mean_temp_c", building=bname).set(
                float(sum(temps)) / len(temps))
        obs.gauge("filler_completed").set(self.filler_completed)
        if not (obs.tracer.enabled and obs.tracer.wants("sample")):
            return
        band = self.comfort.band_c
        in_band = total_rooms = 0
        for bname, building in self.buildings.items():
            temps = building.temperatures
            for room in building.rooms:
                sp = self.regulators[room.name].setpoint_c
                if abs(float(temps[room.index]) - sp) <= band:
                    in_band += 1
                total_rooms += 1
        if total_rooms:
            obs.emit("sample", "comfort.sample", now,
                     in_band=in_band / total_rooms, rooms=total_rooms)
        up = free = cores = 0
        for w in self._all_servers:
            cores += w.n_cores
            if w.enabled and not w.failed:
                up += 1
                free += w.free_cores
        n = len(self._all_servers)
        if n:
            util = {}
            for d in sorted(self.clusters):
                cluster = self.clusters[d]
                total = cluster.total_cores()
                if total:
                    util[cluster.name] = 1.0 - cluster.free_cores() / total
            obs.emit("sample", "fleet.sample", now, up=up / n,
                     free_cores=free, total_cores=cores, util=util)

    # ------------------------------------------------------------------ #
    # placement priority: servers whose room wants heat go first
    # ------------------------------------------------------------------ #
    def _worker_priority(self, server) -> tuple:
        bank = self._bank
        if bank is not None:
            i = self._bank_index.get(server.name)
            if i is None:  # boiler: tank state changes continuously
                wanted = any(
                    b.name == server.name and b.heat_demand_w() > 0
                    for b in self.boilers
                )
            else:
                # placements query every candidate, but the flags only change
                # when the bank mutates: read them once per bank version
                if self._wanted_cache[0] != bank.version:
                    self._wanted_cache = (bank.version,
                                          bank.heat_wanted_mask().tolist())
                wanted = self._wanted_cache[1][i]
            # -free_cores, read off the maintained counters
            return (0 if wanted else 1,
                    server._busy_cores - server.spec.n_cores
                    if server._enabled else 0)
        room = self._server_room.get(server.name)
        if room is None:  # boiler: wants heat while the tank has headroom
            wanted = any(
                b.name == server.name and b.heat_demand_w() > 0 for b in self.boilers
            )
        else:
            wanted = self.regulators[room].heat_wanted
        return (0 if wanted else 1, -server.free_cores)

    # ------------------------------------------------------------------ #
    # the periodic tick: regulation, migration, filler, thermal stepping
    # ------------------------------------------------------------------ #
    def _tick(self, now: float, dt: float) -> None:
        """Scalar kernel: all six tick stages as one process callback."""
        # 1) regulators observe their rooms (collective controllers first:
        #    they rebalance per-room targets toward the requested mean)
        for bname, building in self.buildings.items():
            temps = building.temperatures
            ctrl = self.collectives.get(bname)
            if ctrl is not None and ctrl.active:
                ctrl.update(temps)
            for room in building.rooms:
                self.regulators[room.name].update(dt, float(temps[room.index]))
        # 2) fleet coordination actuates DVFS caps / power states
        self.smartgrid.tick(now, dt)
        # 3+4) migration and filler
        self._tick_workload(now, dt)
        # 5+6) thermal fabric + metric sampling
        self._tick_thermal(now, dt)

    def _tick_regulation(self, now: float, dt: float) -> None:
        """Vector kernel, stage 1+2: PI bank step + fleet coordination.

        Collective controllers run first, building by building, exactly as
        the scalar tick interleaves them; they only write setpoints (through
        the attached regulators into the bank arrays), so hoisting the PI
        updates out of the per-building loop into one bank pass observes the
        same setpoints — and fires the observers in the same attach order the
        scalar loop would.
        """
        sur = self.surrogate
        if sur is not None and sur.begin_tick(now):
            sur.tick_regulation(now, dt)
            self.smartgrid.tick(now, dt)
            return
        temps_parts = []
        for bname, building in self.buildings.items():
            temps = building.temperatures
            ctrl = self.collectives.get(bname)
            if ctrl is not None and ctrl.active:
                ctrl.update(temps)
            temps_parts.append(temps)
        self._bank.update_all(dt, np.concatenate(temps_parts))
        self.smartgrid.tick(now, dt)

    def _tick_workload(self, now: float, dt: float) -> None:
        """Stage 3+4: hybrid migration off cold servers, then filler."""
        if self.surrogate is not None and self.surrogate.switched:
            # drain + power off newly aggregated districts; quiesced servers
            # report 0 free cores, so migration/filler skip them naturally
            self.surrogate.quiesce_pending()
        vec = self._bank is not None
        if self.config.hybrid_migration:
            if vec:
                self._migrate_cold_servers_vec()
            else:
                self._migrate_cold_servers()
        if self.config.enable_filler:
            if vec:
                self._inject_filler_vec()
            else:
                self._inject_filler()

    def _tick_thermal(self, now: float, dt: float) -> None:
        """Stage 5+6: thermal fabric advances, then metric sampling."""
        sur = self.surrogate
        if sur is not None and sur.switched:
            sur.tick_thermal(now, dt)
            hod = self.cal.hour_of_day(now)
            for boiler in self.boilers:
                boiler.thermal_step(now, dt, hod)
            if self.datacenter is not None:
                self.datacenter.account_heat(dt)
            if self.obs.active:
                self._tick_metrics(now)
            return
        if self._fused_thermal is not None:
            self._tick_thermal_vec(now, dt)
            return
        hod = self.cal.hour_of_day(now)
        for bname, building in self.buildings.items():
            building.step(now, dt)
            setpoints = [self.regulators[r.name].setpoint_c for r in building.rooms]
            self.comfort.add(dt, building.temperatures, setpoints,
                             month=self.cal.month(now))
            for room in building.rooms:
                p = room.heater_power_w()
                if p > 0 and self.regulators[room.name].heat_wanted:
                    self.ledger.add_useful_heat(p * dt)
        for boiler in self.boilers:
            boiler.thermal_step(now, dt, hod)
        if self.datacenter is not None:
            self.datacenter.account_heat(dt)
        if self.obs.active:
            self._tick_metrics(now)

    def _tick_thermal_vec(self, now: float, dt: float) -> None:
        """Vector kernel stage 5+6: one fused RC step for the whole city.

        Per-building comfort samples and the room-order useful-heat ledger
        fold are preserved exactly (same accumulators, same terms, same fold
        order), so the resulting statistics are bitwise those of the scalar
        loop.
        """
        fused = self._fused_thermal
        p_heat = fused.step(now, dt)
        if self.surrogate is not None:
            self.surrogate.record_warmup(p_heat)
        month = self.cal.month(now)
        setpoints = self._bank.setpoints
        if fused.uniform:
            nb = len(fused.buildings)
            self.comfort.add_rows(dt, fused.t_air.reshape(nb, -1),
                                  setpoints.reshape(nb, -1), month=month)
        else:
            for sl in fused.slices:
                self.comfort.add(dt, fused.t_air[sl], setpoints[sl], month=month)
        p = np.array(p_heat)
        self.ledger.add_useful_heat_many(
            (p * dt)[(p > 0) & self._bank.heat_wanted_mask()])
        hod = self.cal.hour_of_day(now)
        for boiler in self.boilers:
            boiler.thermal_step(now, dt, hod)
        if self.datacenter is not None:
            self.datacenter.account_heat(dt)
        if self.obs.active:
            self._tick_metrics(now)

    def _migrate_cold_servers(self) -> None:
        """Move preemptible cloud work off servers whose room rejects heat.

        The Qarnot hybrid infrastructure (§III-A): boards turn off when no
        heat is requested, and pending Internet work continues in the
        datacenter.
        """
        for d, sched in self.schedulers.items():
            for w in self.clusters[d].workers:
                room = self._server_room.get(w.name)
                if room is None or self.regulators[room].heat_wanted:
                    continue
                for task in list(w.running_tasks):
                    kind = task.metadata.get("kind")
                    if kind == "filler":
                        w.preempt(task.task_id)
                    elif kind == "cloud" and task.metadata["request"].preemptible:
                        t = w.preempt(task.task_id)
                        creq = t.metadata["request"]
                        creq.cycles = max(t.remaining_cycles, 1.0)
                        if self.offloader.can_vertical(creq):
                            self.offloader.vertical(creq, sched)
                            sched.stats.cloud_offloaded_vertical += 1
                        else:
                            sched.cloud_queue.push_front(creq)

    def _migrate_cold_servers_vec(self) -> None:
        """Vector kernel: visit only the cold, non-idle Q.rads.

        The scalar loop walks every worker of every district and skips the
        heat-wanted ones; here the cold set comes straight off the bank's
        mask.  Bank order is district-major and matches the scalar visit
        order, so preemptions and vertical offloads happen in the same
        sequence.
        """
        entries = self._bank_entries
        for i in np.flatnonzero(~self._bank.heat_wanted_mask()).tolist():
            server, d = entries[i]
            if server.idle:
                continue
            sched = self.schedulers[d]
            for task in list(server.running_tasks):
                kind = task.metadata.get("kind")
                if kind == "filler":
                    server.preempt(task.task_id)    # a block goes whole
                elif kind == "cloud" and task.metadata["request"].preemptible:
                    t = server.preempt(task.task_id)
                    creq = t.metadata["request"]
                    creq.cycles = max(t.remaining_cycles, 1.0)
                    if self.offloader.can_vertical(creq):
                        self.offloader.vertical(creq, sched)
                        sched.stats.cloud_offloaded_vertical += 1
                    else:
                        sched.cloud_queue.push_front(creq)

    def _inject_filler(self) -> None:
        for server in self.smartgrid.heat_wanted_servers():
            while server.free_cores > 0:
                chunk = Task(
                    task_id=f"filler-{next(self._filler_ids)}",
                    work_cycles=(
                        server.core_rate_cycles_per_s() or server.spec.ladder.top.freq_ghz * _GHZ
                    )
                    * self.config.filler_chunk_s,
                    cores=1,
                    on_complete=self._filler_chunk_done,
                    metadata={"kind": "filler"},
                )
                if not server.submit(chunk):
                    break
                if self.obs.active:
                    self.obs.counter("filler_injected").inc()

    def _inject_filler_vec(self) -> None:
        """Vector kernel: one filler block per heat-wanted server.

        The scalar loop submits chunk by chunk, each paying a sync and a
        completion cancel/reschedule; a powered-on server with ``f`` free
        cores accepts exactly ``f`` one-core chunks.  Here those ``f`` chunks
        are one block, a :class:`Task` with ``chunks=f``: it consumes the
        ``f`` filler ids the chunks would have taken, and
        :meth:`ComputeServer.submit_batch` reserves the sequence numbers the
        per-chunk path would have burned, so the surviving completion event
        is bit-identical.  Every later sync, completion reschedule and
        eviction then walks one entry instead of ``f`` (DESIGN.md §2.13).
        """
        chunk_s = self.config.filler_chunk_s
        obs_active = self.obs.active
        mk = Task.prevalidated
        done = self._filler_chunk_done
        for server in self.smartgrid.heat_wanted_servers():
            free = server.free_cores
            if free <= 0:
                continue
            work = (
                server.core_rate_cycles_per_s() or server.spec.ladder.top.freq_ghz * _GHZ
            ) * chunk_s
            first = next(self._filler_ids)
            self._filler_ids = itertools.count(first + free)
            accepted = server.submit_batch(
                [mk(f"filler-{first}", work, 1, done, {"kind": "filler"}, free)])
            if obs_active and accepted:
                self.obs.counter("filler_injected").inc(accepted)

    def _filler_chunk_done(self, task: Task, now: float) -> None:
        self.filler_completed += task.chunks

    # ------------------------------------------------------------------ #
    # the three flows
    # ------------------------------------------------------------------ #
    def _district_of(self, source: str) -> int:
        d = self._source_district.get(source)
        if d is None:
            try:
                d = int(source.split("/")[0].split("-")[1])
            except (IndexError, ValueError):
                raise ValueError(
                    f"cannot infer district from source {source!r}") from None
            self._source_district[source] = d
        return d

    def submit_heating(self, req: HeatingRequest) -> None:
        """First flow: update comfort targets of the rooms in scope.

        A collective request covering *all* rooms of one building activates
        that building's mean-temperature controller (§II-C); individual
        requests set single regulators and release collective control there.
        """
        for room in req.rooms:
            if room not in self.regulators:
                raise KeyError(f"unknown room {room!r}")
        if self.obs.active:
            self.obs.emit("regulator", "regulator.set_target", self.engine.now,
                          id=req.request_id, rooms=list(req.rooms),
                          target_c=req.target_temp_c, collective=req.collective)
            self.obs.counter("requests_admitted", flow="heating").inc()
        if req.collective:
            building = req.rooms[0].rsplit("/", 1)[0]
            ctrl = self.collectives.get(building)
            if ctrl is not None and building in self.buildings:
                rooms_of_building = {r.name for r in self.buildings[building].rooms}
                if set(req.rooms) == rooms_of_building:
                    ctrl.set_mean_target(req.target_temp_c)
                    return
        for room in req.rooms:
            self.regulators[room].set_target(req.target_temp_c)
            building = room.rsplit("/", 1)[0]
            ctrl = self.collectives.get(building)
            if ctrl is not None:
                ctrl.clear()

    def submit_cloud(self, req: CloudRequest, district: Optional[int] = None) -> None:
        """Second flow: Internet request through a district's DCC gateway.

        Routed to the district whose cluster currently has the most
        heat-authorised free capacity (the smart-grid goal: compute lands
        where heat is requested); falls back to round-robin on ties.
        """
        if district is None:
            if self._bank is not None:
                district = self._route_cloud_vec()
            else:
                district = max(
                    self.clusters,
                    key=lambda d: sum(
                        w.free_cores
                        for w in self.clusters[d].workers
                        if self._wants_heat(w)
                    ),
                )
        if self.surrogate is not None:
            self.surrogate.ensure_live(district, reason="cloud")
        self.dcc_gateways[district].submit(req)

    def _route_cloud_vec(self) -> int:
        """Vector kernel: heat-authorised-capacity routing off the bank mask.

        Same argmax as the scalar ``max(...)`` — integer core sums, first
        district wins ties (``>`` keeps the earliest maximum, as ``max`` over
        the dict's insertion order does).
        """
        wanted = self._bank.heat_wanted_mask().tolist()
        entries = self._bank_entries
        best_d = -1
        best = -1
        for d in self.clusters:
            total = 0
            for i in self._district_qrad_idx[d]:
                if wanted[i]:
                    total += entries[i][0].free_cores
            for b in self._district_boilers[d]:
                if b.heat_demand_w() > 0:
                    total += b.free_cores
            if total > best:
                best_d, best = d, total
        return best_d

    def _wants_heat(self, server) -> bool:
        room = self._server_room.get(server.name)
        if room is None:
            return any(b.name == server.name and b.heat_demand_w() > 0 for b in self.boilers)
        return self.regulators[room].heat_wanted

    def submit_edge(self, req: EdgeRequest, direct_target: Optional[str] = None) -> None:
        """Third flow: local request through its district's edge gateway."""
        d = self._source_district.get(req.source)
        if d is None:
            d = self._district_of(req.source)
        if d not in self.edge_gateways:
            raise ValueError(f"no such district {d}")
        if self.surrogate is not None:
            self.surrogate.ensure_live(d, reason="edge")
        target = None
        if direct_target is not None:
            target = self.clusters[d].worker(direct_target)
        if (target is None and self.resilience is not None
                and self.resilience.maybe_clone(req, d)):
            return  # submitted as a clone pair (policy engine said yes)
        self.edge_gateways[d].submit(req, direct_target=target)

    # ------------------------------------------------------------------ #
    # experiment helpers
    # ------------------------------------------------------------------ #
    def inject(self, requests, direct_targets: Optional[Dict[str, str]] = None) -> None:
        """Schedule a batch of requests at their arrival times.

        The batch becomes one engine stream (:meth:`Engine.schedule_stream`):
        the same dispatches as one ``schedule_at`` per request, but a single
        heap entry.  Nothing is scheduled if any request is invalid.
        """
        targets = direct_targets or {}
        items = []
        for req in requests:
            if isinstance(req, HeatingRequest):
                items.append((req.time, "inject:heating", self.submit_heating, req))
            elif isinstance(req, EdgeRequest):
                tgt = targets.get(req.request_id)
                if tgt is None:
                    items.append((req.time, "inject:edge", self.submit_edge, req))
                else:
                    items.append((req.time, "inject:edge",
                                  self._submit_edge_direct, (req, tgt)))
            elif isinstance(req, CloudRequest):
                items.append((req.time, "inject:cloud", self.submit_cloud, req))
            else:
                raise TypeError(f"cannot inject {type(req).__name__}")
        self.engine.schedule_stream(items)

    def _submit_edge_direct(self, req_target: Tuple[EdgeRequest, str]) -> None:
        req, target = req_target
        self.submit_edge(req, direct_target=target)

    def run_until(self, t: float) -> None:
        """Advance the whole city to simulated time ``t``."""
        self.engine.run_until(t)

    # ------------------------------------------------------------------ #
    # aggregated results
    # ------------------------------------------------------------------ #
    @property
    def all_servers(self) -> List:
        """Every DF server in the city (Q.rads + boilers).

        The list is cached at construction — cluster membership never changes
        afterwards (churn fails and repairs servers in place) — and a copy is
        returned so callers may mutate their snapshot freely.
        """
        return list(self._all_servers)

    def completed_edge(self) -> List[EdgeRequest]:
        """Edge requests completed anywhere in the city."""
        return [r for s in self.schedulers.values() for r in s.completed_edge]

    def completed_cloud(self) -> List[CloudRequest]:
        """Cloud requests completed anywhere (including vertical offloads)."""
        return [r for s in self.schedulers.values() for r in s.completed_cloud]

    def expired_edge(self) -> List[EdgeRequest]:
        """Edge requests dropped past their deadline."""
        return [r for s in self.schedulers.values() for r in s.expired_edge]

    def edge_deadline_miss_rate(self) -> float:
        """City-wide edge deadline miss rate (expired count as misses)."""
        done = self.completed_edge()
        expired = self.expired_edge()
        n = len(done) + len(expired)
        if n == 0:
            return 0.0
        misses = sum(1 for r in done if not r.deadline_met()) + len(expired)
        return misses / n

    def fleet_energy_j(self) -> float:
        """Electrical energy of all DF servers so far (J).

        Under the surrogate kernel, quiesced districts draw no metered power;
        their calibrated modelled energy is added so the fleet total stays a
        like-for-like aggregate (within the declared budget).
        """
        servers = self._all_servers
        for s in servers:
            s.sync()
        total = sum(s.energy_j for s in servers)
        if self.surrogate is not None:
            total += self.surrogate.modeled_energy_j
        return total

    def total_cycles_executed(self) -> float:
        """Cycles executed by the DF fleet so far."""
        servers = self._all_servers
        for s in servers:
            s.sync()
        return sum(s.cycles_executed for s in servers)

    def audit_isolation(self):
        """Audit executed placements against the natural segmentation policy.

        Architecture class 2 implies the §III-B isolated policy (edge VPN +
        DCC net per the dedication split); class 1 implies the flat policy.
        Returns the list of :class:`~repro.network.segmentation.Violation`.
        """
        from repro.network.segmentation import IsolationAuditor, SegmentationPolicy

        shared = self.config.architecture == "shared"
        policy = SegmentationPolicy.flat() if shared else SegmentationPolicy.isolated()
        segment_of = {}
        for cluster in self.clusters.values():
            segment_of.update(
                IsolationAuditor.segments_for_cluster(cluster, shared=shared)
            )
        auditor = IsolationAuditor(policy, segment_of)
        return auditor.audit(self.completed_edge() + self.completed_cloud())
