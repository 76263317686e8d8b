"""Tests for Q.rad / e-radiator / boiler / datacenter hardware models."""

import pytest

from repro.experiments.common import small_city
from repro.hardware.boiler import ASPERITAS_AIC24, STIMERGY_SMALL, DigitalBoiler
from repro.hardware.datacenter import Datacenter, DatacenterNode
from repro.hardware.qrad import (
    CRYPTO_SPEC,
    ERADIATOR_SPEC,
    QRAD_SPEC,
    CryptoHeater,
    ERadiator,
    HeatDumpMode,
    QRad,
)
from repro.hardware.server import Task
from repro.sim.engine import Engine
from repro.thermal.heat_island import HeatIslandLedger, OutdoorHeatSource
from repro.thermal.hydronics import DrawProfile, WaterLoop, WaterLoopConfig

GHZ = 1e9


@pytest.fixture()
def engine():
    return Engine()


# --------------------------------------------------------------------------- #
# Q.rad family
# --------------------------------------------------------------------------- #
def test_qrad_published_envelope(engine):
    q = QRad("q1", engine)
    assert q.spec.p_max_w == 500.0  # the paper's 500 W
    assert q.n_cores == 16
    q.submit(Task("full", 1e15, cores=16))
    assert q.power_w() == pytest.approx(500.0)
    assert q.heat_output_w() == pytest.approx(500.0)  # free cooling: all to room


def test_eradiator_envelope_and_dump_mode(engine):
    e = ERadiator("e1", engine)
    assert e.spec.p_max_w == 1000.0  # the paper's 1000 W
    e.submit(Task("full", 1e15, cores=e.n_cores))
    p = e.power_w()
    assert e.heat_output_w() == pytest.approx(p)
    assert e.outdoor_heat_w() == 0.0
    e.set_dump_mode(HeatDumpMode.OUTDOOR)
    assert e.heat_output_w() == 0.0
    assert e.outdoor_heat_w() == pytest.approx(p)


def test_crypto_heater_envelope(engine):
    c = CryptoHeater("c1", engine)
    assert c.spec.p_max_w == 650.0  # the paper's 650 W
    assert c.n_cores == 2  # 2 GPUs


def test_specs_are_distinct():
    assert QRAD_SPEC.model != ERADIATOR_SPEC.model != CRYPTO_SPEC.model


# --------------------------------------------------------------------------- #
# digital boiler
# --------------------------------------------------------------------------- #
def test_boiler_published_envelopes():
    assert ASPERITAS_AIC24.server.n_cores == 200
    assert ASPERITAS_AIC24.server.p_max_w == 20000.0
    assert STIMERGY_SMALL.server.n_cores == 40
    assert STIMERGY_SMALL.server.p_max_w == 4000.0


def test_boiler_heats_tank(engine):
    loop = WaterLoop(WaterLoopConfig(), t_init_c=40.0)
    b = DigitalBoiler("b1", engine, loop, spec=STIMERGY_SMALL,
                      draw_profile=DrawProfile(daily_litres=0.0))
    b.submit(Task("j", 1e16, cores=40))
    engine.run_until(3600.0)
    useful, dumped = b.thermal_step(engine.now, 3600.0, hour_of_day=3.0)
    assert useful > 0
    assert dumped == 0.0
    assert loop.t_tank > 40.0


def test_boiler_overflow_books_heat_island(engine):
    loop = WaterLoop(WaterLoopConfig(t_max_c=75.0), t_init_c=74.99)
    ledger = HeatIslandLedger()
    b = DigitalBoiler("b1", engine, loop, spec=ASPERITAS_AIC24,
                      draw_profile=DrawProfile(daily_litres=0.0), ledger=ledger)
    b.submit(Task("j", 1e18, cores=200))
    engine.run_until(3600.0)
    b.thermal_step(engine.now, 3600.0, hour_of_day=3.0)
    assert ledger.outdoor_j(OutdoorHeatSource.BOILER_OVERFLOW) > 0
    assert b.dumped_heat_j > 0


def test_boiler_heat_demand_signal(engine):
    loop = WaterLoop(WaterLoopConfig(), t_init_c=40.0)
    b = DigitalBoiler("b1", engine, loop, spec=STIMERGY_SMALL)
    assert b.heat_demand_w() > 0  # cold tank wants heat


# --------------------------------------------------------------------------- #
# datacenter
# --------------------------------------------------------------------------- #
def test_dc_node_pue(engine):
    n = DatacenterNode("n0", engine, cooling_overhead=0.35, fixed_overhead_w=0.0)
    n.submit(Task("j", 1e15, cores=n.n_cores))
    assert n.pue() == pytest.approx(1.35)
    assert n.outdoor_heat_w() == pytest.approx(n.power_w())
    assert n.heat_output_w() == 0.0  # no heat reaches any room


def test_dc_node_idle_draws_nothing_total(engine):
    n = DatacenterNode("n0", engine)
    assert n.it_power_w() > 0  # IT idle power exists
    # total power model returns 0 only when IT is 0 (powered off)
    n.power_off()
    assert n.power_w() == 0.0


def test_dc_invalid_params(engine):
    with pytest.raises(ValueError):
        DatacenterNode("n", engine, cooling_overhead=-0.1)
    with pytest.raises(ValueError):
        Datacenter("dc", 0, engine)


def test_datacenter_places_and_queues(engine):
    dc = Datacenter("dc", n_nodes=2, engine=engine)
    per_node = dc.nodes[0].n_cores
    done = []
    # fill both nodes
    dc.submit(Task("a", 10 * GHZ * per_node, cores=per_node,
                   on_complete=lambda t, now: done.append((t.task_id, now))))
    dc.submit(Task("b", 10 * GHZ * per_node, cores=per_node,
                   on_complete=lambda t, now: done.append((t.task_id, now))))
    dc.submit(Task("c", GHZ, cores=1,
                   on_complete=lambda t, now: done.append((t.task_id, now))))
    assert dc.queue_depth == 1
    assert dc.free_cores == 0
    engine.run_until(1000.0)
    assert dc.queue_depth == 0
    assert {x[0] for x in done} == {"a", "b", "c"}
    # queued task finished only after a node freed up
    t_c = [x[1] for x in done if x[0] == "c"][0]
    t_a = [x[1] for x in done if x[0] == "a"][0]
    assert t_c > t_a


def test_datacenter_energy_pue(engine):
    dc = Datacenter("dc", n_nodes=1, engine=engine, cooling_overhead=0.35,
                    fixed_overhead_w=0.0)
    dc.submit(Task("j", 1e12, cores=dc.nodes[0].n_cores))
    engine.run_until(10.0)
    pue = dc.energy_pue()
    assert 1.3 < pue < 1.4


def test_datacenter_heat_accounting(engine):
    ledger = HeatIslandLedger()
    dc = Datacenter("dc", n_nodes=1, engine=engine, ledger=ledger)
    dc.submit(Task("j", 1e15, cores=4))
    dc.account_heat(3600.0)
    assert ledger.outdoor_j(OutdoorHeatSource.DC_COOLING) > 0


# --------------------------------------------------------------------------- #
# datacenter energy against its closed form
# --------------------------------------------------------------------------- #
def _node_draw_w(node, busy, cap, powered):
    """``(total, IT)`` draw from the node's spec, outside the server code."""
    if not powered:
        return 0.0, 0.0
    spec = node.spec
    it = (spec.p_idle_w + (spec.p_max_w - spec.p_idle_w) * (busy / spec.n_cores)
          * spec.ladder.power_scale(cap))
    return it * (1.0 + node.cooling_overhead) + node.fixed_overhead_w, it


@pytest.mark.parametrize("make_dc", [
    lambda: Datacenter("dc", n_nodes=1, engine=Engine()),
    lambda: small_city().datacenter,
], ids=["plain-engine", "middleware"])
def test_datacenter_energy_matches_its_closed_form(make_dc):
    """energy_j = Σ total draw·Δt and it_energy_j = Σ IT draw·Δt over the
    intervals a node holds one state, on any engine; energy_pue is their
    fleet ratio.  The rest of the fleet idles at the top P-state."""
    dc = make_dc()
    engine = dc.engine
    node = dc.nodes[0]
    top = len(node.spec.ladder) - 1
    start = engine.now
    held = []                                # (Δt, busy cores, cap, powered)

    def hold(seconds, busy, cap, powered):
        t0 = engine.now
        engine.run_until(t0 + seconds)
        node.sync()
        held.append((engine.now - t0, busy, cap, powered))

    node.submit(Task("j", 1e18, cores=4))
    hold(10.0, 4, top, True)
    node.set_freq_cap(0)                     # DVFS cap change mid-task
    hold(10.0, 4, 0, True)
    node.kill_all()
    node.power_off()
    hold(10.0, 0, 0, False)
    node.power_on()
    hold(5.0, 0, 0, True)

    energy = it_energy = 0.0
    for dt, busy, cap, powered in held:
        total_w, it_w = _node_draw_w(node, busy, cap, powered)
        energy += total_w * dt
        it_energy += it_w * dt
    assert node.energy_j == pytest.approx(energy, rel=1e-12)
    assert node.it_energy_j == pytest.approx(it_energy, rel=1e-12)
    idle_total_w, idle_it_w = _node_draw_w(node, 0, top, True)
    rest = (len(dc.nodes) - 1) * (engine.now - start)
    assert dc.energy_pue() == pytest.approx(
        (energy + rest * idle_total_w) / (it_energy + rest * idle_it_w), rel=1e-12)
