"""Tests for the urban-heat-island ledger."""

import numpy as np
import pytest

from repro.thermal.heat_island import HeatIslandLedger, OutdoorHeatSource


def test_accumulates_by_source():
    led = HeatIslandLedger()
    led.add_outdoor(OutdoorHeatSource.DC_COOLING, 100.0)
    led.add_outdoor(OutdoorHeatSource.DC_COOLING, 50.0)
    led.add_outdoor(OutdoorHeatSource.BOILER_OVERFLOW, 25.0)
    assert led.outdoor_j(OutdoorHeatSource.DC_COOLING) == 150.0
    assert led.total_outdoor_j == 175.0


def test_waste_heat_index():
    led = HeatIslandLedger()
    led.add_outdoor(OutdoorHeatSource.DC_COOLING, 300.0)
    led.add_useful_compute(100.0)
    assert led.waste_heat_index() == pytest.approx(3.0)


def test_waste_heat_index_degenerate_cases():
    led = HeatIslandLedger()
    assert led.waste_heat_index() == 0.0
    led.add_outdoor(OutdoorHeatSource.OTHER, 1.0)
    assert led.waste_heat_index() == float("inf")


def test_negative_energy_rejected():
    led = HeatIslandLedger()
    with pytest.raises(ValueError):
        led.add_outdoor(OutdoorHeatSource.AIRCON, -1.0)
    with pytest.raises(ValueError):
        led.add_useful_heat(-1.0)
    with pytest.raises(ValueError):
        led.add_useful_compute(-1.0)


def test_breakdown_kwh_skips_zero_sources():
    led = HeatIslandLedger()
    led.add_outdoor(OutdoorHeatSource.ERADIATOR_SUMMER, 3.6e6)  # 1 kWh
    bd = led.breakdown_kwh()
    assert bd == {"eradiator_summer": pytest.approx(1.0)}


def test_useful_heat_tracked_separately():
    led = HeatIslandLedger()
    led.add_useful_heat(500.0)
    assert led.useful_heat_j == 500.0
    assert led.total_outdoor_j == 0.0


def test_add_useful_heat_many_equals_one_by_one_adds():
    rng = np.random.default_rng(3)
    one, many = HeatIslandLedger(), HeatIslandLedger()
    for n in (1, 7, 600, 2048):
        energies = rng.uniform(0, 1, size=n) * 10 ** rng.uniform(-4, 8, size=n)
        for e in energies.tolist():
            one.add_useful_heat(e)
        many.add_useful_heat_many(energies)
        # a pairwise sum would drift from the fold in the low bits
        assert many.useful_heat_j.hex() == one.useful_heat_j.hex()


def test_add_useful_heat_many_empty_and_negative():
    led = HeatIslandLedger()
    led.add_useful_heat(12.5)
    led.add_useful_heat_many([])
    led.add_useful_heat_many(np.empty(0))
    assert led.useful_heat_j == 12.5
    with pytest.raises(ValueError):
        led.add_useful_heat_many([1.0, 2.0, -0.5, 4.0])
    assert led.useful_heat_j == 12.5     # nothing of the batch was added
