"""Tests for the synthetic Paris-like weather generator."""

import numpy as np
import pytest

from repro.sim.calendar import DAY, HOUR, YEAR
from repro.sim.rng import RngRegistry
from repro.thermal.weather import Weather, WeatherConfig


def make_weather(seed=0, **kw):
    return Weather(RngRegistry(seed).stream("weather"), **kw)


def test_reproducible_from_seed():
    w1, w2 = make_weather(3), make_weather(3)
    ts = np.linspace(0, YEAR, 500)
    np.testing.assert_array_equal(w1.outdoor_temperature(ts), w2.outdoor_temperature(ts))


def test_seed_changes_noise():
    ts = np.linspace(0, YEAR, 500)
    assert not np.array_equal(
        make_weather(1).outdoor_temperature(ts), make_weather(2).outdoor_temperature(ts)
    )


def test_winter_colder_than_summer():
    w = make_weather()
    jan = w.monthly_mean_temperature(1)
    jul = w.monthly_mean_temperature(7)
    assert jul - jan > 8.0  # Paris: ~15 °C seasonal spread


def test_monthly_means_roughly_paris():
    w = make_weather()
    jan = w.monthly_mean_temperature(1)
    jul = w.monthly_mean_temperature(7)
    assert 0.0 < jan < 9.0
    assert 16.0 < jul < 25.0


def test_diurnal_cycle_afternoon_warmer_than_night():
    w = make_weather()
    day = 200  # summer day
    afternoon = w.seasonal_component(day * DAY + 15 * HOUR)
    night = w.seasonal_component(day * DAY + 4 * HOUR)
    assert afternoon > night


def test_scalar_and_array_queries_agree():
    w = make_weather()
    ts = np.array([0.0, DAY, 10 * DAY])
    arr = w.outdoor_temperature(ts)
    for i, t in enumerate(ts):
        assert w.outdoor_temperature(float(t)) == pytest.approx(arr[i])


def test_query_beyond_horizon_raises():
    w = make_weather(horizon=10 * DAY)
    with pytest.raises(ValueError):
        w.outdoor_temperature(11 * DAY)
    with pytest.raises(ValueError):
        w.outdoor_temperature(-1.0)


def test_scalar_range_check_raises_the_array_error():
    w = make_weather(horizon=10 * DAY)
    for t in (-1.0, 11 * DAY, np.float64(-0.5)):
        expected = f"weather query outside [0, {w.horizon}]: range [{t}, {t}]"
        for query in (w.outdoor_temperature, w.solar_irradiance):
            with pytest.raises(ValueError) as err:
                query(t)
            assert str(err.value) == expected
            with pytest.raises(ValueError) as err:
                query(np.array(t))
            assert str(err.value) == expected
    for t in (0.0, -0.0, 10 * DAY):       # the closed interval's ends
        assert np.isfinite(w.outdoor_temperature(t))


def test_invalid_horizon_rejected():
    with pytest.raises(ValueError):
        make_weather(horizon=0.0)


def test_solar_zero_at_night_positive_at_noon():
    w = make_weather()
    noon_summer = 180 * DAY + 12 * HOUR
    midnight = 180 * DAY
    assert w.solar_irradiance(noon_summer) > 300.0
    assert w.solar_irradiance(midnight) == 0.0


def test_solar_summer_exceeds_winter():
    w = make_weather()
    assert w.solar_irradiance(172 * DAY + 12 * HOUR) > w.solar_irradiance(15 * DAY + 12 * HOUR)


def test_noise_std_near_configured():
    w = make_weather(seed=5, horizon=4 * YEAR)
    ts = np.arange(0, 4 * YEAR, 6 * HOUR)
    resid = w.outdoor_temperature(ts) - w.seasonal_component(ts)
    assert 1.5 < float(np.std(resid)) < 5.0  # configured 3.2 °C


def test_noise_is_autocorrelated():
    """Synoptic noise should persist across hours (AR(1), ~36 h e-fold)."""
    w = make_weather(seed=7)
    ts = np.arange(0, YEAR, HOUR)
    resid = w.outdoor_temperature(ts) - w.seasonal_component(ts)
    r = np.corrcoef(resid[:-6], resid[6:])[0, 1]  # 6-hour lag
    assert r > 0.6


def test_heating_degree_hours_winter_dominates():
    w = make_weather()
    jan = w.heating_degree_hours(0.0, 31 * DAY)
    jul = w.heating_degree_hours(181 * DAY, 212 * DAY)
    assert jan > 5 * max(jul, 1.0)


def test_custom_config_shifts_mean():
    cfg = WeatherConfig(annual_mean_c=25.0)
    w = Weather(RngRegistry(0).stream("weather"), config=cfg)
    ts = np.arange(0, YEAR, 6 * HOUR)
    assert float(np.mean(w.outdoor_temperature(ts))) == pytest.approx(25.0, abs=1.5)
