"""Synthetic weather for a Paris-like climate.

The paper's deployments (Qarnot sites, Fig. 4) are in and around Paris, so the
default parameters approximate Paris-Montsouris normals: annual mean ≈ 12 °C,
January mean ≈ 5 °C, July mean ≈ 20 °C, diurnal swing ≈ 4 °C, with AR(1)
synoptic noise (multi-day weather systems).

Outdoor temperature is the sum of

* an annual harmonic (coldest near mid-January),
* a diurnal harmonic (warmest mid-afternoon),
* an AR(1) noise series sampled hourly and linearly interpolated,

plus a simple clear-sky solar irradiance model used for passive gains.

The generator pre-computes the noise series over a fixed horizon at
construction so that lookups are pure reads — vectorised ``numpy.interp`` over
arrays of times — and so that the series is independent of query order
(reproducibility).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.calendar import DAY, HOUR, YEAR, SimCalendar

__all__ = ["Weather", "WeatherConfig"]


@dataclass(frozen=True)
class WeatherConfig:
    """Climate parameters; defaults approximate Paris.

    Attributes
    ----------
    annual_mean_c:
        Mean outdoor temperature over the year (°C).
    annual_amplitude_c:
        Half peak-to-peak of the seasonal harmonic (°C).
    coldest_day:
        0-based day-of-year of the seasonal minimum (mid-January ≈ 15).
    diurnal_amplitude_c:
        Half peak-to-peak of the day/night swing (°C).
    warmest_hour:
        Local hour of the diurnal maximum (mid-afternoon ≈ 15).
    noise_std_c:
        Stationary standard deviation of the AR(1) synoptic noise (°C).
    noise_corr_hours:
        e-folding correlation time of the noise, in hours (≈ 36 h: weather
        systems last a few days).
    solar_peak_wm2:
        Clear-sky noon irradiance at midsummer (W/m²).
    """

    annual_mean_c: float = 12.3
    annual_amplitude_c: float = 7.8
    coldest_day: int = 15
    diurnal_amplitude_c: float = 3.8
    warmest_hour: float = 15.0
    noise_std_c: float = 3.2
    noise_corr_hours: float = 36.0
    solar_peak_wm2: float = 850.0


class Weather:
    """Deterministic-plus-noise weather signal over a bounded horizon.

    Parameters
    ----------
    rng:
        A ``numpy.random.Generator`` (use ``RngRegistry.stream("weather")``).
    config:
        Climate parameters.
    horizon:
        Latest simulated time (s) that will ever be queried.  Queries beyond
        it raise ``ValueError`` — extend the horizon rather than silently
        extrapolating.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        config: WeatherConfig = WeatherConfig(),
        horizon: float = 2 * YEAR,
        noise_dt: float = HOUR,
    ):
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        self.config = config
        self.horizon = float(horizon)
        self._noise_dt = float(noise_dt)
        self._cal = SimCalendar()

        n = int(np.ceil(self.horizon / self._noise_dt)) + 2
        phi = float(np.exp(-self._noise_dt / (config.noise_corr_hours * HOUR)))
        innovation_std = config.noise_std_c * np.sqrt(1.0 - phi * phi)
        eps = rng.normal(0.0, innovation_std, size=n)
        noise = np.empty(n)
        noise[0] = rng.normal(0.0, config.noise_std_c)
        for i in range(1, n):  # AR(1) recursion; run once at construction
            noise[i] = phi * noise[i - 1] + eps[i]
        self._noise = noise
        self._noise_times = np.arange(n) * self._noise_dt
        # live-scenario forcing (cold snap / heat wave); 0.0 = untouched signal
        self._override_delta_c = 0.0

    # ------------------------------------------------------------------ #
    def _check(self, t: np.ndarray) -> None:
        if t.ndim == 0 and 0.0 <= float(t) <= self.horizon:
            return  # a scalar query in range: two float comparisons
        if np.any(t < 0) or np.any(t > self.horizon):
            raise ValueError(
                f"weather query outside [0, {self.horizon}]: "
                f"range [{np.min(t)}, {np.max(t)}]"
            )

    def seasonal_component(self, t):
        """Deterministic annual + diurnal harmonics at time(s) ``t`` (°C)."""
        t = np.asarray(t, dtype=float)
        cfg = self.config
        doy = (t / DAY) % 365.0
        hod = (t / HOUR) % 24.0
        # annual term: cos peaks at coldest_day, sign flip makes it the minimum
        annual = -cfg.annual_amplitude_c * np.cos(2 * np.pi * (doy - cfg.coldest_day) / 365.0)
        diurnal = cfg.diurnal_amplitude_c * np.cos(2 * np.pi * (hod - cfg.warmest_hour) / 24.0)
        return cfg.annual_mean_c + annual + diurnal

    def set_override(self, delta_c: float) -> None:
        """Additive forcing on :meth:`outdoor_temperature` (live scenarios).

        A positive delta is a heat wave, a negative one a cold snap.  When the
        override is 0.0 (the default) the addition is skipped entirely, so
        batch runs that never touch it stay byte-identical.
        """
        self._override_delta_c = float(delta_c)

    @property
    def override_delta_c(self) -> float:
        """Current additive forcing (°C); 0.0 when unset."""
        return self._override_delta_c

    def outdoor_temperature(self, t):
        """Outdoor temperature (°C) at time(s) ``t`` (scalar or array)."""
        arr = np.asarray(t, dtype=float)
        self._check(arr)
        noise = np.interp(arr, self._noise_times, self._noise)
        out = self.seasonal_component(arr) + noise
        if self._override_delta_c != 0.0:
            out = out + self._override_delta_c
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    def solar_irradiance(self, t):
        """Clear-sky-ish horizontal irradiance (W/m²) at time(s) ``t``.

        A half-sine over daylight hours, scaled by season (day length and sun
        height folded into one seasonal factor).  Zero at night.
        """
        arr = np.asarray(t, dtype=float)
        self._check(arr)
        cfg = self.config
        doy = (arr / DAY) % 365.0
        hod = (arr / HOUR) % 24.0
        # season factor in [0.25, 1]: midsummer (day ~172) = 1
        season = 0.625 + 0.375 * np.cos(2 * np.pi * (doy - 172.0) / 365.0)
        half_day = 6.0 + 2.5 * np.cos(2 * np.pi * (doy - 172.0) / 365.0)  # hours
        x = (hod - 12.0) / half_day  # -1..1 over daylight
        sun = np.where(np.abs(x) < 1.0, np.cos(0.5 * np.pi * x), 0.0)
        out = cfg.solar_peak_wm2 * season * sun
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out

    # ------------------------------------------------------------------ #
    def monthly_mean_temperature(self, month: int, year_offset: int = 0) -> float:
        """Mean outdoor temperature of a month (1-based), sampled hourly."""
        start = self._cal.month_start(month) + year_offset * YEAR
        end = start + self._cal.month_length(month)
        ts = np.arange(start, end, HOUR)
        return float(np.mean(self.outdoor_temperature(ts)))

    def heating_degree_hours(self, t0: float, t1: float, base_c: float = 18.0) -> float:
        """Degree-hours below ``base_c`` over [t0, t1] — heating demand proxy."""
        ts = np.arange(t0, t1, HOUR)
        temps = self.outdoor_temperature(ts)
        return float(np.sum(np.maximum(base_c - temps, 0.0)))
