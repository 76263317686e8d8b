"""Non-homogeneous Poisson arrivals and diurnal rate profiles.

Both the DCC flow ("business opportunities") and the edge flow (human activity
in buildings) have time-varying arrival rates.  We sample them with the
standard thinning algorithm (Lewis & Shedler): draw candidate arrivals from a
homogeneous process at ``rate_max`` and accept each with probability
``rate(t)/rate_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.sim.calendar import HOUR, SimCalendar

__all__ = ["sample_nhpp", "DiurnalProfile"]


def sample_nhpp(
    rng: np.random.Generator,
    rate_fn: Callable[[float], float],
    rate_max: float,
    t0: float,
    t1: float,
) -> List[float]:
    """Sample arrival times of a non-homogeneous Poisson process.

    Parameters
    ----------
    rng: random stream.
    rate_fn: instantaneous rate λ(t) in events/second; must satisfy
        ``0 <= rate_fn(t) <= rate_max`` on [t0, t1].
    rate_max: majorising constant for thinning.
    t0, t1: window.

    Returns
    -------
    Sorted arrival times in [t0, t1).
    """
    if rate_max <= 0:
        raise ValueError(f"rate_max must be > 0, got {rate_max}")
    if t1 < t0:
        raise ValueError(f"need t1 >= t0, got [{t0}, {t1}]")
    out: List[float] = []
    t = t0
    while True:
        t += float(rng.exponential(1.0 / rate_max))
        if t >= t1:
            break
        lam = rate_fn(t)
        if lam < -1e-12 or lam > rate_max * (1 + 1e-9):
            raise ValueError(
                f"rate_fn({t}) = {lam} outside [0, rate_max={rate_max}]"
            )
        if rng.random() < lam / rate_max:
            out.append(t)
    return out


@dataclass(frozen=True)
class DiurnalProfile:
    """A λ(t) built from a base rate and multiplicative shape factors.

    ``hour_weights`` has 24 entries (local-hour multipliers, mean-normalised
    internally); ``weekend_factor`` scales Saturday/Sunday; an optional
    seasonal amplitude modulates over the year (peak mid-January — useful for
    building-activity signals that follow presence-at-home).

    :meth:`rate` reads ``t`` only through its day of year and hour of day,
    so each (day, hour) value is computed once and memoised per instance —
    at most 366 × 24 entries, because both indices wrap with the year.
    """

    base_rate_hz: float
    hour_weights: Sequence[float] = field(default=tuple([1.0] * 24))
    weekend_factor: float = 1.0
    seasonal_amplitude: float = 0.0
    _cal: SimCalendar = field(default_factory=SimCalendar, repr=False)

    def __post_init__(self) -> None:
        if self.base_rate_hz < 0:
            raise ValueError("base rate must be >= 0")
        if len(self.hour_weights) != 24:
            raise ValueError(f"hour_weights needs 24 entries, got {len(self.hour_weights)}")
        if any(w < 0 for w in self.hour_weights):
            raise ValueError("hour weights must be >= 0")
        if not 0 <= self.seasonal_amplitude < 1:
            raise ValueError("seasonal amplitude must be in [0, 1)")
        # not a dataclass field: the memo is call history, not profile data,
        # so equality, hashing and runner cache keys never see it
        object.__setattr__(self, "_memo", {})

    def rate(self, t: float) -> float:
        """Instantaneous rate (events/s) at simulated time ``t``."""
        key = (self._cal.day_of_year(t), int(self._cal.hour_of_day(t)) % 24)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self._rate(t)
        return r

    def _rate(self, t: float) -> float:
        mean_w = sum(self.hour_weights) / 24.0
        if mean_w == 0:
            return 0.0
        w = self.hour_weights[int(self._cal.hour_of_day(t)) % 24] / mean_w
        if self._cal.is_weekend(t):
            w *= self.weekend_factor
        if self.seasonal_amplitude > 0:
            doy = self._cal.day_of_year(t)
            w *= 1.0 + self.seasonal_amplitude * np.cos(2 * np.pi * (doy - 15) / 365.0)
        return self.base_rate_hz * w

    def rate_max(self) -> float:
        """A tight majorising constant for thinning."""
        mean_w = sum(self.hour_weights) / 24.0
        if mean_w == 0:
            return 1e-12
        peak = max(self.hour_weights) / mean_w
        peak *= max(1.0, self.weekend_factor)
        peak *= 1.0 + self.seasonal_amplitude
        return self.base_rate_hz * peak * (1 + 1e-9)

    def sample(self, rng: np.random.Generator, t0: float, t1: float) -> List[float]:
        """Arrival times over [t0, t1)."""
        return sample_nhpp(rng, self.rate, self.rate_max(), t0, t1)

    # -------------------------------------------------------------- #
    @staticmethod
    def office_hours(base_rate_hz: float) -> "DiurnalProfile":
        """Business-hours shape for the DCC flow."""
        w = [0.1] * 24
        for h in range(9, 18):
            w[h] = 1.0
        for h in (8, 18):
            w[h] = 0.5
        return DiurnalProfile(base_rate_hz, tuple(w), weekend_factor=0.2)

    @staticmethod
    def home_evenings(base_rate_hz: float) -> "DiurnalProfile":
        """Residential-presence shape for the edge flow."""
        w = [0.3] * 24
        for h in (7, 8):
            w[h] = 1.0
        for h in range(18, 23):
            w[h] = 1.5
        for h in range(0, 6):
            w[h] = 0.1
        return DiurnalProfile(base_rate_hz, tuple(w), weekend_factor=1.4,
                              seasonal_amplitude=0.2)
