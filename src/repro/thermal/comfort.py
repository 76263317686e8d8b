"""Comfort metrics for heated rooms.

The paper's Fig. 4 claim is that data-furnace heating achieves "the same level
of comfort than with other heating systems".  We quantify comfort three ways:

* **time-in-band** — fraction of occupied time with ``|T - setpoint| <= band``;
* **RMSE** to setpoint;
* **discomfort degree-hours** — integral of temperature deficit below the
  setpoint (overshoot above setpoint is tracked separately as overheat).

A :class:`ComfortTracker` is fed samples on the building tick and reduces to a
:class:`ComfortStats` at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ComfortStats", "ComfortTracker"]


@dataclass(frozen=True)
class ComfortStats:
    """Aggregated comfort results over a tracked interval."""

    hours_tracked: float
    time_in_band: float
    rmse_c: float
    mean_temp_c: float
    cold_degree_hours: float
    overheat_degree_hours: float

    def __str__(self) -> str:
        return (
            f"ComfortStats(in_band={self.time_in_band:.1%}, rmse={self.rmse_c:.2f}°C, "
            f"mean={self.mean_temp_c:.1f}°C, cold_dh={self.cold_degree_hours:.1f}, "
            f"hot_dh={self.overheat_degree_hours:.1f})"
        )


class ComfortTracker:
    """Accumulates per-sample comfort measurements.

    Parameters
    ----------
    band_c:
        Half-width of the comfort band around the setpoint (°C).

    Notes
    -----
    ``add(dt, temps, setpoints)`` accepts vectors — one entry per room — so a
    whole building is tracked with one tracker; statistics pool rooms and time.
    """

    def __init__(self, band_c: float = 1.0):
        if band_c <= 0:
            raise ValueError(f"band must be > 0, got {band_c}")
        self.band_c = float(band_c)
        self._seconds = 0.0
        self._n_samples = 0
        self._in_band_weight = 0.0
        self._sq_err_weight = 0.0
        self._temp_weight = 0.0
        self._cold_dh = 0.0
        self._hot_dh = 0.0
        #: month → per-sample mean temperatures, in call order: a float per
        #: :meth:`add`, an array of row means per :meth:`add_rows`
        self._monthly_temp: dict[int, list] = {}

    def add(self, dt: float, temps, setpoints, month: int | None = None) -> None:
        """Record one sample covering ``dt`` seconds.

        Parameters
        ----------
        dt: seconds this sample represents.
        temps: room temperature(s), scalar or array (°C).
        setpoints: thermostat setpoint(s), same shape.
        month: optional 1-based month, enabling :meth:`monthly_mean_temps`.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        temps = np.atleast_1d(np.asarray(temps, dtype=float))
        setpoints = np.broadcast_to(np.asarray(setpoints, dtype=float), temps.shape)
        err = temps - setpoints
        hours = dt / 3600.0
        n = temps.size
        self._seconds += dt
        self._n_samples += 1
        self._in_band_weight += dt * float(np.mean(np.abs(err) <= self.band_c))
        self._sq_err_weight += dt * float(np.mean(err**2))
        self._temp_weight += dt * float(np.mean(temps))
        self._cold_dh += hours * float(np.mean(np.maximum(-err, 0.0)))
        self._hot_dh += hours * float(np.mean(np.maximum(err - self.band_c, 0.0)))
        if month is not None:
            self._monthly_temp.setdefault(month, []).append(float(np.mean(temps)))

    def add_rows(self, dt: float, temps, setpoints, month: int | None = None) -> None:
        """Record one sample *per row*, exactly as sequential :meth:`add` calls.

        ``temps``/``setpoints`` are 2-D (rows × rooms).  The per-row means are
        computed in one vectorised pass — an axis reduction over a row is the
        same pairwise summation :meth:`add` performs on that row alone, so
        every accumulator receives bit-identical increments — and then folded
        into the accumulators row by row in order, by one
        ``np.add.accumulate`` down the rows (a strict left fold per column).
        This is the vectorised kernel's batched entry point (one call per
        tick for a whole city instead of one per building); the scalar
        per-building path remains the reference.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        temps = np.atleast_2d(np.asarray(temps, dtype=float))
        setpoints = np.broadcast_to(np.asarray(setpoints, dtype=float), temps.shape)
        err = temps - setpoints
        hours = dt / 3600.0
        mean_t = temps.mean(axis=1)
        # row 0 holds the accumulators, row r the increments sample r adds;
        # rounding order is part of the contract, so the fold must stay
        # sequential: np.add.accumulate, never np.sum (pairwise)
        steps = np.empty((temps.shape[0] + 1, 6))
        steps[0] = (self._seconds, self._in_band_weight, self._sq_err_weight,
                    self._temp_weight, self._cold_dh, self._hot_dh)
        steps[1:, 0] = dt
        steps[1:, 1] = dt * (np.abs(err) <= self.band_c).mean(axis=1)
        steps[1:, 2] = dt * (err**2).mean(axis=1)
        steps[1:, 3] = dt * mean_t
        steps[1:, 4] = hours * np.maximum(-err, 0.0).mean(axis=1)
        steps[1:, 5] = hours * np.maximum(err - self.band_c, 0.0).mean(axis=1)
        (self._seconds, self._in_band_weight, self._sq_err_weight,
         self._temp_weight, self._cold_dh, self._hot_dh) = \
            np.add.accumulate(steps, axis=0)[-1].tolist()
        self._n_samples += temps.shape[0]
        if month is not None:
            self._monthly_temp.setdefault(month, []).append(mean_t)

    def result(self) -> ComfortStats:
        """Reduce to :class:`ComfortStats`; raises if nothing was recorded."""
        if self._seconds == 0:
            raise ValueError("no samples recorded")
        return ComfortStats(
            hours_tracked=self._seconds / 3600.0,
            time_in_band=self._in_band_weight / self._seconds,
            rmse_c=float(np.sqrt(self._sq_err_weight / self._seconds)),
            mean_temp_c=self._temp_weight / self._seconds,
            cold_degree_hours=self._cold_dh,
            overheat_degree_hours=self._hot_dh,
        )

    def monthly_mean_temps(self) -> dict[int, float]:
        """Mean recorded temperature per month — the Fig. 4 series."""
        # concatenated in call order, np.mean sees the same values in the
        # same order as if every sample had been stored on its own
        return {m: float(np.mean(np.hstack(v)))
                for m, v in sorted(self._monthly_temp.items())}
