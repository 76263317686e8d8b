"""Collective heating control (paper §II-C).

"Heating requests could be collaborative or individual.  The former case
corresponds to the situation where we want to set the **mean temperature** in
rooms of an apartment to a certain value."

Setting every room's setpoint to the requested mean works only when rooms are
identical; a lossy corner room then drags the mean down while saturating its
heater.  :class:`CollectiveController` closes the loop on the *mean*: it
periodically redistributes per-room targets so that warm rooms yield budget to
cold ones, subject to per-room comfort bounds (no room may be driven outside
``[floor, ceiling]`` just to fix the average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["CollectiveConfig", "CollectiveController"]


@dataclass(frozen=True)
class CollectiveConfig:
    """Redistribution tunables.

    ``gain`` converts mean error (°C) into target shift per update;
    ``floor/ceiling`` bound individual room targets (nobody's bedroom is
    driven to 26 °C to fix the living-room average).
    """

    gain: float = 1.0
    floor_c: float = 16.0
    ceiling_c: float = 25.0
    max_spread_c: float = 3.0

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ValueError("gain must be > 0")
        if not self.floor_c < self.ceiling_c:
            raise ValueError("need floor < ceiling")
        if self.max_spread_c <= 0:
            raise ValueError("max spread must be > 0")


class CollectiveController:
    """Drives several room regulators toward a mean-temperature target.

    Parameters
    ----------
    regulators: the per-room :class:`~repro.core.regulation.HeatRegulator`
        objects of one household, in a fixed order.
    config: redistribution tunables.
    """

    def __init__(self, regulators: Sequence, config: CollectiveConfig = CollectiveConfig()):
        if not regulators:
            raise ValueError("need at least one regulator")
        self.regulators = list(regulators)
        self.config = config
        self.mean_target_c: float | None = None

    # ------------------------------------------------------------------ #
    def set_mean_target(self, target_c: float) -> None:
        """Accept a collective heating request for this household."""
        if not 5.0 <= target_c <= 30.0:
            raise ValueError(f"target {target_c} outside sane range")
        self.mean_target_c = float(target_c)
        for reg in self.regulators:  # initial guess: everyone at the mean
            reg.set_target(target_c)

    def clear(self) -> None:
        """Drop collective control (rooms revert to individual targets)."""
        self.mean_target_c = None

    @property
    def active(self) -> bool:
        """Whether a collective target is currently in force."""
        return self.mean_target_c is not None

    # ------------------------------------------------------------------ #
    def update(self, room_temps_c) -> List[float]:
        """Rebalance per-room targets from measured temperatures.

        Call on the thermal tick *before* the regulators' own updates.
        Returns the new per-room targets.
        """
        if not self.active:
            return [reg.setpoint_c for reg in self.regulators]
        temps = np.asarray(room_temps_c, dtype=float)
        if temps.shape != (len(self.regulators),):
            raise ValueError(
                f"expected {len(self.regulators)} temperatures, got {temps.shape}"
            )
        cfg = self.config
        target = self.mean_target_c
        mean = float(temps.mean())
        # per room: push its target up by the mean error, plus a term that
        # shifts budget from rooms above the mean to rooms below it.  Plain
        # float64 scalars: the same IEEE operations, in the same order, as
        # the elementwise array form target + gain·err - 0.5·(t - mean)
        base = target + cfg.gain * (target - mean)
        lo = float(max(cfg.floor_c, target - cfg.max_spread_c))
        hi = float(min(cfg.ceiling_c, target + cfg.max_spread_c))
        new_targets = []
        for reg, t in zip(self.regulators, temps.tolist()):
            raw = base - 0.5 * (t - mean)
            # np.clip's order: raise to lo, then cap at hi (hi wins when
            # lo > hi; NaN passes through both tests)
            if raw < lo:
                raw = lo
            if raw > hi:
                raw = hi
            reg.set_target(raw)
            new_targets.append(raw)
        return new_targets

    def mean_error_c(self, room_temps_c) -> float:
        """Current mean-temperature error (0 when inactive)."""
        if not self.active:
            return 0.0
        return self.mean_target_c - float(np.mean(np.asarray(room_temps_c, dtype=float)))
