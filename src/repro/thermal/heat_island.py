"""Urban-heat-island accounting: who rejects heat outdoors, and how much.

Paper §III-A worries that "a broad deployment of DF servers could create or
increase the intensity of urban heat island", and argues on-demand heat
delivery minimises waste.  This module is the ledger those experiments (E7)
are built on: every subsystem that rejects heat *outdoors* (rather than into a
room or a water tank) reports it here, tagged with a source category.

Categories used across the framework:

* ``eradiator_summer`` — Nerdalize dual-pipe heaters dumping outside in summer;
* ``boiler_overflow``  — digital boilers whose tank hit its ceiling;
* ``dc_cooling``       — classical datacenter cooling rejecting IT+cooling heat;
* ``aircon``           — building air conditioning (the Tremeac et al. [10]
  mechanism the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict

import numpy as np

__all__ = ["OutdoorHeatSource", "HeatIslandLedger"]


class OutdoorHeatSource(str, Enum):
    """Categories of outdoor heat rejection tracked by the ledger."""

    ERADIATOR_SUMMER = "eradiator_summer"
    BOILER_OVERFLOW = "boiler_overflow"
    DC_COOLING = "dc_cooling"
    AIRCON = "aircon"
    OTHER = "other"


@dataclass
class HeatIslandLedger:
    """Accumulates outdoor-rejected energy by source category (J)."""

    def __post_init__(self) -> None:
        self._by_source: Dict[OutdoorHeatSource, float] = {s: 0.0 for s in OutdoorHeatSource}
        self._useful_heat_j = 0.0
        self._useful_compute_j = 0.0

    def add_outdoor(self, source: OutdoorHeatSource, energy_j: float) -> None:
        """Record ``energy_j`` joules rejected outdoors by ``source``."""
        if energy_j < 0:
            raise ValueError(f"energy must be >= 0, got {energy_j}")
        self._by_source[source] += energy_j

    def add_useful_heat(self, energy_j: float) -> None:
        """Record heat delivered *usefully* (into rooms/tanks on demand)."""
        if energy_j < 0:
            raise ValueError(f"energy must be >= 0, got {energy_j}")
        self._useful_heat_j += energy_j

    def add_useful_heat_many(self, energies_j) -> None:
        """:meth:`add_useful_heat` for each entry of ``energies_j``, in order.

        The total is folded with ``np.add.accumulate``, a strict left fold,
        so it ends bit-identical to the one-by-one calls.  A negative entry
        raises before anything is added.
        """
        e = np.asarray(energies_j, dtype=np.float64)
        if e.size == 0:
            return
        if (e < 0).any():
            raise ValueError(f"energy must be >= 0, got {float(e[e < 0][0])}")
        self._useful_heat_j = float(
            np.add.accumulate(np.concatenate(([self._useful_heat_j], e)))[-1])

    def add_useful_compute(self, energy_j: float) -> None:
        """Record IT energy that performed requested computation."""
        if energy_j < 0:
            raise ValueError(f"energy must be >= 0, got {energy_j}")
        self._useful_compute_j += energy_j

    # ------------------------------------------------------------------ #
    @property
    def total_outdoor_j(self) -> float:
        """Total outdoor-rejected energy across all categories (J)."""
        return sum(self._by_source.values())

    def outdoor_j(self, source: OutdoorHeatSource) -> float:
        """Outdoor-rejected energy of one category (J)."""
        return self._by_source[source]

    @property
    def useful_heat_j(self) -> float:
        """Total heat delivered on demand (J)."""
        return self._useful_heat_j

    def waste_heat_index(self) -> float:
        """Outdoor heat per joule of useful compute.

        The experiment E7 comparator: lower is better.  Returns ``inf`` when
        no useful compute was recorded but outdoor heat exists, 0 when neither.
        """
        if self._useful_compute_j > 0:
            return self.total_outdoor_j / self._useful_compute_j
        return float("inf") if self.total_outdoor_j > 0 else 0.0

    def breakdown_kwh(self) -> Dict[str, float]:
        """Per-category outdoor heat in kWh, for reports."""
        return {s.value: v / 3.6e6 for s, v in self._by_source.items() if v > 0}
