"""Rooms, thermostats and buildings.

A :class:`Building` bundles N rooms sharing one outdoor climate, an
:class:`RCNetwork` integrator, per-room thermostat schedules and occupancy
gains.  Heaters (Q.rads, e-radiators — see :mod:`repro.hardware.qrad`) are
*attached* to rooms: the building asks each attached heat source for its
current thermal output when stepping, keeping the thermal and compute layers
decoupled (the compute layer just has to expose ``heat_output_w()``).

The thermostat setpoints drive the **heating-request flow** of the DF3 model
(paper §II-C): every room with ``t_air < setpoint`` is demanding heat, and the
middleware's job is to generate that heat with useful computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.sim.calendar import SimCalendar
from repro.thermal.rc_model import RCNetwork, RoomThermalParams

__all__ = ["HeatSource", "Room", "RoomConfig", "ThermostatSchedule", "Building"]


class HeatSource(Protocol):
    """Anything that dumps heat into a room (a Q.rad, a plain heater...)."""

    def heat_output_w(self) -> float:
        """Current thermal power delivered to the room (W)."""
        ...


@dataclass(frozen=True)
class ThermostatSchedule:
    """Day/night setpoint schedule.

    The paper's hosts "can also control the internal temperature" (§II-B1);
    this is the standard residential pattern: comfort setpoint while awake,
    setback at night.
    """

    day_setpoint_c: float = 20.0
    night_setpoint_c: float = 17.0
    day_start_hour: float = 6.5
    day_end_hour: float = 22.5

    def setpoint(self, hour_of_day: float) -> float:
        """Setpoint (°C) at a given local hour."""
        if self.day_start_hour <= hour_of_day < self.day_end_hour:
            return self.day_setpoint_c
        return self.night_setpoint_c


@dataclass
class RoomConfig:
    """Static description of one room."""

    name: str
    thermal: RoomThermalParams = field(default_factory=RoomThermalParams)
    schedule: ThermostatSchedule = field(default_factory=ThermostatSchedule)
    occupant_gain_w: float = 80.0  # one person + standby appliances
    solar_aperture_m2: float = 1.5  # effective glazing collecting solar gains
    occupied_hours: tuple = (0.0, 24.0)  # occupancy window for gains


class Room:
    """Runtime state of a room inside a :class:`Building`."""

    def __init__(self, index: int, config: RoomConfig):
        self.index = index
        self.config = config
        self.heat_sources: List[HeatSource] = []
        self.aux_heat_w: float = 0.0  # backup/plain electric heat, if any

    @property
    def name(self) -> str:
        """Room name from its configuration."""
        return self.config.name

    def attach(self, source: HeatSource) -> None:
        """Attach a heat source (e.g. a Q.rad) to this room."""
        self.heat_sources.append(source)

    def heater_power_w(self) -> float:
        """Total thermal power currently delivered by attached sources (W)."""
        sources = self.heat_sources
        if len(sources) == 1:
            # sum() would add its int 0 start first; 0 + x is x bit for bit
            # for every output except -0.0, which no server reports
            return sources[0].heat_output_w() + self.aux_heat_w
        return sum(s.heat_output_w() for s in sources) + self.aux_heat_w

    def occupancy_gain_w(self, hour_of_day: float) -> float:
        """Internal gains (W) at the given local hour."""
        lo, hi = self.config.occupied_hours
        return self.config.occupant_gain_w if lo <= hour_of_day < hi else 0.0


class Building:
    """A set of rooms sharing weather, stepped as one vectorised RC network.

    Parameters
    ----------
    configs:
        Room descriptions.
    weather:
        Object exposing ``outdoor_temperature(t)`` and ``solar_irradiance(t)``
        (see :class:`repro.thermal.weather.Weather`).
    t_init_c:
        Initial room temperature.

    Notes
    -----
    Call :meth:`step` on a fixed tick (typically 60–300 s, registered as an
    engine :class:`~repro.sim.engine.Process`).  Between ticks, heater powers
    are treated as constant — consistent with how the heat regulator of
    :mod:`repro.core.regulation` updates DVFS caps on the same tick.
    """

    def __init__(self, configs: Sequence[RoomConfig], weather, t_init_c: float = 18.0,
                 party_wall_g_w_per_k: float = 0.0):
        if not configs:
            raise ValueError("building needs at least one room")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate room names: {names}")
        self.rooms: List[Room] = [Room(i, c) for i, c in enumerate(configs)]
        self.weather = weather
        self.network = RCNetwork([c.thermal for c in configs], t_init_c=t_init_c)
        if party_wall_g_w_per_k > 0:
            # consecutive rooms share a party wall (a corridor-plan flat)
            for i in range(len(configs) - 1):
                self.network.couple(i, i + 1, party_wall_g_w_per_k)
        self._cal = SimCalendar()
        self._by_name: Dict[str, Room] = {r.name: r for r in self.rooms}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rooms)

    def room(self, name: str) -> Room:
        """Look up a room by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no room named {name!r} in building") from None

    @property
    def temperatures(self) -> np.ndarray:
        """Current per-room air temperatures (°C)."""
        return self.network.t_air

    def temperature_of(self, name: str) -> float:
        """Air temperature (°C) of one room."""
        return float(self.network.t_air[self.room(name).index])

    def setpoints(self, t: float) -> np.ndarray:
        """Per-room thermostat setpoints (°C) at simulated time ``t``."""
        hod = self._cal.hour_of_day(t)
        return np.array([r.config.schedule.setpoint(hod) for r in self.rooms])

    def heat_demand_w(self, t: float) -> np.ndarray:
        """Per-room equilibrium power (W) needed to hold the current setpoint.

        This is the **heating-request flow** signal consumed by the DF3
        middleware: the power each room is implicitly requesting right now.
        """
        t_out = self.weather.outdoor_temperature(t)
        return self.network.required_power(t_out, self.setpoints(t))

    # ------------------------------------------------------------------ #
    def step(self, now: float, dt: float) -> np.ndarray:
        """Advance the thermal state by ``dt`` ending at time ``now``."""
        t_out = self.weather.outdoor_temperature(now)
        hod = self._cal.hour_of_day(now)
        p_heat = np.array([r.heater_power_w() for r in self.rooms])
        p_gain = np.array([r.occupancy_gain_w(hod) for r in self.rooms])
        irr = self.weather.solar_irradiance(now)
        p_solar = np.array([r.config.solar_aperture_m2 for r in self.rooms]) * irr * 0.6
        return self.network.step(dt, t_out, p_heat, p_gain, p_solar)
