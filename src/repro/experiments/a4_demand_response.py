"""A4 (extension) — smart-grid negotiation: a demand-response event (§III-A).

"The manager must also negotiate with external systems (e.g. energy
operators ...) to calibrate its energy consumption and service delivery to the
demand."  We hit a January evening with a two-hour grid cap at 40% of the
fleet's authorised power and watch the smart-grid manager curtail DVFS
budgets, the capacity dip, and the rooms coast on thermal inertia — then
recover.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import ExperimentResult, mid_month_start, small_city
from repro.metrics.collectors import TimeSeries
from repro.metrics.report import Table
from repro.runner.runner import run_sweep
from repro.runner.spec import SweepPoint, SweepPrefix, SweepSpec
from repro.sim.calendar import DAY, HOUR

__all__ = ["run", "SWEEP"]

#: report windows around the 17:00–19:00 cap, in display order
_WINDOWS_H = (
    ("before (14–17h)", 14, 17),
    ("capped (17–19h)", 17, 19),
    ("after (19–22h)", 19, 22),
)


def _city_blueprint(seed: int):
    """A4's shared prefix: the resolved city-construction kwargs.

    Pure data (and globally inert — no request ids, no rng), so the runner
    caches it per node and hands it to the sim cell; a direct call of the
    cell recomputes it inline, byte-identically.
    """
    return (("seed", seed), ("start_time", mid_month_start(1)))


def _dr_cell(seed: int, blueprint=None) -> Dict[str, float]:
    """Simulate the capped day; returns the window means + comfort summary."""
    if blueprint is None:
        blueprint = _city_blueprint(seed)
    t0 = mid_month_start(1)
    mw = small_city(**dict(blueprint))
    cap_holder = {"w": 0.0}

    def apply_cap() -> None:
        # operator asks for half of whatever the fleet is authorised right now
        cap_holder["w"] = 0.5 * mw.smartgrid.authorized_power_w()
        mw.smartgrid.set_grid_cap(cap_holder["w"])

    mw.engine.schedule_at(t0 + 17 * HOUR, apply_cap)
    mw.engine.schedule_at(t0 + 19 * HOUR, lambda: mw.smartgrid.set_grid_cap(None))

    power = TimeSeries("fleet-power")
    cores = TimeSeries("available-cores")

    def sample(now: float, dt: float) -> None:
        power.add(now, sum(s.power_w() for s in mw.all_servers))
        cores.add(now, mw.smartgrid.available_cores())

    mw.engine.add_process("a4-sample", 600.0, sample)
    mw.run_until(t0 + DAY)

    cell: Dict[str, float] = {
        name: power.window(t0 + a * HOUR, t0 + b * HOUR).mean()
        for name, a, b in _WINDOWS_H
    }
    comfort = mw.comfort.result()
    cell["cap_w"] = cap_holder["w"]
    cell["comfort_in_band"] = comfort.time_in_band
    cell["curtailment_events"] = mw.smartgrid.curtailment_events
    return cell


def sweep_points(seed: int = 71) -> List[SweepPoint]:
    """A single point: the whole capped day is one indivisible simulation."""
    return [SweepPoint(
        experiment_id="A4", point_id="capped-day",
        cell="repro.experiments.a4_demand_response:_dr_cell",
        params=(("seed", seed),),
        needs=(("blueprint", "city-blueprint"),),
    )]


def sweep_prefixes(seed: int = 71) -> List[SweepPrefix]:
    """The city blueprint the capped-day cell builds from."""
    return [SweepPrefix(
        experiment_id="A4", prefix_id="city-blueprint",
        cell="repro.experiments.a4_demand_response:_city_blueprint",
        params=(("seed", seed),),
    )]


def sweep_reduce(cells: Dict[str, Any], seed: int = 71) -> ExperimentResult:
    """Render the window means + comfort footer."""
    cell = cells["capped-day"]
    table = Table(["window", "mean_fleet_power_w", "grid_cap_w"],
                  title="A4 — demand-response event on the DF3 fleet (§III-A)")
    data: Dict[str, float] = {}
    for name, _, _ in _WINDOWS_H:
        data[name] = cell[name]
        table.add_row(name, round(cell[name]),
                      round(cell["cap_w"]) if "capped" in name else "-")

    data["comfort_in_band"] = cell["comfort_in_band"]
    data["curtailment_events"] = cell["curtailment_events"]
    footer = (
        f"\ncurtailment events: {cell['curtailment_events']}; "
        f"comfort across the day: in-band {cell['comfort_in_band']:.0%} "
        f"(rooms coast on thermal inertia through the cap)"
    )
    return ExperimentResult(
        experiment_id="A4",
        title="Demand response via the smart-grid manager (§III-A)",
        text=table.render() + footer,
        data=data,
    )


SWEEP = SweepSpec("A4", points=sweep_points, reduce=sweep_reduce,
                  prefixes=sweep_prefixes)


def run(seed: int = 71) -> ExperimentResult:
    """One cold day with a 17:00–19:00 grid cap at 40% of fleet power."""
    return run_sweep(SWEEP, seed=seed)
