"""Golden regression harness: every experiment's rendered output is pinned.

``tests/golden/<EID>.txt`` holds the canonical ``str(ExperimentResult)`` of
each experiment at its default parameters.  Any change to those bytes — a
refactor that perturbs an RNG stream, a table column edit, a float-formatting
drift — fails here first, with a diff a reviewer can read.

Intentional changes are recorded with ``pytest --update-golden`` (see
``tests/conftest.py``).  Experiments that take more than a few seconds at
full fidelity are marked ``slow`` and run in the CI full job; the fast tier
still pins the quick majority.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import _registry

GOLDEN_DIR = Path(__file__).parent / "golden"

#: experiments that take > ~3 s at default fidelity (full tier only)
SLOW_IDS = {"F4", "E3", "A6"}


def _params():
    for eid, (_, fn) in _registry().items():
        marks = [pytest.mark.slow] if eid in SLOW_IDS else []
        yield pytest.param(eid, fn, id=eid, marks=marks)


def test_every_experiment_has_a_fixture():
    """Fixture completeness is checked even when slow params are deselected."""
    missing = [eid for eid in _registry()
               if not (GOLDEN_DIR / f"{eid}.txt").exists()]
    assert not missing, (
        f"missing golden fixtures for {missing}; run "
        "pytest tests/test_golden_outputs.py -m 'slow or not slow' --update-golden"
    )


def test_no_stale_fixtures():
    known = set(_registry())
    stale = [p.name for p in GOLDEN_DIR.glob("*.txt") if p.stem not in known]
    assert not stale, f"golden fixtures without a registered experiment: {stale}"


def test_a6_legacy_rows_survived_the_policy_engine():
    """The policy-engine PR reshaped the A6 table (waste split, new bundles)
    but must not perturb the pre-existing bundles' physics: the legacy rows'
    service rates are pinned here *textually*, independent of --update-golden,
    so a fixture regeneration cannot silently absorb a behaviour change."""
    text = (GOLDEN_DIR / "A6.txt").read_text(encoding="utf-8")
    rows = {tuple(line.split()[:2]): line.split()
            for line in text.splitlines() if line.startswith("mtbf=")}
    assert rows[("mtbf=24h", "none")][2] == "97.04%"
    assert rows[("mtbf=24h", "clone")][2] == "99.94%"
    assert rows[("mtbf=24h", "checkpoint")][2] == "97.24%"
    assert rows[("mtbf=2h", "none")][2] == "87.62%"
    assert rows[("mtbf=2h", "checkpoint")][3] == "10"  # all batch jobs finish


@pytest.mark.parametrize("eid,fn", _params())
def test_golden_output(eid, fn, update_golden):
    rendered = str(fn()) + "\n"
    path = GOLDEN_DIR / f"{eid}.txt"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        return
    assert path.exists(), f"missing golden fixture {path}; run --update-golden"
    assert rendered == path.read_text(encoding="utf-8"), (
        f"{eid} output drifted from tests/golden/{eid}.txt; if intentional, "
        "regenerate with --update-golden and commit the diff"
    )


# --------------------------------------------------------------------------- #
# execution cross-product: every sweep-shaped experiment matches its golden
# fixture in parallel and from a warm cache; the inline serial path is
# test_golden_output itself (each sweep's run() is run_sweep at jobs=1).
# (Non-sweep experiments have no such dimension: run_experiment falls
# through to whole-result execution, already pinned above.)
# --------------------------------------------------------------------------- #
_SWEEP_IDS = ("A4", "E4", "E14", "E3", "A6")


def _sweep_params():
    for eid in _SWEEP_IDS:
        marks = [pytest.mark.dag] + (
            [pytest.mark.slow] if eid in SLOW_IDS else [])
        yield pytest.param(eid, id=eid, marks=marks)


@pytest.mark.parametrize("eid", _sweep_params())
def test_golden_identical_across_backends(eid, tmp_path):
    """--jobs 2 cold ≡ warm cache ≡ fixture (≡ the inline serial run)."""
    from repro.runner import ResultCache, SweepRunner

    golden = (GOLDEN_DIR / f"{eid}.txt").read_text(encoding="utf-8")
    _, fn = _registry()[eid]
    import importlib
    spec = getattr(importlib.import_module(fn.__module__), "SWEEP")

    cache = ResultCache(tmp_path / "cache")
    dag_par = SweepRunner(jobs=2, cache=cache,
                          backend="dag").run_spec(spec)
    assert str(dag_par.result) + "\n" == golden
    assert dag_par.computed == dag_par.points       # cold: all points ran
    assert dag_par.computed_nodes == dag_par.nodes  # prefixes exactly once

    warm = SweepRunner(jobs=1, cache=cache, backend="dag").run_spec(spec)
    assert str(warm.result) + "\n" == golden
    assert warm.fully_cached and warm.computed_nodes == 0


# --------------------------------------------------------------------------- #
# vector-kernel byte pin: the surrogate tier rides on the vector substrate
# (FleetRegulatorBank, FusedCityThermal, actuation masks, update_subset), so
# this PR-independent digest proves the vector kernel's own trajectory is
# untouched — independent of --update-golden, like the A6 textual pin above.
# --------------------------------------------------------------------------- #
VECTOR_KERNEL_DIGEST = \
    "b9e4cc346990f68f1a2ef90e543e9688b227882531392b7dccdffbd30469a124"


def test_vector_kernel_bytes_pinned():
    """End-to-end vector run (edge load, filler, comfort, smartgrid ledgers)
    hashes to the digest recorded before the surrogate tier landed."""
    import hashlib

    from repro.core.scheduling.base import SaturationPolicy
    from repro.experiments.common import mid_month_start, small_city
    from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator

    DAY = 86400.0
    mw = small_city(kernel="vector", seed=1234, start_time=mid_month_start(1),
                    n_districts=2, saturation_policy=SaturationPolicy.PREEMPT)
    t0 = mw.engine.now
    for bname in mw.buildings:
        gen = EdgeWorkloadGenerator(mw.rngs.stream(f"edge-{bname}"),
                                    source=bname,
                                    config=EdgeWorkloadConfig(rate_per_hour=30.0))
        mw.inject(gen.generate(t0, t0 + 0.1 * DAY))
    mw.run_until(t0 + 0.12 * DAY)

    comfort = mw.comfort.result()
    sig = {
        "edge": sorted((r.time, r.source, r.started_at, r.completed_at,
                        r.executed_on) for r in mw.completed_edge()),
        "expired": sorted((r.time, r.source) for r in mw.expired_edge()),
        "energy": mw.fleet_energy_j(),
        "cycles": mw.total_cycles_executed(),
        "filler": mw.filler_completed,
        "events": mw.engine.events_executed,
        "comfort": (comfort.hours_tracked, comfort.time_in_band,
                    comfort.rmse_c, comfort.mean_temp_c,
                    comfort.cold_degree_hours, comfort.overheat_degree_hours),
        "useful": mw.ledger._useful_heat_j,
        "cap": sorted(mw.smartgrid.capacity_log.items()),
        "ebl": sorted(mw.smartgrid.energy_budget_log.items()),
    }
    digest = hashlib.sha256(repr(sig).encode()).hexdigest()
    assert digest == VECTOR_KERNEL_DIGEST, (
        "the vector kernel's byte-level behaviour changed — the surrogate "
        "tier must be additive; investigate before repinning"
    )
