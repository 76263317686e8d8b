"""Reference oracles for the exact fast paths of the workload generators.

``DiurnalProfile.rate`` is memoised per (day of year, hour of day) and the
edge deadline class is drawn by bisecting one uniform into a precomputed
cdf instead of calling ``Generator.choice``.  Both must be bit-identical to
the code they replaced, which is kept here as the reference: the same
values, and the same random stream state afterwards.  These tests also fail
if a numpy upgrade changes how ``choice`` consumes its stream.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro.core.requests import EdgeMode
from repro.sim.calendar import DAY, HOUR, WEEK, YEAR, SimCalendar
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import DiurnalProfile
from repro.workloads.cloud import CloudJobConfig, CloudJobGenerator
from repro.workloads.edge import EdgeWorkloadConfig, EdgeWorkloadGenerator


# --------------------------------------------------------------------------- #
# the replaced code, verbatim
# --------------------------------------------------------------------------- #
def reference_rate(profile: DiurnalProfile, t: float) -> float:
    """``DiurnalProfile.rate`` before memoisation."""
    cal = profile._cal
    mean_w = sum(profile.hour_weights) / 24.0
    if mean_w == 0:
        return 0.0
    w = profile.hour_weights[int(cal.hour_of_day(t)) % 24] / mean_w
    if cal.is_weekend(t):
        w *= profile.weekend_factor
    if profile.seasonal_amplitude > 0:
        doy = cal.day_of_year(t)
        w *= 1.0 + profile.seasonal_amplitude * np.cos(2 * np.pi * (doy - 15) / 365.0)
    return profile.base_rate_hz * w


def reference_draw(rng: np.random.Generator, cfg: EdgeWorkloadConfig, t: float):
    """``EdgeWorkloadGenerator._draw`` before the cdf bisection."""
    weights = np.array([w for _, w in cfg.deadline_classes], dtype=float)
    p = weights / weights.sum()
    deadlines = np.array([d for d, _ in cfg.deadline_classes])
    mu = np.log(cfg.mean_megacycles * 1e6) - 0.5 * cfg.sigma_log**2
    cycles = float(rng.lognormal(mu, cfg.sigma_log))
    deadline = float(rng.choice(deadlines, p=p))
    mode = EdgeMode.DIRECT if rng.random() < cfg.direct_fraction else EdgeMode.INDIRECT
    return (float(t), cycles, deadline, mode.value)


def _stream(seed: int) -> np.random.Generator:
    return RngRegistry(seed).stream("fastpath")


def _bits(x: float) -> str:
    return float(x).hex()


# --------------------------------------------------------------------------- #
# deadline class: cdf bisection == Generator.choice(p=...)
# --------------------------------------------------------------------------- #
CLASS_MIXES = {
    "default": EdgeWorkloadConfig().deadline_classes,
    "unnormalised": ((0.5, 3.0), (2.0, 7.0), (5.0, 11.0), (9.0, 0.25)),
    "zero-weight": ((0.5, 0.0), (2.0, 1.0), (5.0, 0.0), (8.0, 2.0)),
    "single-class": ((3.0, 5.0),),
    "integer-deadlines": ((1, 1.0), (4, 3.0)),
}


@pytest.mark.parametrize("mix", sorted(CLASS_MIXES))
def test_deadline_draw_matches_choice_and_stream_state(mix):
    cfg = EdgeWorkloadConfig(deadline_classes=CLASS_MIXES[mix],
                             direct_fraction=0.25)
    for seed in range(100):
        fast_rng, ref_rng = _stream(seed), _stream(seed)
        gen = EdgeWorkloadGenerator(fast_rng, "b", cfg)
        fast = gen.plan_burst(10.0, 40, spacing_s=0.5)
        ref = tuple(reference_draw(ref_rng, cfg, 10.0 + i * 0.5)
                    for i in range(40))
        assert [tuple(map(repr, r)) for r in fast] == \
            [tuple(map(repr, r)) for r in ref], (mix, seed)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


# --------------------------------------------------------------------------- #
# memoised rate == the uncached formula
# --------------------------------------------------------------------------- #
PROFILES = {
    "office_hours": DiurnalProfile.office_hours(20.0 / 3600.0),
    "home_evenings": DiurnalProfile.home_evenings(120.0 / 3600.0),
}


def _boundary_times(offset: float):
    """Instants at and around hour, day, week and year boundaries."""
    edges = [0.0, 7 * HOUR, 18 * HOUR, DAY, 5 * DAY, WEEK, 14 * DAY + 9 * HOUR,
             15 * DAY, 200 * DAY, YEAR - HOUR, YEAR, YEAR + DAY, 2 * YEAR]
    out = []
    for edge in edges:
        t = edge - offset  # a boundary of civil time, not of simulated time
        out += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
                t - 1e-6, t + 1e-6, t - 1.0, t + 1.0]
    return out


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("offset", [0.0, 10 * DAY + 3.5 * HOUR, -7.25 * HOUR])
def test_memoised_rate_matches_formula(name, offset):
    profile = dataclasses.replace(PROFILES[name],
                                  _cal=SimCalendar(epoch_offset=offset))
    rng = np.random.default_rng(11)
    random_times = rng.uniform(-YEAR, 3 * YEAR, size=4000).tolist()
    times = _boundary_times(offset) + random_times
    # shuffled, so most lookups hit entries that other instants created
    for t in rng.permutation(np.array(times)).tolist() + times:
        got, want = profile.rate(t), reference_rate(profile, t)
        assert _bits(got) == _bits(want), (name, offset, t)
    assert len(profile._memo) <= 366 * 24


def test_memo_is_not_profile_data():
    a = DiurnalProfile.home_evenings(1.0)
    b = DiurnalProfile.home_evenings(1.0)
    a.rate(12 * HOUR)
    assert a == b and hash(a) == hash(b)
    assert "_memo" not in {f.name for f in dataclasses.fields(a)}
    assert not b._memo


# --------------------------------------------------------------------------- #
# pinned digests of whole generated streams
# --------------------------------------------------------------------------- #
#: windows crossing a weekend and the year boundary
WINDOWS = ((4.5 * DAY, 7.5 * DAY), (YEAR - 1.5 * DAY, YEAR + 0.5 * DAY))


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def _edge_digests(seed: int):
    cfg = EdgeWorkloadConfig(direct_fraction=0.2)
    planned = EdgeWorkloadGenerator(_stream(seed), "b", cfg)
    generated = EdgeWorkloadGenerator(_stream(seed), "b", cfg)
    plan = [planned.plan(t0, t1) for t0, t1 in WINDOWS]
    reqs = [[(r.time, r.cycles, r.deadline_s, r.mode.value)
             for r in generated.generate(t0, t1)] for t0, t1 in WINDOWS]
    return _digest(plan), _digest(reqs), _bits(planned.rng.random())


def _cloud_digest(seed: int):
    gen = CloudJobGenerator(_stream(seed), CloudJobConfig(rate_per_hour=60.0))
    return _digest([[(r.time, r.cycles, r.cores, r.user)
                     for r in gen.generate(t0, t1)] for t0, t1 in WINDOWS])


#: seed -> (edge plan, edge generate, next uniform, cloud generate), as
#: produced by the generators before the fast paths
PINNED = {
    1: ("9b4b20dfc2b620e7", "c6199f53db6e9e67", "0x1.dceebb77b75c2p-2",
        "9234687fb4266397"),
    29: ("bab3ad9194691972", "19bc9dd32d5e1c5b", "0x1.d63a9e41c2018p-4",
         "933ea06f396e89fe"),
    4242: ("d55e1d3c1e532c07", "3207f8ea0810fe16", "0x1.909bd7e9cc6a4p-1",
           "6478b2fe328dd5cb"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_generated_streams_match_pinned_digests(seed):
    assert (*_edge_digests(seed), _cloud_digest(seed)) == PINNED[seed]
