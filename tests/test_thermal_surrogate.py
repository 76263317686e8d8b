"""Property tests for the surrogate tier's aggregate model + controller.

The differential fuzz in ``test_kernel_equivalence.py`` pins the surrogate
against the vector kernel's outputs; this module pins the *internal*
contracts of DESIGN.md §2.18: the aggregate 2R2C's energy balance, its
monotone weather response, the calibration fit, lazy zoom-in semantics
(read-only, byte-exact replay), materialise-on-demand triggers, quiescing,
RNG stream isolation and rerun determinism.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.core.faults import FaultInjector
from repro.core.requests import EdgeRequest, HeatingRequest
from repro.experiments.common import mid_month_start, small_city
from repro.thermal import budget
from repro.thermal.surrogate import (
    DistrictAggregateModel,
    SurrogateConfig,
    fit_power_map,
)

DAY = 86400.0
TICK = 600.0
SUR = SurrogateConfig(warmup_ticks=4, sample_districts=1, checkpoint_every=4)


def _city(**overrides):
    kw = dict(kernel="surrogate", seed=11, n_districts=4,
              start_time=mid_month_start(1), surrogate=SUR)
    kw.update(overrides)
    return small_city(**kw)


def _run_ticks(mw, n):
    mw.run_until(mw.engine.now + n * TICK)
    return mw


def _ever_aggregated(sur):
    """Every district aggregated at the switch (all but the sample)."""
    return [d for d in range(sur.n_districts) if d not in sur.sample_districts]


# --------------------------------------------------------------------------- #
# config + calibration fit
# --------------------------------------------------------------------------- #
def test_surrogate_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        SurrogateConfig(warmup_ticks=1)
    with pytest.raises(ValueError, match="sample"):
        SurrogateConfig(sample_districts=-1)
    with pytest.raises(ValueError, match="checkpoint"):
        SurrogateConfig(checkpoint_every=0)
    with pytest.raises(ValueError, match="threshold"):
        SurrogateConfig(slo_zoom_threshold_c=0.0)


def test_fit_power_map_recovers_linear_response():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = float(rng.uniform(50, 600)), float(rng.uniform(0, 50))
        x = rng.uniform(0.1, 1.0, size=12)
        got_a, got_b = fit_power_map(x, a * x + b)
        assert got_a == pytest.approx(a, rel=1e-9)
        assert got_b == pytest.approx(b, abs=1e-6)


def test_fit_power_map_degenerate_windows():
    # constant command: proportional map (still responds to PI output)
    a, b = fit_power_map([0.5, 0.5, 0.5], [100.0, 100.0, 100.0])
    assert (a, b) == (200.0, 0.0)
    # dead window: predict the (zero) mean
    a, b = fit_power_map([0.0, 0.0], [0.0, 0.0])
    assert (a, b) == (0.0, 0.0)


def test_surrogate_requires_homogeneous_fleet():
    from repro.thermal.surrogate import SurrogateController

    mw = small_city(kernel="vector", seed=3)
    mw._fused_thermal.c_air[0] *= 2.0
    with pytest.raises(ValueError, match="homogeneous"):
        SurrogateController(mw, SUR)


# --------------------------------------------------------------------------- #
# aggregate-model properties
# --------------------------------------------------------------------------- #
def _random_model(rng):
    return DistrictAggregateModel(
        c_air=float(rng.uniform(1e6, 1e7)),
        c_env=float(rng.uniform(5e6, 5e7)),
        g_ie=float(rng.uniform(100, 500)),
        g_ea=float(rng.uniform(20, 100)),
        g_inf=float(rng.uniform(10, 80)),
        dt_max=60.0,
    )


def test_energy_balance_residual_bounded_per_tick():
    """c_air·Δt_air + c_env·Δt_env equals the external flux to round-off:
    the residual stays inside the budget's relative bound every tick."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = _random_model(rng)
        ta = np.array([float(rng.uniform(12, 26))])
        te = np.array([float(rng.uniform(8, 24))])
        t_out = float(rng.uniform(-10, 20))
        p_heat = np.array([float(rng.uniform(0, 500))])
        p_gain, p_solar = float(rng.uniform(0, 200)), float(rng.uniform(0, 300))
        for _tick in range(5):
            ta1, te1, flux = m.step_with_flux(ta, te, TICK, t_out, p_heat,
                                              p_gain, p_solar)
            residual = (m.c_air * (ta1[0] - ta[0])
                        + m.c_env * (te1[0] - te[0]) - flux[0])
            scale = abs(float(flux[0])) + m.c_air + m.c_env
            assert abs(residual) <= budget.AGGREGATE_ENERGY_RESIDUAL_REL * scale
            ta, te = ta1, te1


def test_monotone_response_to_weather_steps():
    """A warmer outdoor step never cools the aggregate state (and vice
    versa): the district node responds monotonically to weather overrides."""
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = _random_model(rng)
        ta0 = np.array([float(rng.uniform(14, 24))])
        te0 = np.array([float(rng.uniform(10, 22))])
        p_heat = np.array([float(rng.uniform(0, 400))])
        t_outs = sorted(rng.uniform(-15, 25, size=4))
        prev_ta, prev_te = None, None
        for t_out in t_outs:
            ta, te = ta0, te0
            for _tick in range(6):
                ta, te = m.step(ta, te, TICK, float(t_out), p_heat, 50.0, 0.0)
            if prev_ta is not None:
                assert ta[0] >= prev_ta and te[0] >= prev_te
            prev_ta, prev_te = ta[0], te[0]


# --------------------------------------------------------------------------- #
# zoom-in: exact replay, read-only
# --------------------------------------------------------------------------- #
def test_replay_byte_identical_to_recorded_trajectory():
    mw = _run_ticks(_city(), 18)        # past several checkpoints
    sur = mw.surrogate
    assert sur.switched and sur.agg_ids
    for d in sur.agg_ids:
        assert sur.last_checkpoint(d) > 0        # replay starts mid-history
        assert sur.replay(d) == sur.recorded_trajectory(d)


def test_zoom_round_trip_leaves_aggregate_state_unchanged():
    mw = _run_ticks(_city(), 14)        # last checkpoint mid-history
    sur = mw.surrogate
    d = sur.agg_ids[0]

    def snapshot():
        return (
            sur._t_air_bar.copy(), sur._t_env_bar.copy(), sur._int_bar.copy(),
            sur._u_bar.copy(), sur._sbar.copy(),
            np.asarray(mw._fused_thermal.t_air).copy(),
            np.asarray(mw._fused_thermal.t_env).copy(),
            np.asarray(mw._bank._integral).copy(),
            np.asarray(mw._bank._power_fraction).copy(),
            list(sur.agg_ids),
            {d: len(sur.heat_history(d)) for d in _ever_aggregated(sur)},
        )

    before = snapshot()
    zoom = sur.zoom_in(d)
    rooms = zoom.room_trajectory()
    assert rooms.shape[1] == sur.rooms_per_district
    # reconstructed rooms = replayed mean + frozen offsets, exactly
    agg = zoom.aggregate_trajectory()
    assert np.array_equal(rooms[-1], agg[-1][0] + sur.delta_air(d))
    after = snapshot()
    for b, a in zip(before, after):
        if isinstance(b, np.ndarray):
            assert np.array_equal(b, a)
        else:
            assert b == a


def test_materialised_district_keeps_its_aggregated_history():
    mw = _run_ticks(_city(), 10)        # switch at tick 5: 6 aggregated ticks
    sur = mw.surrogate
    d, other = sur.agg_ids[0], sur.agg_ids[-1]
    aggregated = len(sur.heat_history(other))
    assert aggregated == 6 and sur.last_checkpoint(d) == 4
    mw.submit_edge(EdgeRequest(request_id="hist-e1",
                               source=f"district-{d}/building-0",
                               cycles=1e9, deadline_s=30.0,
                               time=mw.engine.now))
    assert d in sur.live
    _run_ticks(mw, 7)
    assert len(sur.heat_history(d)) == aggregated
    assert sur.last_checkpoint(d) == 4
    assert sur.replay(d) == sur.recorded_trajectory(d)
    assert len(sur.recorded_trajectory(d)) == aggregated - 4
    # the districts still aggregated kept recording
    assert len(sur.heat_history(other)) == aggregated + 7
    assert sur.last_checkpoint(other) == 12
    assert sur.replay(other) == sur.recorded_trajectory(other)


def test_materialised_district_is_actuated_every_later_tick():
    """Once a district materialises, the smart grid actuates its servers
    like any live one: every heat-wanted live server runs at the P-state
    its bank row authorises, on every later tick."""
    mw = _run_ticks(_city(), 8)
    sur = mw.surrogate
    d = sur.agg_ids[0]
    mw.submit_edge(EdgeRequest(request_id="act-e1",
                               source=f"district-{d}/building-0",
                               cycles=1e9, deadline_s=30.0,
                               time=mw.engine.now))
    bank = mw._bank
    min_on = mw.config.regulator.min_on_fraction
    checked_in_d = 0
    for _ in range(12):
        _run_ticks(mw, 1)
        wanted = bank.heat_wanted_mask().tolist()
        pf = bank.power_fraction.tolist()
        for i, (server, district) in enumerate(mw._bank_entries):
            if district not in sur.live or not wanted[i]:
                continue
            ladder = server.spec.ladder
            assert server.freq_index == ladder.index_for_power_budget(
                max(pf[i], min_on)), (server.name, mw.engine.now)
            checked_in_d += district == d
    assert checked_in_d > 0


def _steady_tick_lines(n_districts, ticks=4):
    """Python lines executed by each of ``ticks`` steady surrogate ticks."""
    mw = small_city(kernel="surrogate", n_districts=n_districts,
                    buildings_per_district=2, rooms_per_building=3,
                    surrogate=SurrogateConfig(warmup_ticks=6,
                                              sample_districts=1))
    tick = mw.config.thermal_tick_s
    mw.run_until(mw.engine.now + 10 * tick)
    assert mw.surrogate.switched
    counts = []
    for _ in range(ticks):
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return trace

        # no collection mid-count: a finaliser of an unrelated object would
        # add its lines to this tick's
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            mw.run_until(mw.engine.now + tick)
        finally:
            sys.settrace(previous)
            if gc_was_enabled:
                gc.enable()
        counts.append(lines)
    assert not mw.surrogate.materialised
    return counts


def test_steady_surrogate_tick_runs_python_over_live_rooms_only():
    """An op count, not a timer: a steady tick executes the same Python
    lines whether 15 or 63 districts are aggregated, so nothing in it
    loops over the aggregate fleet."""
    assert _steady_tick_lines(16) == _steady_tick_lines(64)


def test_zoom_rejects_never_aggregated_district():
    mw = _run_ticks(_city(), 8)
    sample = mw.surrogate.sample_districts[0]
    with pytest.raises(ValueError, match="never aggregated"):
        mw.surrogate.zoom_in(sample)


# --------------------------------------------------------------------------- #
# materialise-on-demand + quiescing
# --------------------------------------------------------------------------- #
def test_quiesced_districts_power_off_and_reject_filler():
    mw = _run_ticks(_city(), 10)
    sur = mw.surrogate
    assert sur.switched
    masked = set()
    for d in sur.agg_ids:
        sl = sur._d_slice(d)
        for i in range(sl.start, sl.stop):
            server, _ = mw._bank_entries[i]
            assert not server.enabled and server.free_cores == 0
            masked.add(server.name)
    assert masked
    assert masked.isdisjoint(s.name for s in mw.smartgrid.heat_wanted_servers())


def test_edge_request_materialises_district():
    mw = _run_ticks(_city(), 8)
    sur = mw.surrogate
    d = sur.agg_ids[0]
    mw.submit_edge(EdgeRequest(request_id="zoom-e1",
                               source=f"district-{d}/building-0",
                               cycles=1e9, deadline_s=30.0,
                               time=mw.engine.now))
    assert d in sur.live and d not in sur.agg_ids
    assert [m[1:] for m in sur.materialised] == [(d, "edge")]
    sl = sur._d_slice(d)
    servers = [mw._bank_entries[i][0] for i in range(sl.start, sl.stop)]
    assert any(s.enabled for s in servers)   # re-actuated immediately
    _run_ticks(mw, 4)
    assert len(mw.completed_edge()) == 1


def test_churn_fault_materialises_district():
    mw = _run_ticks(_city(), 8)
    sur = mw.surrogate
    d = sur.agg_ids[-1]
    FaultInjector(mw).crash_server(f"district-{d}/building-0/qrad-0")
    assert d in sur.live
    assert [m[1:] for m in sur.materialised] == [(d, "churn")]
    _run_ticks(mw, 4)                        # keeps running after the crash


def test_slo_drift_materialises_district():
    mw = _run_ticks(_city(), 8)
    sur = mw.surrogate
    d = sur.agg_ids[0]
    rooms = [r.name for r in mw.buildings[f"district-{d}/building-0"].rooms]
    mw.submit_heating(HeatingRequest(request_id="h1", rooms=rooms,
                                     target_temp_c=28.0, time=mw.engine.now))
    _run_ticks(mw, 2)                        # the SLO check runs on the tick
    assert d in sur.live
    assert any(m[1] == d and m[2] == "slo" for m in sur.materialised)


# --------------------------------------------------------------------------- #
# determinism + stream isolation
# --------------------------------------------------------------------------- #
def test_calibration_stream_is_isolated():
    """Enabling the surrogate must not perturb any other stream: the warm-up
    sample draw comes from the dedicated ``surrogate-calibration`` stream,
    whose existence is invisible to every other name's state."""
    vec = small_city(kernel="vector", seed=77)
    sur = small_city(kernel="surrogate", seed=77, surrogate=SUR)
    vec_states = vec.rngs.stream_states()
    sur_states = sur.rngs.stream_states()
    assert "surrogate-calibration" in sur_states
    assert "surrogate-calibration" not in vec_states
    del sur_states["surrogate-calibration"]
    assert sur_states == vec_states


def test_surrogate_rerun_is_byte_identical():
    def run():
        mw = _run_ticks(_city(), 16)
        sur = mw.surrogate
        c = mw.comfort.result()
        return (
            np.asarray(mw._fused_thermal.t_air).tobytes(),
            np.asarray(mw._bank.power_fraction).tobytes(),
            mw.fleet_energy_j(), sur.modeled_energy_j,
            (c.hours_tracked, c.time_in_band, c.rmse_c, c.mean_temp_c),
            sur.sample_districts, list(sur.agg_ids), sur.materialised,
            {d: sur.heat_history(d) for d in _ever_aggregated(sur)},
        )

    assert run() == run()


def test_modeled_energy_enters_fleet_total():
    mw = _run_ticks(_city(), 14)
    sur = mw.surrogate
    assert sur.modeled_energy_j > 0
    servers = mw.all_servers
    for s in servers:
        s.sync()
    metered = sum(s.energy_j for s in servers)
    assert mw.fleet_energy_j() == metered + sur.modeled_energy_j


# --------------------------------------------------------------------------- #
# error-budget monitor (orchestration-plane observability)
# --------------------------------------------------------------------------- #
def test_budget_status_is_json_ready_and_tracks_drift():
    import json

    mw = _run_ticks(_city(), 16)
    sur = mw.surrogate
    status = sur.budget_status()
    json.loads(json.dumps(status, sort_keys=True))
    assert status["switched"] is True
    assert status["aggregated_districts"] == len(sur.agg_ids) >= 1
    assert status["sample_districts"] == list(sur.sample_districts)
    assert status["modeled_energy_j"] > 0
    assert 0.0 <= status["last_drift_c"] <= status["max_drift_c"]
    tol = budget.DISTRICT_MEAN_TEMP_TOL_C
    assert status["drift_budget_share"] == round(status["max_drift_c"] / tol, 4)
    assert status["budget"] == {
        "district_mean_temp_tol_c": budget.DISTRICT_MEAN_TEMP_TOL_C,
        "comfort_violation_rate_tol": budget.COMFORT_VIOLATION_RATE_TOL,
        "fleet_energy_rel_tol": budget.FLEET_ENERGY_REL_TOL,
    }
    # drift tracking costs nothing: this run had observability fully off
    assert not mw.obs.active


def test_drift_records_and_gauges_under_tracing():
    from repro import obs as O

    tracer = O.Tracer()
    registry = O.MetricsRegistry()
    with O.obs_session(O.Observability(tracer=tracer, registry=registry)):
        mw = _run_ticks(_city(), 16)
    drifts = [r for r in tracer.iter_records() if r.name == "surrogate.drift"]
    assert drifts, "no surrogate.drift records at checkpoint cadence"
    for r in drifts:
        assert r.kind == "surrogate"
        assert r.args["budget_c"] == budget.DISTRICT_MEAN_TEMP_TOL_C
        assert r.args["max_drift_c"] >= 0.0
        assert r.args["aggregated"] >= 1
        assert r.args["live"] >= len(mw.surrogate.sample_districts)
    assert registry.gauge("surrogate_drift_c").snapshot() >= 0.0
    assert registry.gauge("surrogate_aggregated_districts").snapshot() >= 1


def test_materialize_and_zoom_records_and_counters():
    from repro import obs as O

    tracer = O.Tracer()
    registry = O.MetricsRegistry()
    with O.obs_session(O.Observability(tracer=tracer, registry=registry)):
        mw = _run_ticks(_city(), 8)
        sur = mw.surrogate
        crashed = sur.agg_ids[-1]
        FaultInjector(mw).crash_server(f"district-{crashed}/building-0/qrad-0")
        zoomed = sur.agg_ids[0]
        sur.zoom_in(zoomed)

    mats = [r for r in tracer.iter_records()
            if r.name == "surrogate.materialize"]
    assert [(r.args["district"], r.args["reason"]) for r in mats] == \
        [(crashed, "churn")]
    zooms = [r for r in tracer.iter_records() if r.name == "surrogate.zoom"]
    assert [(r.args["district"], r.args["zooms"]) for r in zooms] == \
        [(zoomed, 1)]
    assert registry.counter("surrogate_materializations").snapshot() == 1.0
    assert registry.counter("surrogate_zooms").snapshot() == 1.0
    assert sur.budget_status()["materializations"] == 1
    assert sur.budget_status()["zooms"] == 1


def test_budget_instrumentation_does_not_perturb_results():
    """The monitor reads state, never feeds back: a traced surrogate run is
    byte-identical to the obs-off run of the same city."""
    from repro import obs as O

    def signature(mw):
        return (np.asarray(mw._fused_thermal.t_air).tobytes(),
                mw.fleet_energy_j(), mw.surrogate.modeled_energy_j,
                list(mw.surrogate.agg_ids), mw.surrogate.materialised)

    plain = signature(_run_ticks(_city(), 16))
    with O.obs_session(O.Observability(tracer=O.Tracer(),
                                       registry=O.MetricsRegistry())):
        traced = signature(_run_ticks(_city(), 16))
    assert traced == plain
