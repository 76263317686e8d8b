"""Step-wise runs are byte-identical to batch runs (DESIGN.md §2.15).

The service layer's whole value rests on one guarantee: driving the engine
in slices — pausing, resuming, stepping, injecting commands at exact
simulated times — produces the *same bytes* as the straight-through batch
run.  These tests pin that guarantee at three levels: the raw engine
(``step_until`` / ``iter_run``), whole experiments (F3, one A6 churn cell),
and the service API itself (injection / mutation through a DigitalTwin vs
the equivalent scripted run).
"""

import pytest

from repro.core.faults import FaultInjector
from repro.core.requests import EdgeRequest, reset_ids
from repro.experiments import a6_churn, f3_three_flows
from repro.obs import Observability
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import RingTracer
from repro.service import (
    DigitalTwin,
    ScenarioConfig,
    TwinConfig,
    build_scenario,
    drain,
)
from repro.sim.calendar import DAY, HOUR


@pytest.fixture(autouse=True)
def _fresh_request_ids():
    reset_ids()
    yield


def _result_fingerprint(result):
    """Exact bytes of an ExperimentResult: rendered text + repr'd floats."""
    return result.text + "\n" + repr(sorted(result.data.items()))


# ---------------------------------------------------------------------- #
# experiment level: F3 and one A6 churn cell
# ---------------------------------------------------------------------- #
def test_f3_step_until_slices_match_batch():
    reset_ids()
    batch = f3_three_flows.run()

    reset_ids()
    mw, t0, t1, workloads = f3_three_flows.build()
    end = t1 + 0.2 * DAY
    # odd max_events so slice boundaries land mid-burst, not on round numbers
    while mw.engine.step_until(end, max_events=997) == 997:
        pass
    sliced = f3_three_flows.finish(mw, workloads)

    assert _result_fingerprint(sliced) == _result_fingerprint(batch)


def test_f3_iter_run_generator_matches_batch():
    reset_ids()
    batch = f3_three_flows.run()

    reset_ids()
    mw, t0, t1, workloads = f3_three_flows.build()
    ticks = 0
    for now, executed in mw.engine.iter_run(t1 + 0.2 * DAY, max_events=1009):
        ticks += 1
    assert ticks > 1, "horizon reached in one slice — not a step-wise test"
    stepped = f3_three_flows.finish(mw, workloads)

    assert _result_fingerprint(stepped) == _result_fingerprint(batch)


def test_f3_pause_resume_time_slices_match_batch():
    reset_ids()
    batch = f3_three_flows.run()

    reset_ids()
    mw, t0, t1, workloads = f3_three_flows.build()
    end = t1 + 0.2 * DAY
    # pause/resume every 37 simulated minutes (a boundary that never aligns
    # with thermal ticks or workload bursts)
    t = t0
    while t < end:
        t = min(t + 37 * 60.0, end)
        mw.run_until(t)
    paused = f3_three_flows.finish(mw, workloads)

    assert _result_fingerprint(paused) == _result_fingerprint(batch)


def test_a6_churn_cell_sliced_matches_batch():
    # a representative resilience cell: stochastic churn, retry recovery
    mtbf_s = 8 * 3600.0
    recovery = a6_churn.BUNDLES["retry"]

    reset_ids()
    straight = a6_churn._run_cell(101, mtbf_s, recovery)

    reset_ids()
    mw, t0, edge, cloud = a6_churn._build_cell(101, mtbf_s, recovery)
    end = t0 + DAY + 2 * HOUR
    t = t0
    while t < end:
        t = min(t + 53 * 60.0, end)  # 53-minute pause/resume slices
        mw.run_until(t)
    sliced = a6_churn._finish_cell(mw, edge, cloud)

    assert repr(sorted(straight.items())) == repr(sorted(sliced.items()))


# ---------------------------------------------------------------------- #
# service level: twin commands vs the equivalent scripted run
# ---------------------------------------------------------------------- #
def _outcome(mw, probe_req):
    """Byte-comparable end state of a served/scripted city."""
    return {
        "energy_j": mw.fleet_energy_j(),
        "edge_completed": sorted(r.request_id for r in mw.completed_edge()),
        "edge_expired": sorted(r.request_id for r in mw.expired_edge()),
        "cloud_completed": sorted(r.request_id for r in mw.completed_cloud()),
        "probe": None if probe_req is None else (
            probe_req.status.value, probe_req.completed_at,
            probe_req.executed_on),
        "events": mw.engine.events_executed,
    }


def _obs():
    return Observability(tracer=RingTracer(capacity=65536),
                         registry=MetricsRegistry())


SCEN = ScenarioConfig(duration_days=0.15, tail_days=0.05)


def _mutate(mw, district):
    """The scripted twin-equivalent mutation: hard district kill."""
    inj = FaultInjector(mw)
    inj.fail_master(district)
    for server in mw.clusters[district].workers:
        if not server.failed:
            inj.crash_server(server.name, hard=True)


def test_service_injection_matches_scripted_run():
    t_inject = None  # resolved from the scenario below

    # --- scripted reference: plain run_until calls, no threads ---------- #
    reset_ids()
    ref = build_scenario(SCEN, obs=_obs())
    t_inject = ref.t0 + 2 * HOUR
    t_kill = ref.t0 + 3 * HOUR
    source = next(iter(ref.mw.buildings))
    ref.mw.run_until(t_inject)
    ref_req = EdgeRequest(cycles=3e8, time=t_inject, deadline_s=60.0,
                          source=source)
    ref.mw.inject([ref_req])
    ref.mw.run_until(t_kill)
    _mutate(ref.mw, 1)
    ref.mw.run_until(ref.t_end)
    expected = _outcome(ref.mw, ref_req)

    # --- served run: same operations through the DigitalTwin API ------- #
    reset_ids()
    obs = _obs()
    scenario = build_scenario(SCEN, obs=obs)
    twin = DigitalTwin(scenario, obs,
                       TwinConfig(slice_s=300.0, telemetry_every_s=1800.0,
                                  start_paused=True))
    twin_req = EdgeRequest(cycles=3e8, time=t_inject, deadline_s=60.0,
                           source=source)
    assert twin_req.request_id == ref_req.request_id
    twin.inject_request(twin_req, "edge", at=t_inject)
    twin.kill_district(1, at=t_kill)
    twin.start()
    twin.resume()
    assert twin.join(timeout=120)
    got = _outcome(twin.mw, twin_req)
    twin.stop()

    assert repr(sorted(got.items())) == repr(sorted(expected.items()))


def test_service_pause_points_do_not_change_outcome():
    # same scenario driven with different slice sizes and a mid-run pause:
    # wall-clock scheduling must never leak into simulated results
    outcomes = []
    for slice_s in (120.0, 1700.0):
        reset_ids()
        obs = _obs()
        scenario = build_scenario(SCEN, obs=obs)
        twin = DigitalTwin(scenario, obs,
                           TwinConfig(slice_s=slice_s,
                                      telemetry_every_s=3600.0,
                                      start_paused=True))
        twin.pause_at(scenario.t0 + 2 * HOUR)
        twin.start()
        twin.resume()
        # wait for the scheduled pause, then resume and finish
        import time
        end = time.monotonic() + 60
        while not twin.paused and time.monotonic() < end:
            time.sleep(0.005)
        assert twin.paused and twin.now == scenario.t0 + 2 * HOUR
        twin.resume()
        assert twin.join(timeout=120)
        outcomes.append(_outcome(twin.mw, None))
        twin.stop()

    a, b = outcomes
    a.pop("probe"), b.pop("probe")
    assert repr(sorted(a.items())) == repr(sorted(b.items()))


def test_commands_queued_during_a_publish_apply_at_that_boundary():
    """A command that arrives while the engine thread publishes telemetry
    lands at the boundary it published at, before the engine advances: an
    injection pinned to that boundary and an ``at=None`` one both apply
    there, and the run equals the scripted one that injects them there."""
    reset_ids()
    obs = _obs()
    scenario = build_scenario(SCEN, obs=obs)
    twin = DigitalTwin(scenario, obs,
                       TwinConfig(slice_s=300.0, telemetry_every_s=1800.0))
    source = next(iter(scenario.mw.buildings))
    queued = {}
    publish = twin._publish_telemetry

    def publish_then_queue(*args, **kwargs):
        publish(*args, **kwargs)
        if queued or twin.now < scenario.t0 + 2 * HOUR:
            return
        boundary = twin.now
        pinned = EdgeRequest(cycles=3e8, time=boundary, deadline_s=60.0,
                             source=source)
        queued.update(boundary=boundary, pinned=pinned)
        twin.inject_request(pinned, "edge", at=boundary)
        twin.inject_request(
            lambda now: EdgeRequest(cycles=2e8, time=now, deadline_s=60.0,
                                    source=source), "edge")

    twin._publish_telemetry = publish_then_queue
    sub = twin.bus.subscribe()
    twin.start()
    assert twin.join(timeout=120)
    twin.stop()
    got = _outcome(twin.mw, queued["pinned"])
    boundary = queued["boundary"]
    applied = [data for kind, data, _ in drain(sub, timeout=0,
                                                max_events=100_000)
               if kind == "command.applied"]
    assert [(d["label"], d["at"], d["now"]) for d in applied] == [
        ("inject:edge", None, boundary), ("inject:edge", boundary, boundary)]

    # scripted reference: the at=None command sorts first, but the pinned
    # request was built first (inside the publish)
    reset_ids()
    ref = build_scenario(SCEN, obs=_obs())
    ref.mw.run_until(boundary)
    pinned = EdgeRequest(cycles=3e8, time=boundary, deadline_s=60.0,
                         source=source)
    asap = EdgeRequest(cycles=2e8, time=boundary, deadline_s=60.0,
                       source=source)
    ref.mw.inject([asap])
    ref.mw.inject([pinned])
    ref.mw.run_until(ref.t_end)
    expected = _outcome(ref.mw, pinned)

    assert repr(sorted(got.items())) == repr(sorted(expected.items()))


def test_injection_queued_during_a_publish_applies_inside_it():
    """An injection that arrives while a publish evaluates the SLOs applies
    between chunks of that evaluation, before the publish's ``trace`` frame;
    a command that did not ask for that waits for the boundary after the
    publish.  Both apply at the publish's simulated time, and the run equals
    the scripted one that injects there."""
    from repro.service.twin import PUBLISH_CHUNK_RECORDS

    # long enough that the ring outgrows one chunk before the final publish
    scen = ScenarioConfig(duration_days=0.3, tail_days=0.05)
    reset_ids()
    obs = _obs()
    scenario = build_scenario(scen, obs=obs)
    twin = DigitalTwin(scenario, obs,
                       TwinConfig(slice_s=300.0, telemetry_every_s=1800.0))
    source = next(iter(scenario.mw.buildings))
    queued = {}
    evaluate = twin.slo_engine.evaluate

    def evaluate_after_queueing(records, tracer=None):
        if not queued and len(obs.tracer) > PUBLISH_CHUNK_RECORDS:
            queued["boundary"] = twin.now
            twin.inject_request(
                lambda now: EdgeRequest(cycles=2e8, time=now, deadline_s=60.0,
                                        source=source), "edge")
            queued["probe"] = twin.submit("probe", lambda mw: mw.engine.now)
        return evaluate(records, tracer)

    twin.slo_engine.evaluate = evaluate_after_queueing
    sub = twin.bus.subscribe()
    twin.start()
    assert twin.join(timeout=120)
    twin.stop()
    boundary = queued["boundary"]
    assert queued["probe"].result == boundary
    at_boundary = [(kind, data.get("label"))
                   for kind, data, _ in drain(sub, timeout=0,
                                              max_events=100_000)
                   if kind in ("command.applied", "trace")
                   and data["now"] == boundary]
    assert at_boundary == [("command.applied", "inject:edge"),
                           ("trace", None), ("command.applied", "probe")]

    reset_ids()
    ref = build_scenario(scen, obs=_obs())
    ref.mw.run_until(boundary)
    ref.mw.inject([EdgeRequest(cycles=2e8, time=boundary, deadline_s=60.0,
                               source=source)])
    ref.mw.run_until(ref.t_end)
    got = _outcome(twin.mw, None)
    expected = _outcome(ref.mw, None)
    assert repr(sorted(got.items())) == repr(sorted(expected.items()))
