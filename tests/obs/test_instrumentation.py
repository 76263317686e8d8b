"""End-to-end observability: a fully instrumented city produces the request,
regulator and fault record kinds (and no per-callback engine records), a
non-empty metrics snapshot, and — crucially — does not perturb the
simulation it observes."""

import hashlib
import json

import pytest

from repro import obs as O
from repro.core.faults import FaultInjector
from repro.core.requests import CloudRequest, EdgeRequest, reset_ids
from repro.experiments import f3_three_flows
from repro.experiments.common import small_city
from repro.obs import to_chrome_trace
from repro.sim.calendar import DAY


def full_obs():
    return O.Observability(tracer=O.Tracer(), registry=O.MetricsRegistry(),
                           profiler=O.Profiler())


def run_city(obs=None):
    """A short mixed run with both compute flows and one fault."""
    mw = small_city(obs=obs, seed=3)
    faults = FaultInjector(mw)
    for i in range(20):
        mw.inject([EdgeRequest(cycles=2e9, time=60.0 * i,
                               source="district-0/building-0")])
        mw.inject([CloudRequest(cycles=5e9, time=90.0 * i)])
    victim = mw.clusters[0].workers[0].name
    mw.engine.schedule_at(600.0, lambda: faults.crash_server(victim))
    mw.engine.schedule_at(1800.0, lambda: faults.recover_server(victim))
    mw.run_until(0.5 * DAY)
    return mw


def test_all_four_record_kinds_present():
    obs = full_obs()
    run_city(obs=obs)
    kinds = obs.tracer.counts_by_kind()
    assert {"request", "regulator", "fault"} <= set(kinds)
    assert "engine" not in kinds
    names = {r.name for r in obs.tracer.records}
    # request lifecycle
    assert {"edge.received", "edge.admitted", "edge.scheduled",
            "edge.completed", "cloud.admitted"} <= names
    # regulator actions and fault injections
    assert "regulator.heat_on" in names or "regulator.heat_off" in names
    assert {"fault.server_crash", "fault.server_recover"} <= names
    assert "engine.dispatch" not in names


#: sha256 of ``run_city``'s JSONL trace as the engine wrote it when it still
#: emitted one ``engine.dispatch`` record per callback, with those records
#: dropped: every other record keeps its bytes, span ids and order (the
#: scalar and vector kernels write the same trace; the surrogate adds its own)
RUN_CITY_TRACE_SHA256 = \
    "4ef97c397c8700e9158f8bb83dbfc81660d1ce22ccfad1d4d86834ec2d2dcd7f"


def test_trace_equals_the_pinned_trace_without_engine_records(tmp_path,
                                                              monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    reset_ids()
    obs = O.Observability(tracer=O.Tracer())
    run_city(obs=obs)
    data = obs.tracer.write_jsonl(tmp_path / "t.jsonl").read_bytes()
    assert len(data.splitlines()) == 318
    assert hashlib.sha256(data).hexdigest() == RUN_CITY_TRACE_SHA256


def test_metrics_snapshot_nonempty_and_consistent():
    obs = full_obs()
    mw = run_city(obs=obs)
    snap = obs.registry.snapshot()
    assert snap  # non-empty
    completed = sum(v for k, v in snap.items()
                    if k.startswith("requests_completed{") and "flow=edge" in k)
    assert completed == len(mw.completed_edge())
    assert snap["fault_events{type=server_crash}"] == 1
    hist = next(v for k, v in snap.items() if k.startswith("service_time_s"))
    assert hist["count"] > 0 and hist["p95"] >= hist["p50"]


def test_profiler_sees_middleware_tick():
    obs = full_obs()
    run_city(obs=obs)
    assert "process:df3-tick" in obs.profiler.stats()
    assert obs.profiler.total_calls > 0


def test_instrumentation_does_not_perturb_results():
    plain = run_city()
    instrumented = run_city(obs=full_obs())
    assert len(plain.completed_edge()) == len(instrumented.completed_edge())
    assert [r.completed_at for r in plain.completed_edge()] == \
        [r.completed_at for r in instrumented.completed_edge()]
    assert plain.fleet_energy_j() == instrumented.fleet_energy_j()
    assert plain.engine.events_executed == instrumented.engine.events_executed


def test_experiment_data_identical_with_and_without_obs():
    r_plain = f3_three_flows.run(duration_days=0.1, seed=11)
    with O.obs_session(full_obs()) as obs:
        r_obs = f3_three_flows.run(duration_days=0.1, seed=11)
    assert r_plain.data == r_obs.data
    assert r_plain.text == r_obs.text
    assert len(obs.tracer) > 0  # but the trace did observe the run


def test_obs_session_restores_previous_bundle():
    before = O.get_obs()
    with O.obs_session(full_obs()) as obs:
        assert O.get_obs() is obs
    assert O.get_obs() is before
    with pytest.raises(RuntimeError):  # restored on exceptions too
        with O.obs_session(full_obs()):
            raise RuntimeError("boom")
    assert O.get_obs() is before


def test_real_run_chrome_trace_is_schema_valid(tmp_path):
    obs = full_obs()
    run_city(obs=obs)
    path = obs.tracer.write_chrome_trace(tmp_path / "c.json")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert len(events) > 100
    for ev in events:
        assert ev["ph"] in ("X", "i", "M")
        if ev["ph"] == "M":
            assert ev["name"] == "thread_name"
        else:
            assert "ts" in ev and "pid" in ev and "tid" in ev
    # spans exist (completed requests carry their service time)
    assert any(ev["ph"] == "X" for ev in events)
    # validated against a re-parse of the chrome exporter, not by hand
    assert to_chrome_trace(obs.tracer.records)["traceEvents"][0] == events[0]
