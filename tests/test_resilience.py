"""Tests for the resilience subsystem: churn, detection, recovery (§III-C)."""

import copy
import dataclasses
import gc
import sys
import tracemalloc

import pytest

from repro.core.middleware import DF3Middleware, MiddlewareConfig
from repro.core.requests import SIDE_STATE, CloudRequest, EdgeRequest, RequestStatus
from repro.core.resilience import (
    ChurnConfig,
    DetectorConfig,
    HeartbeatFailureDetector,
    RecoveryConfig,
    ResilienceConfig,
    ResilienceLog,
)
from repro.core.scheduling.base import SaturationPolicy
from repro.hardware.server import Task
from repro.obs import span_context
from repro.sim.calendar import DAY, HOUR
from repro.sim.rng import RngRegistry

GHZ = 1e9
T0 = 10 * DAY


def make_mw(recovery=None, churn=None, detector=None, enable_churn=False,
            obs=None, **kw):
    res = ResilienceConfig(
        churn=churn if churn is not None else ChurnConfig(),
        detector=detector if detector is not None else
        DetectorConfig(heartbeat_interval_s=1.0, timeout_s=2.5),
        recovery=recovery if recovery is not None else RecoveryConfig.none(),
        enable_churn=enable_churn,
    )
    defaults = dict(n_districts=2, buildings_per_district=1, rooms_per_building=2,
                    dc_nodes=2, seed=3, start_time=T0, enable_filler=False,
                    resilience=res)
    defaults.update(kw)
    return DF3Middleware(MiddlewareConfig(**defaults), obs=obs)


def edge(t, source="district-0/building-0", deadline=30.0, cycles=0.2 * GHZ):
    return EdgeRequest(cycles=cycles, time=t, deadline_s=deadline,
                       source=source, input_bytes=2e3)


# --------------------------------------------------------------------------- #
# configuration validation
# --------------------------------------------------------------------------- #
def test_config_validation():
    with pytest.raises(ValueError):
        ChurnConfig(failure_dist="bogus")
    with pytest.raises(ValueError):
        ChurnConfig(server_mtbf_s=0.0)
    with pytest.raises(ValueError):
        ChurnConfig(weibull_shape=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(heartbeat_interval_s=1.0, timeout_s=0.5)
    with pytest.raises(ValueError):
        RecoveryConfig(retry_max_attempts=-1)
    with pytest.raises(ValueError):
        RecoveryConfig(checkpoint_interval_s=0.0)


def test_recovery_config_factories():
    none = RecoveryConfig.none()
    assert not (none.retry or none.clone or none.checkpoint
                or none.failover or none.store_and_forward)
    full = RecoveryConfig.all_on(retry_max_attempts=7)
    assert full.retry and full.clone and full.checkpoint
    assert full.failover and full.store_and_forward
    assert full.retry_max_attempts == 7


# --------------------------------------------------------------------------- #
# heartbeat failure detector
# --------------------------------------------------------------------------- #
def test_detector_latency_within_bounds():
    cfg = DetectorConfig(heartbeat_interval_s=1.0, timeout_s=3.0)
    det = HeartbeatFailureDetector(cfg, RngRegistry(1).stream("det"))
    for key in ("a", "b", "c"):
        det.register(key)
    for key in ("a", "b", "c"):
        for t_fail in (0.1, 3.7, 100.3, 777.77, 86400.5):
            t_detect = det.detection_time(key, t_fail)
            assert t_detect >= t_fail
            assert 2.0 < t_detect - t_fail <= 3.0  # (timeout - interval, timeout]


def test_detector_register_and_monitors():
    det = HeartbeatFailureDetector(DetectorConfig(), RngRegistry(1).stream("det"))
    det.register("x")
    assert det.monitors("x") and not det.monitors("y")
    with pytest.raises(ValueError):
        det.register("x")


def test_detector_deterministic_across_builds():
    def build():
        det = HeartbeatFailureDetector(
            DetectorConfig(), RngRegistry(5).stream("resilience-detector"))
        for key in sorted(("s1", "s2", "s3")):
            det.register(key)
        return [det.detection_time(k, 123.456) for k in ("s1", "s2", "s3")]

    assert build() == build()


# --------------------------------------------------------------------------- #
# resilience log
# --------------------------------------------------------------------------- #
def test_detection_latency_percentiles():
    log = ResilienceLog()
    assert log.detection_latency_percentile(99) == 0.0
    log.detection_latencies_s.extend([4.0, 1.0, 3.0, 2.0])
    assert log.detection_latency_percentile(50) == 2.0
    assert log.detection_latency_percentile(99) == 4.0
    assert log.detection_latency_percentile(100) == 4.0


# --------------------------------------------------------------------------- #
# armed machinery must not perturb a churn-free run
# --------------------------------------------------------------------------- #
def test_resilience_without_churn_is_inert():
    def signature(mw):
        reqs = [edge(T0 + 10.0 + 30.0 * i) for i in range(10)]
        mw.inject(reqs)
        mw.run_until(T0 + HOUR)
        return [(r.status.value, r.completed_at, r.executed_on) for r in reqs]

    plain = DF3Middleware(MiddlewareConfig(
        n_districts=2, buildings_per_district=1, rooms_per_building=2,
        dc_nodes=2, seed=3, start_time=T0, enable_filler=False))
    armed = make_mw(recovery=RecoveryConfig.all_on(), enable_churn=False)
    assert signature(plain) == signature(armed)


# --------------------------------------------------------------------------- #
# detection latency gates salvage (no omniscient recovery)
# --------------------------------------------------------------------------- #
def test_salvage_waits_for_detection():
    mw = make_mw(recovery=RecoveryConfig(retry=True))
    rt = mw.resilience
    req = edge(T0, deadline=120.0, cycles=50 * GHZ)
    mw.engine.run_until(T0)
    mw.schedulers[0].submit_edge(req)
    victim = req.executed_on
    mw.run_until(T0 + 5.0)

    rt.on_server_failure(victim)
    # heartbeats stop, but nothing reacts before the timeout window opens
    mw.run_until(T0 + 5.0 + 1.4)  # min latency is timeout - interval = 1.5
    assert req.executed_on == victim
    mw.run_until(T0 + 5.0 + 2.6)  # max latency is timeout = 2.5
    assert req.executed_on != victim  # salvaged through the gateway
    mw.run_until(T0 + 120.0)
    assert req.status is RequestStatus.COMPLETED
    (latency,) = rt.log.detection_latencies_s
    assert 1.5 < latency <= 2.5
    assert rt.log.tasks_salvaged == 1


# --------------------------------------------------------------------------- #
# retry with backoff bridges a short master outage
# --------------------------------------------------------------------------- #
def test_retry_bridges_master_outage():
    mw = make_mw(recovery=RecoveryConfig(retry=True))
    rt = mw.resilience
    rt.injector.fail_master(0)
    mw.engine.schedule_at(T0 + 12.0, lambda: rt.injector.restore_master(0))
    req = edge(T0 + 10.0, deadline=60.0)
    mw.inject([req])
    mw.run_until(T0 + 120.0)
    assert req.status is RequestStatus.COMPLETED
    assert mw.edge_gateways[0].retries >= 1


def test_retry_gives_up_at_the_deadline():
    mw = make_mw(recovery=RecoveryConfig(retry=True))
    mw.resilience.injector.fail_master(0)  # never restored
    req = edge(T0 + 10.0, deadline=20.0)
    mw.inject([req])
    mw.run_until(T0 + 120.0)
    assert req.status is RequestStatus.REJECTED


# --------------------------------------------------------------------------- #
# speculative cloning
# --------------------------------------------------------------------------- #
def terminal_edge_records(mw):
    out = []
    for sched in mw.schedulers.values():
        out.extend(sched.completed_edge)
        out.extend(sched.expired_edge)
    return out


def test_clone_first_completion_wins_single_terminal_record():
    mw = make_mw(recovery=RecoveryConfig(clone=True, clone_deadline_threshold_s=10.0))
    rt = mw.resilience
    req = edge(T0 + 5.0, deadline=8.0, cycles=2 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert rt.log.clones_spawned == 1
    assert req.status is RequestStatus.COMPLETED
    records = terminal_edge_records(mw)
    assert records == [req]  # exactly one record, and it is the primary
    assert not any(r.request_id.endswith("#clone") for r in records)
    # the losing copy was cancelled/discarded and its cores freed again
    for cluster in mw.clusters.values():
        for w in cluster.workers:
            assert w.free_cores == w.n_cores


def test_clone_survives_primary_crash():
    mw = make_mw(recovery=RecoveryConfig(clone=True, clone_deadline_threshold_s=10.0))
    rt = mw.resilience
    req = edge(T0 + 5.0, deadline=8.0, cycles=10 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 5.5)
    assert req.status is RequestStatus.RUNNING
    victim = req.executed_on
    assert victim.startswith("district-0/")
    rt.on_server_failure(victim)
    mw.run_until(T0 + 60.0)
    # the speculative copy won; its execution record was grafted onto req
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on.startswith("district-1/")
    assert rt.log.clone_wins == 1
    assert terminal_edge_records(mw) == [req]


def test_loose_deadline_requests_are_not_cloned():
    mw = make_mw(recovery=RecoveryConfig(clone=True, clone_deadline_threshold_s=10.0))
    req = edge(T0 + 5.0, deadline=300.0)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert req.status is RequestStatus.COMPLETED
    assert mw.resilience.log.clones_spawned == 0


# --------------------------------------------------------------------------- #
# periodic checkpointing
# --------------------------------------------------------------------------- #
def test_checkpoint_salvage_restarts_from_snapshot():
    mw = make_mw(recovery=RecoveryConfig(checkpoint=True, checkpoint_interval_s=100.0))
    rt = mw.resilience
    req = CloudRequest(cycles=1e13, time=T0, cores=4)
    mw.engine.run_until(T0)
    mw.schedulers[0].submit_cloud(req)
    mw.run_until(T0 + 350.0)
    assert rt.log.checkpoints_taken >= 2
    victim = req.executed_on
    rt.on_server_failure(victim)
    mw.run_until(T0 + 360.0)  # past detection: salvage happened
    # restarted from the last snapshot, not from scratch
    assert req.cycles < 1e13
    # waste = progress since the last checkpoint only
    executed_at_crash = 350.0 * 4 * 3.5e9
    assert 0.0 < rt.log.wasted_cycles < executed_at_crash
    mw.run_until(T0 + HOUR)
    assert req.status is RequestStatus.COMPLETED


# --------------------------------------------------------------------------- #
# master failover
# --------------------------------------------------------------------------- #
def test_failover_promotes_standby_after_detection():
    mw = make_mw(recovery=RecoveryConfig(failover=True, failover_takeover_s=5.0))
    rt = mw.resilience
    mw.run_until(T0 + 10.0)
    rt.on_master_failure(0)
    gw = mw.edge_gateways[0]
    assert gw.master_up is False
    mw.run_until(T0 + 10.0 + 1.4)  # before detection: still down
    assert gw.master_up is False
    mw.run_until(T0 + 10.0 + 2.5 + 5.0 + 0.1)
    assert gw.master_up is True
    assert rt.log.failovers == 1
    rt.on_master_recovery(0)  # original master returns: a no-op flag flip
    assert gw.master_up is True


# --------------------------------------------------------------------------- #
# store-and-forward WAN offloading
# --------------------------------------------------------------------------- #
def test_store_and_forward_buffers_and_drains():
    mw = make_mw(recovery=RecoveryConfig(store_and_forward=True),
                 saturation_policy=SaturationPolicy.VERTICAL,
                 allow_privacy_vertical=True)
    rt = mw.resilience
    mw.engine.run_until(T0)
    for w in mw.clusters[0].workers:
        for _ in range(w.n_cores):
            mw.schedulers[0].submit_cloud(
                CloudRequest(cycles=1e13, time=T0, cores=1, preemptible=False))
    rt.on_wan_down()
    req = edge(T0 + 10.0, deadline=3600.0)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert mw.offloader.sf_buffered == 1  # held during the partition
    assert req.status is not RequestStatus.COMPLETED
    rt.on_wan_up()
    mw.run_until(T0 + 600.0)
    assert mw.offloader.sf_drained == 1
    assert req.status is RequestStatus.COMPLETED


# --------------------------------------------------------------------------- #
# stochastic churn model
# --------------------------------------------------------------------------- #
def churn_city(seed=11, **churn_kw):
    cfg = dict(server_mtbf_s=1800.0, server_mttr_s=300.0,
               building_cut_rate_per_day=8.0, building_cut_duration_s=300.0,
               master_mtbf_s=1200.0, master_mttr_s=60.0,
               wan_flap_rate_per_day=12.0, wan_flap_duration_s=120.0)
    cfg.update(churn_kw)
    mw = make_mw(recovery=RecoveryConfig.all_on(), churn=ChurnConfig(**cfg),
                 enable_churn=True, seed=seed)
    reqs = [edge(T0 + 20.0 + 60.0 * i, deadline=60.0) for i in range(30)]
    mw.inject(reqs)
    mw.run_until(T0 + 6 * HOUR)
    return mw, reqs


def test_churn_drives_failures_and_repairs():
    mw, reqs = churn_city()
    log = mw.resilience.log
    assert log.server_failures > 0
    assert 0 < log.server_repairs <= log.server_failures
    assert log.master_failures > 0
    assert log.wan_flaps > 0
    for latency in log.detection_latencies_s:
        assert 1.5 < latency <= 2.5
    # churn's view of who is down matches the injector's
    assert set(mw.resilience.churn.down_servers) == mw.resilience.injector.down_servers
    for cluster in mw.clusters.values():
        for w in cluster.workers:
            assert 0 <= w.free_cores <= w.n_cores


def test_churn_is_deterministic():
    def signature():
        mw, reqs = churn_city()
        log = mw.resilience.log
        return (
            log.server_failures, log.server_repairs, log.master_failures,
            log.wan_flaps, log.wasted_cycles, tuple(log.detection_latencies_s),
            tuple((r.status.value, r.completed_at, r.executed_on) for r in reqs),
        )

    assert signature() == signature()


def test_weibull_and_aging_coupled_churn():
    mw, _ = churn_city(failure_dist="weibull", weibull_shape=0.8,
                       aging_coupling=True)
    assert mw.resilience.log.server_failures > 0


# --------------------------------------------------------------------------- #
# policy-engine configuration
# --------------------------------------------------------------------------- #
def test_policy_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(clone_cancel_on="finish")
    with pytest.raises(ValueError):
        RecoveryConfig(clone_max_utilisation=1.5)
    with pytest.raises(ValueError):
        RecoveryConfig(adaptive_eval_interval_s=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(adaptive_util_low=0.9, adaptive_util_high=0.8)
    with pytest.raises(ValueError):
        RecoveryConfig(adaptive_min_dwell_s=-1.0)
    with pytest.raises(ValueError):
        RecoveryConfig(adaptive_window=0)


def test_adaptive_factory():
    rec = RecoveryConfig.adaptive_on(clone_deadline_threshold_s=20.0)
    assert rec.adaptive and rec.retry and rec.checkpoint and rec.clone
    assert rec.clone_cancel_on == "start"
    assert rec.clone_max_utilisation < 1.0 and rec.clone_max_queue_depth >= 0
    assert rec.clone_deadline_threshold_s == 20.0


def test_waste_split_sums_into_wasted_cycles():
    log = ResilienceLog()
    assert log.wasted_cycles == 0.0
    log.clone_waste_cycles = 1.5
    log.failure_waste_cycles = 2.5
    assert log.wasted_cycles == 4.0


# --------------------------------------------------------------------------- #
# cancel-on-start cloning
# --------------------------------------------------------------------------- #
def test_cancel_on_start_zero_clone_waste():
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_cancel_on="start"))
    rt = mw.resilience
    req = edge(T0 + 5.0, deadline=8.0, cycles=2 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert req.status is RequestStatus.COMPLETED
    assert rt.log.clones_spawned == 1
    assert rt.log.policy_decisions.get("cancel_sibling") == 1
    # the sibling never burned a cycle: cancelled before it could start
    assert rt.log.clone_waste_cycles == 0.0
    assert terminal_edge_records(mw) == [req]
    for cluster in mw.clusters.values():
        for w in cluster.workers:
            assert w.free_cores == w.n_cores


def test_cancel_on_start_covers_master_outage():
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_cancel_on="start"))
    rt = mw.resilience
    rt.injector.fail_master(0)  # home path rejects; the peer copy must win
    req = edge(T0 + 5.0, deadline=8.0, cycles=2 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on.startswith("district-1/")
    assert rt.log.clone_wins == 1
    assert terminal_edge_records(mw) == [req]


def test_cancel_on_start_starter_crash_single_terminal_record():
    # the discipline's known trade-off: once the sibling is cancelled, a
    # crash of the starter loses the request (unless retry is also armed) —
    # but it must lose it exactly once
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_cancel_on="start"))
    rt = mw.resilience
    req = edge(T0 + 5.0, deadline=8.0, cycles=10 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 5.5)
    assert req.status is RequestStatus.RUNNING
    rt.on_server_failure(req.executed_on)
    mw.run_until(T0 + 60.0)
    assert req.status is RequestStatus.REJECTED
    records = terminal_edge_records(mw)
    assert records == [req]
    for cluster in mw.clusters.values():
        for w in cluster.workers:
            assert 0 <= w.free_cores <= w.n_cores


# --------------------------------------------------------------------------- #
# load-thresholded spawning (the PS-model gates)
# --------------------------------------------------------------------------- #
def saturate_district(mw, district):
    """Fill every core of one district with paying (cloud) work."""
    mw.engine.run_until(T0)
    for w in mw.clusters[district].workers:
        for _ in range(w.n_cores):
            mw.schedulers[district].submit_cloud(
                CloudRequest(cycles=1e14, time=T0, cores=1, preemptible=False))


def test_clone_skipped_when_peer_saturated():
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_max_utilisation=0.9))
    rt = mw.resilience
    saturate_district(mw, 1)  # the peer has nothing to absorb a copy with
    req = edge(T0 + 5.0, deadline=8.0)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert rt.log.clones_spawned == 0
    assert rt.log.policy_decisions.get("skip_clone") == 1
    assert req.status is RequestStatus.COMPLETED  # single-copy path served it


def test_clone_skipped_when_peer_queue_deep():
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_max_queue_depth=0),
                 saturation_policy=SaturationPolicy.QUEUE)
    rt = mw.resilience
    saturate_district(mw, 1)
    backlog = [edge(T0 + 1.0 + 0.01 * i, source="district-1/building-0",
                    deadline=300.0) for i in range(3)]
    mw.inject(backlog)  # deadline 300 > threshold: queue at the peer, no clones
    req = edge(T0 + 5.0, deadline=8.0)
    mw.inject([req])
    mw.run_until(T0 + 6.0)
    assert rt.log.clones_spawned == 0
    assert rt.log.policy_decisions.get("skip_clone") == 1


def test_loaded_home_district_still_clones():
    # the gates look at the clone's target, not the request's home: a loaded
    # home is exactly when racing an idle peer rescues the request
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_max_utilisation=0.9,
                                         clone_max_queue_depth=4),
                 saturation_policy=SaturationPolicy.QUEUE)
    rt = mw.resilience
    saturate_district(mw, 0)
    req = edge(T0 + 5.0, deadline=8.0)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    assert rt.log.clones_spawned == 1
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on.startswith("district-1/")


def test_paying_load_excludes_filler():
    mw = make_mw(enable_filler=True)
    mw.run_until(T0 + 10 * 60.0)
    rt = mw.resilience
    busy, total = rt.paying_load(0)
    assert total == sum(w.n_cores for w in mw.clusters[0].workers)
    assert busy == 0  # filler keeps cores warm but is not paying load
    assert mw.clusters[0].free_cores() < total  # ...though cores *look* busy


def _lines_executed(fn) -> int:
    """Python lines executed by ``fn()`` (an op count, not a timer)."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return trace

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if gc_was_enabled:
            gc.enable()
    return lines


def test_paying_load_cost_does_not_grow_with_running_tasks():
    """Clone gating reads each server's maintained paying-core counter: one
    paying_load call executes the same lines with 1 and with 4 running
    tasks per server."""
    mw = make_mw(kernel="vector", enable_filler=True)
    rt = mw.resilience

    def load_per_server(n):
        for w in mw.clusters[0].workers:
            for _ in range(n - len(w.running_tasks)):
                kind = "filler" if len(w.running_tasks) % 2 else "cloud"
                assert w.submit(Task(f"{w.name}/t{len(w.running_tasks)}",
                                     work_cycles=1e15, metadata={"kind": kind}))
        return _lines_executed(lambda: rt.paying_load(0))

    one = load_per_server(1)
    four = load_per_server(4)
    assert one == four
    busy, _total = rt.paying_load(0)
    assert busy == 2 * len(mw.clusters[0].workers)   # filler does not pay


def test_clone_is_a_shallow_copy_of_the_request():
    """The clone carries the primary's instance dict, extras included, as
    copy.copy would make it; only its id differs."""
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0))
    submitted = []
    for gw in mw.edge_gateways.values():
        gw.submit = submitted.append
    req = edge(T0, deadline=8.0)
    req.__dict__["_retry_attempts"] = 2
    req.__dict__["_return_delay_s"] = 0.25
    span_context(req)
    mw.resilience.submit_cloned(req, 0, 1)
    primary, clone = submitted
    assert primary is req and type(clone) is type(req)
    expected = vars(copy.copy(req))
    got = vars(clone)
    assert got.keys() == expected.keys()
    assert got.pop("request_id") == f"{expected.pop('request_id')}#clone"
    assert all(got[k] is expected[k] for k in expected)
    assert {"_retry_attempts", "_return_delay_s", "_clone_group"} <= got.keys()


def test_requests_keep_their_declared_layout_through_recovery():
    """Clone, retry and checkpoint under churn add no instance keys, so the
    run keeps each request at the size it was built with (DESIGN.md §2.16).

    On CPython 3.11 this run retains ~1,130 B per injected request (its
    primary, its clone and their group) against ~430 B as built (2.6×); with
    the side state kept as ad-hoc ``__dict__`` keys it retained ~1,765 B
    against ~393 B (4.5×).  The bound is relative to the as-built size, so it
    carries over to interpreters whose object layouts differ (3.10 builds a
    dict for every instance, 3.11/3.12 keep inline values).
    """
    mw = make_mw(recovery=RecoveryConfig.all_on(clone_deadline_threshold_s=120.0,
                                                checkpoint_interval_s=60.0),
                 churn=ChurnConfig(server_mtbf_s=1800.0, server_mttr_s=300.0,
                                   building_cut_rate_per_day=8.0,
                                   building_cut_duration_s=300.0,
                                   master_mtbf_s=1200.0, master_mttr_s=60.0,
                                   wan_flap_rate_per_day=12.0,
                                   wan_flap_duration_s=120.0),
                 enable_churn=True, seed=11)
    gc.collect()
    # a line tracer (coverage) would allocate inside the window for every
    # line it sees first; only the run's own allocations are measured
    previous_trace = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        edges = [EdgeRequest(cycles=0.2 * GHZ, time=T0 + 20.0 + 30.0 * i,
                             deadline_s=60.0,
                             source=f"district-{i % 2}/building-0",
                             input_bytes=2e3, output_bytes=1e3)
                 for i in range(300)]
        clouds = [CloudRequest(cycles=5e11, time=T0 + 60.0 + 600.0 * i,
                               cores=2, output_bytes=1e4)
                  for i in range(15)]
        built = tracemalloc.get_traced_memory()[0] - base
        mw.inject(edges)
        mw.inject(clouds)
        mw.run_until(T0 + 6 * HOUR)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        sys.settrace(previous_trace)
    log = mw.resilience.log
    assert log.server_failures > 0 and log.clones_spawned == len(edges)
    assert log.checkpoints_taken > 0
    assert sum(gw.retries for gw in mw.edge_gateways.values()) > 0
    n = len(edges) + len(clouds)
    assert retained / n < 3.5 * (built / n)
    # read the instance dicts only now: reading one builds it
    groups = [getattr(r, "_clone_group", None) for r in edges]
    everyone = edges + clouds + [g.clone for g in groups if g is not None]
    for r in everyone:
        declared = {f.name for f in dataclasses.fields(r)} | set(SIDE_STATE)
        assert vars(r).keys() == declared, r.request_id


# --------------------------------------------------------------------------- #
# adaptive policy controller
# --------------------------------------------------------------------------- #
def test_controller_only_built_when_adaptive():
    assert make_mw(recovery=RecoveryConfig.all_on()).resilience.policy is None
    mw = make_mw(recovery=RecoveryConfig.adaptive_on())
    ctl = mw.resilience.policy
    assert ctl is not None
    assert ctl.assignment == {"edge_tight": "clone", "edge_loose": "retry",
                              "cloud": "checkpoint"}


def test_controller_hysteresis_band():
    mw = make_mw(recovery=RecoveryConfig.adaptive_on(
        adaptive_window=1, adaptive_min_dwell_s=0.0,
        adaptive_util_high=0.9, adaptive_util_low=0.6))
    ctl = mw.resilience.policy
    ctl.note_tight_deadline(2.0)  # too tight for retry to bridge a crash
    ctl.city_utilisation = lambda: 0.95
    ctl._evaluate(T0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"  # shed under overload
    ctl.city_utilisation = lambda: 0.75
    ctl._evaluate(T0 + 60.0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"  # inside the band: hold
    ctl.city_utilisation = lambda: 0.5
    ctl._evaluate(T0 + 120.0, 60.0)
    assert ctl.assignment["edge_tight"] == "clone"  # slack again: rearm
    assert ctl.switches == 2
    assert mw.resilience.log.policy_decisions["switch_edge_tight"] == 2


def test_controller_switch_emits_plain_trace_record():
    # a switch while tracing is active must emit a *root* policy record
    # (no ctx: nothing request-scoped to parent into)
    from repro import obs as O

    obs = O.Observability(tracer=O.Tracer())
    mw = make_mw(recovery=RecoveryConfig.adaptive_on(
        adaptive_window=1, adaptive_min_dwell_s=0.0), obs=obs)
    ctl = mw.resilience.policy
    ctl.note_tight_deadline(2.0)
    ctl.city_utilisation = lambda: 0.99
    ctl._evaluate(T0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"
    recs = [r for r in obs.tracer.records
            if r.kind == "policy" and r.name == "policy.decision"
            and r.args.get("action") == "switch_edge_tight"]
    assert len(recs) == 1
    assert recs[0].parent_id is None
    assert recs[0].args["reason"] == "overload"


def test_controller_min_dwell_suppresses_flapping():
    mw = make_mw(recovery=RecoveryConfig.adaptive_on(
        adaptive_window=1, adaptive_min_dwell_s=1e9))
    ctl = mw.resilience.policy
    ctl.note_tight_deadline(2.0)
    ctl.city_utilisation = lambda: 0.99
    ctl._evaluate(T0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"
    ctl.city_utilisation = lambda: 0.1
    ctl._evaluate(T0 + 60.0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"  # dwell pins the choice
    assert ctl.switches == 1


def test_controller_retry_bridges_rule():
    mw = make_mw(recovery=RecoveryConfig.adaptive_on(
        adaptive_window=1, adaptive_min_dwell_s=0.0))
    ctl = mw.resilience.policy
    # before any failure, the analytic prior stands in: p99 = timeout = 2.5 s
    assert ctl.detection_p99_s() == 2.5
    # loose tight-class deadlines: detect (2.5) + backoff (0.5) fits 60 s,
    # so retry covers crashes and the speculation tax is not worth paying
    ctl.note_tight_deadline(60.0)
    assert ctl.retry_can_bridge()
    ctl.city_utilisation = lambda: 0.1
    ctl._evaluate(T0, 60.0)
    assert ctl.assignment["edge_tight"] == "retry"
    # a genuinely tight deadline flips the feasibility check back
    ctl.note_tight_deadline(2.0)
    assert not ctl.retry_can_bridge()
    ctl._evaluate(T0 + 60.0, 60.0)
    assert ctl.assignment["edge_tight"] == "clone"


def test_adaptive_churn_run_is_deterministic():
    def signature():
        cfg = dict(server_mtbf_s=1800.0, server_mttr_s=300.0,
                   master_mtbf_s=1200.0, master_mttr_s=60.0,
                   wan_flap_rate_per_day=12.0, wan_flap_duration_s=120.0)
        mw = make_mw(recovery=RecoveryConfig.adaptive_on(
                         adaptive_eval_interval_s=60.0),
                     churn=ChurnConfig(**cfg), enable_churn=True, seed=11)
        reqs = [edge(T0 + 20.0 + 60.0 * i, deadline=60.0) for i in range(30)]
        mw.inject(reqs)
        mw.run_until(T0 + 6 * HOUR)
        log = mw.resilience.log
        return (
            log.server_failures, log.clones_spawned, log.clone_wins,
            log.clone_waste_cycles, log.failure_waste_cycles,
            tuple(sorted(log.policy_decisions.items())),
            mw.resilience.policy.switches,
            tuple((r.status.value, r.completed_at, r.executed_on) for r in reqs),
        )

    assert signature() == signature()


# --------------------------------------------------------------------------- #
# decision provenance: spans in request trees, counters in the twin
# --------------------------------------------------------------------------- #
def test_policy_decision_spans_linked_into_request_tree():
    from repro import obs as O

    obs = O.Observability(tracer=O.Tracer())
    mw = make_mw(recovery=RecoveryConfig(clone=True,
                                         clone_deadline_threshold_s=10.0,
                                         clone_cancel_on="start"),
                 obs=obs)
    req = edge(T0 + 5.0, deadline=8.0, cycles=2 * GHZ)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    decisions = [r for r in obs.tracer.records if r.kind == "policy"]
    assert {r.args["action"] for r in decisions} == {"spawn_clone",
                                                     "cancel_sibling"}
    # the decision spans live in the request's causal tree, parented into
    # the chain — not floating point events
    (tid,) = {r.trace_id for r in decisions}
    assert tid is not None
    assert all(r.parent_id is not None for r in decisions)
    names = {r.name for r in obs.tracer.records if r.trace_id == tid}
    assert "policy.decision" in names and "edge.completed" in names


def test_status_dict_surfaces_policy_counters():
    mw = make_mw(recovery=RecoveryConfig.adaptive_on())
    # deadline 2 s: detect (2.5) + backoff (0.5) cannot bridge, so the
    # controller keeps cloning armed for the tight class
    req = edge(T0 + 5.0, deadline=2.0)
    mw.inject([req])
    mw.run_until(T0 + 60.0)
    status = mw.resilience.status_dict()
    assert status["clones_spawned"] == 1
    assert status["policy_decisions"]["spawn_clone"] == 1
    assert status["controller"]["assignment"]["edge_tight"] == "clone"
    assert status["controller"]["evals"] >= 1
    import json
    json.dumps(status)  # must be JSON-serialisable for /api/state + SSE


# --------------------------------------------------------------------------- #
# pre-engine byte-identity pin: RecoveryConfig.none() under churn
# --------------------------------------------------------------------------- #
def test_recovery_none_matches_pre_policy_engine_seed_path():
    """Pin that the policy engine changed nothing for unarmed configs.

    The signature hash below was captured on the commit *before* the policy
    engine (cancel-on-start, load gates, adaptive controller) landed.  If
    this test fails, the refactor perturbed the legacy no-recovery event
    stream — a determinism regression, not a golden refresh.
    """
    import hashlib

    res = ResilienceConfig(
        churn=ChurnConfig(server_mtbf_s=1800.0, server_mttr_s=300.0,
                          building_cut_rate_per_day=8.0,
                          building_cut_duration_s=300.0,
                          master_mtbf_s=1200.0, master_mttr_s=60.0,
                          wan_flap_rate_per_day=12.0, wan_flap_duration_s=120.0),
        detector=DetectorConfig(heartbeat_interval_s=1.0, timeout_s=2.5),
        recovery=RecoveryConfig.none(),
        enable_churn=True,
    )
    mw = DF3Middleware(MiddlewareConfig(
        n_districts=2, buildings_per_district=1, rooms_per_building=2,
        dc_nodes=2, seed=11, start_time=T0, enable_filler=False,
        resilience=res))
    reqs = [EdgeRequest(cycles=0.2 * GHZ, time=T0 + 20.0 + 60.0 * i,
                        deadline_s=60.0, source="district-0/building-0",
                        input_bytes=2e3)
            for i in range(30)]
    cloud = [CloudRequest(cycles=2e12, time=T0 + 120.0 + 500.0 * i, cores=2)
             for i in range(4)]
    mw.inject(reqs)
    mw.inject(cloud)
    mw.run_until(T0 + 6 * HOUR)
    log = mw.resilience.log
    sig = (
        log.server_failures, log.server_repairs, log.master_failures,
        log.wan_flaps, round(log.wasted_cycles, 6),
        tuple(round(x, 9) for x in log.detection_latencies_s),
        tuple((r.status.value, round(r.completed_at, 9), r.executed_on)
              for r in reqs + cloud),
        mw.engine.events_executed,
    )
    digest = hashlib.sha256(repr(sig).encode()).hexdigest()
    assert digest == ("39590e19dbeb5f5733b06ad2e571617f"
                      "001e6ba7be17246ee265db4573fe5d31")
