"""Tests for fault injection and the middleware's resilience."""

import pytest

from repro import obs as O
from repro.core.faults import FaultInjector
from repro.core.middleware import DF3Middleware, MiddlewareConfig
from repro.core.requests import CloudRequest, EdgeRequest, RequestStatus
from repro.core.scheduling.base import SaturationPolicy
from repro.sim.calendar import DAY, HOUR

GHZ = 1e9
WINTER = 10 * DAY


def make_mw(**kw):
    defaults = dict(n_districts=2, buildings_per_district=1, rooms_per_building=2,
                    dc_nodes=2, seed=3, start_time=WINTER, enable_filler=False)
    defaults.update(kw)
    return DF3Middleware(MiddlewareConfig(**defaults))


def edge(t, source="district-0/building-0", deadline=30.0):
    return EdgeRequest(cycles=0.2 * GHZ, time=t, deadline_s=deadline,
                       source=source, input_bytes=2e3)


# --------------------------------------------------------------------------- #
# server crash
# --------------------------------------------------------------------------- #
def test_crash_kills_and_salvages_cloud_work():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = CloudRequest(cycles=1e13, time=WINTER, cores=4)
    mw.schedulers[0].submit_cloud(req)
    victim = req.executed_on
    mw.run_until(WINTER + 60.0)
    n = fi.crash_server(victim)
    assert n == 1
    assert fi.log.tasks_killed == 1
    assert fi.log.tasks_salvaged == 1
    assert victim in fi.down_servers
    mw.run_until(WINTER + HOUR)
    # the salvaged job finished elsewhere with its progress preserved
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on != victim


def test_crash_unknown_server_raises():
    mw = make_mw()
    with pytest.raises(KeyError):
        FaultInjector(mw).crash_server("ghost")


def test_recover_restores_capacity():
    mw = make_mw()
    fi = FaultInjector(mw)
    name = mw.clusters[0].workers[0].name
    fi.crash_server(name)
    assert not mw.clusters[0].worker(name).enabled
    fi.recover_server(name)
    assert mw.clusters[0].worker(name).enabled
    assert name not in fi.down_servers
    with pytest.raises(ValueError):
        fi.recover_server(name)


def test_crashed_edge_request_resubmitted():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = EdgeRequest(cycles=5 * GHZ, time=WINTER, deadline_s=120.0,
                      source="district-0/building-0", input_bytes=2e3)
    mw.engine.run_until(WINTER)
    mw.schedulers[0].submit_edge(req)
    victim = req.executed_on
    mw.run_until(WINTER + 0.2)
    fi.crash_server(victim)
    mw.run_until(WINTER + 60.0)
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on != victim


# --------------------------------------------------------------------------- #
# master outage: the §IV decentralisation property
# --------------------------------------------------------------------------- #
def test_master_outage_rejects_indirect_but_heat_continues():
    mw = make_mw(enable_filler=True)
    fi = FaultInjector(mw)
    fi.fail_master(0)
    assert fi.master_is_down(0)
    req = edge(WINTER + 10.0)
    mw.inject([req])
    mw.run_until(WINTER + HOUR)
    assert req.status is RequestStatus.REJECTED
    # heat regulation is local: rooms still warm despite the central outage
    assert mw.comfort.result().mean_temp_c > 18.0
    assert mw.filler_completed > 0


def test_direct_requests_survive_master_outage():
    mw = make_mw()
    fi = FaultInjector(mw)
    fi.fail_master(0)
    from repro.core.requests import EdgeMode

    req = edge(WINTER + 10.0)
    req.mode = EdgeMode.DIRECT
    target = mw.clusters[0].workers[0].name
    mw.inject([req], direct_targets={req.request_id: target})
    mw.run_until(WINTER + HOUR)
    assert req.status is RequestStatus.COMPLETED


def test_other_district_unaffected_by_master_outage():
    mw = make_mw()
    fi = FaultInjector(mw)
    fi.fail_master(0)
    req = edge(WINTER + 10.0, source="district-1/building-0")
    mw.inject([req])
    mw.run_until(WINTER + HOUR)
    assert req.status is RequestStatus.COMPLETED


def test_master_restore():
    mw = make_mw()
    fi = FaultInjector(mw)
    fi.fail_master(0)
    fi.restore_master(0)
    req = edge(WINTER + 10.0)
    mw.inject([req])
    mw.run_until(WINTER + HOUR)
    assert req.status is RequestStatus.COMPLETED
    with pytest.raises(ValueError):
        fi.restore_master(0)
    fi.fail_master(0)
    with pytest.raises(ValueError):
        fi.fail_master(0)


# --------------------------------------------------------------------------- #
# WAN partition
# --------------------------------------------------------------------------- #
def test_wan_partition_blocks_vertical():
    mw = make_mw(saturation_policy=SaturationPolicy.VERTICAL,
                 allow_privacy_vertical=True)
    fi = FaultInjector(mw)
    fi.partition_wan()
    assert not mw.offloader.can_vertical(CloudRequest(cycles=GHZ, time=WINTER))
    fi.heal_wan()
    assert mw.offloader.can_vertical(CloudRequest(cycles=GHZ, time=WINTER))
    with pytest.raises(ValueError):
        fi.heal_wan()
    fi.partition_wan()
    with pytest.raises(ValueError):
        fi.partition_wan()


# --------------------------------------------------------------------------- #
# salvage semantics (regressions)
# --------------------------------------------------------------------------- #
def test_salvaged_edge_request_lifecycle_is_reset():
    # regression: salvage used to resubmit a still-RUNNING request, leaving
    # started_at/executed_on pointing at the dead server
    mw = make_mw()
    fi = FaultInjector(mw)
    req = EdgeRequest(cycles=50 * GHZ, time=WINTER, deadline_s=3600.0,
                      source="district-0/building-0", input_bytes=2e3)
    mw.engine.run_until(WINTER)
    mw.schedulers[0].submit_edge(req)
    victim = req.executed_on
    # saturate the rest of the district so the salvaged request must queue
    free = sum(w.free_cores for w in mw.clusters[0].workers)
    for _ in range(free):
        mw.schedulers[0].submit_cloud(
            CloudRequest(cycles=1e13, time=WINTER, cores=1, preemptible=False))
    mw.run_until(WINTER + 0.5)
    fi.crash_server(victim)
    assert req.status is RequestStatus.QUEUED
    assert req.executed_on == ""
    assert req.started_at == -1.0


def test_salvage_routes_through_gateway_so_master_outage_applies():
    # regression: salvage used to call the scheduler directly, bypassing a
    # concurrent master outage that rejects all other indirect traffic
    mw = make_mw()
    fi = FaultInjector(mw)
    req = EdgeRequest(cycles=5 * GHZ, time=WINTER, deadline_s=120.0,
                      source="district-0/building-0", input_bytes=2e3)
    mw.engine.run_until(WINTER)
    mw.schedulers[0].submit_edge(req)
    victim = req.executed_on
    mw.run_until(WINTER + 0.2)
    fi.fail_master(0)
    fi.crash_server(victim)
    assert req.status is RequestStatus.REJECTED
    assert req in mw.schedulers[0].expired_edge
    mw.run_until(WINTER + 60.0)
    assert req.status is RequestStatus.REJECTED  # nothing resurrects it


def test_master_outage_keeps_gateway_instrumentation():
    # regression: the outage is a first-class master_up flag, not a method
    # patch, so the gateway still counts what it rejects
    mw = make_mw()
    fi = FaultInjector(mw)
    fi.fail_master(0)
    gw = mw.edge_gateways[0]
    assert gw.master_up is False
    req = edge(WINTER + 10.0)
    mw.inject([req])
    mw.run_until(WINTER + 60.0)
    assert req.status is RequestStatus.REJECTED
    assert gw.received == 1
    fi.restore_master(0)
    assert gw.master_up is True


def test_crash_without_edge_salvage_rejects():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = EdgeRequest(cycles=5 * GHZ, time=WINTER, deadline_s=120.0,
                      source="district-0/building-0", input_bytes=2e3)
    mw.engine.run_until(WINTER)
    mw.schedulers[0].submit_edge(req)
    victim = req.executed_on
    mw.run_until(WINTER + 0.2)
    killed, district = fi.kill_server(victim, hard=True)
    fi.salvage_tasks(killed, district, salvage_edge=False)
    assert req.status is RequestStatus.REJECTED


# --------------------------------------------------------------------------- #
# kill/salvage split and progress modes
# --------------------------------------------------------------------------- #
def _run_cloud_until(mw, t):
    req = CloudRequest(cycles=1e13, time=WINTER, cores=4)
    mw.schedulers[0].submit_cloud(req)
    mw.run_until(t)
    return req


def test_salvage_restart_books_lost_progress_as_waste():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = _run_cloud_until(mw, WINTER + 100.0)
    killed, district = fi.kill_server(req.executed_on, hard=True)
    (task,) = killed
    executed = 1e13 - task.remaining_cycles
    assert executed > 0
    wasted = fi.salvage_tasks(killed, district, progress="restart")
    assert wasted == pytest.approx(executed)
    assert req.cycles == pytest.approx(1e13)  # re-runs from scratch


def test_salvage_checkpoint_restarts_from_snapshot():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = _run_cloud_until(mw, WINTER + 400.0)
    killed, district = fi.kill_server(req.executed_on, hard=True)
    (task,) = killed
    snapshot = 0.6e13  # remaining work at the last (synthetic) checkpoint
    assert task.remaining_cycles < snapshot
    task.metadata["ckpt_remaining"] = snapshot
    wasted = fi.salvage_tasks(killed, district, progress="checkpoint")
    assert wasted == pytest.approx(snapshot - task.remaining_cycles)
    assert req.cycles == pytest.approx(snapshot)


def test_salvage_checkpoint_without_snapshot_is_full_restart():
    mw = make_mw()
    fi = FaultInjector(mw)
    req = _run_cloud_until(mw, WINTER + 100.0)
    killed, district = fi.kill_server(req.executed_on, hard=True)
    fi.salvage_tasks(killed, district, progress="checkpoint")
    assert req.cycles == pytest.approx(1e13)


def test_salvage_rejects_unknown_progress_mode():
    mw = make_mw()
    with pytest.raises(ValueError):
        FaultInjector(mw).salvage_tasks([], 0, progress="wishful")


def test_hard_crash_is_not_resurrected_by_the_regulator():
    mw = make_mw(enable_filler=True)
    fi = FaultInjector(mw)
    name = mw.clusters[0].workers[0].name
    fi.crash_server(name, hard=True)
    mw.run_until(WINTER + 2 * HOUR)  # thermal ticks ask for heat meanwhile
    w = mw.clusters[0].worker(name)
    assert w.failed and not w.enabled
    fi.recover_server(name)
    assert mw.clusters[0].worker(name).enabled
    assert not mw.clusters[0].worker(name).failed


def test_crash_of_filler_loaded_server_counts_chunks_under_both_kernels():
    """The vector kernel's filler block is killed as the chunks it stands
    for: return value, log, note text and trace argument match the scalar
    kernel's chunk-by-chunk filler."""
    seen = {}
    for kernel in ("scalar", "vector"):
        obs = O.Observability(tracer=O.Tracer())
        mw = DF3Middleware(MiddlewareConfig(
            n_districts=2, buildings_per_district=1, rooms_per_building=2,
            dc_nodes=2, seed=3, start_time=WINTER, kernel=kernel), obs=obs)
        mw.run_until(WINTER + HOUR)     # winter ticks fill idle cores
        victim = mw.clusters[0].workers[0]
        busy = victim.busy_cores
        assert busy > 1 and all(t.metadata["kind"] == "filler"
                                for t in victim.running_tasks)
        fi = FaultInjector(mw)
        n = fi.crash_server(victim.name)
        crash = next(r for r in obs.tracer.records
                     if r.name == "fault.server_crash")
        seen[kernel] = (n, fi.log.tasks_killed, fi.log.events[-1],
                        crash.args["tasks_killed"])
        assert seen[kernel][:2] == (busy, busy)
    assert seen["vector"] == seen["scalar"]


# --------------------------------------------------------------------------- #
# WAN partition
# --------------------------------------------------------------------------- #
def test_partitioned_city_falls_back_to_queue():
    mw = make_mw(saturation_policy=SaturationPolicy.VERTICAL,
                 allow_privacy_vertical=True)
    fi = FaultInjector(mw)
    # saturate district 0
    for w in mw.clusters[0].workers:
        for c in range(w.n_cores):
            mw.schedulers[0].submit_cloud(
                CloudRequest(cycles=1e12, time=WINTER, cores=1, preemptible=False)
            )
    fi.partition_wan()
    req = edge(WINTER + 10.0, deadline=3600.0)
    mw.inject([req])
    mw.run_until(WINTER + 2 * HOUR)
    # no WAN → queued locally, served when the blockers finish
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on.startswith("district-0/")
