"""Tests for gateways and the automated decision system."""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.decision import Decision, DecisionConfig, DecisionSystem
from repro.core.gateway import DCCGateway, EdgeGateway
from repro.core.offloading import Offloader
from repro.core.requests import CloudRequest, EdgeMode, EdgeRequest, RequestStatus
from repro.core.scheduling.base import SaturationPolicy
from repro.core.scheduling.shared import SharedWorkersScheduler
from repro.hardware.cpu import DVFSLadder, PState
from repro.hardware.datacenter import Datacenter
from repro.hardware.server import ComputeServer, ServerSpec, Task
from repro.network.internet import WANLink, WANProfile
from repro.network.link import Link
from repro.network.lowpower import SIGFOX, ZIGBEE
from repro.sim.engine import Engine

GHZ = 1e9


def spec(n_cores=2):
    return ServerSpec("t", n_cores, DVFSLadder([PState(1.0, 1.0)]), 10.0, 100.0)


def make_sched(engine, cores=2, n_workers=1, **kw):
    c = Cluster(ClusterConfig(name="c0", master_overhead_s=0.002))
    for i in range(n_workers):
        c.add_worker(ComputeServer(f"w{i}", spec(cores), engine))
    return SharedWorkersScheduler(c, engine, **kw)


def edge(t=0.0, cycles=GHZ, deadline=60.0, mode=EdgeMode.INDIRECT, privacy=False):
    return EdgeRequest(cycles=cycles, time=t, deadline_s=deadline, mode=mode,
                       privacy_sensitive=privacy,
                       source="district-0/building-0", input_bytes=2e3, output_bytes=500)


# --------------------------------------------------------------------------- #
# edge gateway
# --------------------------------------------------------------------------- #
def test_indirect_request_pays_radio_and_master_overhead():
    eng = Engine()
    sched = make_sched(eng)
    gw = EdgeGateway(sched, eng, protocol=ZIGBEE)
    req = edge()
    gw.submit(req)
    assert req.status is RequestStatus.CREATED  # still in flight
    eng.run_until(100.0)
    assert req.status is RequestStatus.COMPLETED
    # network delay includes radio + master overhead
    assert req.network_delay_s > 0.015
    assert req.response_time() > 1.0  # 1 s compute at 1 GHz + delays


def test_direct_request_skips_master():
    eng = Engine()
    sched = make_sched(eng)
    gw = EdgeGateway(sched, eng, protocol=ZIGBEE)
    direct = edge(mode=EdgeMode.DIRECT)
    indirect = edge(mode=EdgeMode.INDIRECT)
    gw.submit(direct, direct_target=sched.cluster.worker("w0"))
    gw2 = EdgeGateway(sched, eng, protocol=ZIGBEE)
    gw2.submit(indirect)
    eng.run_until(100.0)
    assert direct.status is RequestStatus.COMPLETED
    assert indirect.status is RequestStatus.COMPLETED
    assert direct.network_delay_s < indirect.network_delay_s
    assert gw.direct_requests == 1


def test_direct_request_needs_target():
    eng = Engine()
    gw = EdgeGateway(make_sched(eng), eng)
    with pytest.raises(ValueError):
        gw.submit(edge(mode=EdgeMode.DIRECT))


def test_direct_request_rejected_when_server_busy():
    eng = Engine()
    sched = make_sched(eng, cores=1)
    sched.submit_cloud(CloudRequest(cycles=1000 * GHZ, time=0.0))
    gw = EdgeGateway(sched, eng)
    req = edge(mode=EdgeMode.DIRECT)
    gw.submit(req, direct_target=sched.cluster.worker("w0"))
    eng.run_until(10.0)
    assert req.status is RequestStatus.REJECTED  # no master to queue it
    assert gw.direct_rejections == 1


def test_sigfox_gateway_adds_seconds_of_latency():
    eng = Engine()
    sched = make_sched(eng)
    gw = EdgeGateway(sched, eng, protocol=SIGFOX)
    req = edge(deadline=300.0)
    req.input_bytes = 12.0
    gw.submit(req)
    eng.run_until(1000.0)
    assert req.network_delay_s > 2.0  # sigfox base latency


# --------------------------------------------------------------------------- #
# dcc gateway
# --------------------------------------------------------------------------- #
def test_dcc_gateway_wan_delay_and_return():
    eng = Engine()
    sched = make_sched(eng)
    wan = WANLink(WANProfile.national_internet())
    gw = DCCGateway(sched, eng, wan)
    req = CloudRequest(cycles=GHZ, time=0.0, input_bytes=1e6, output_bytes=1e6)
    gw.submit(req)
    assert req.status is RequestStatus.CREATED
    eng.run_until(100.0)
    assert req.status is RequestStatus.COMPLETED
    # response includes uplink + compute + downlink
    assert req.response_time() > 1.0 + 2 * 0.015
    assert gw.received == 1


# --------------------------------------------------------------------------- #
# decision system
# --------------------------------------------------------------------------- #
def decision_setup(eng, cores=1, with_dc=True, with_peer=False):
    dc = Datacenter("dc", 2, eng) if with_dc else None
    wan = WANLink(WANProfile.national_internet()) if with_dc else None
    off = Offloader(eng, datacenter=dc, wan=wan)
    ds = DecisionSystem()
    sched = make_sched(eng, cores=cores, policy=SaturationPolicy.DECISION,
                       offloader=off, decision_system=ds)
    if with_peer:
        peer = make_sched(eng, cores=8)
        peer.cluster.config = ClusterConfig(name="c1")
        off.register_peer("c0", sched, Link("m0", 0.004, 1e9))
        off.register_peer("c1", peer, Link("m1", 0.004, 1e9))
    return sched, ds, off


def test_decision_config_validation():
    with pytest.raises(ValueError):
        DecisionConfig(slack_factor=0.0)
    with pytest.raises(ValueError):
        DecisionConfig(metro_hop_estimate_s=-1.0)


def test_decision_preempts_when_possible():
    eng = Engine()
    sched, ds, _ = decision_setup(eng)
    sched.submit_cloud(CloudRequest(cycles=1000 * GHZ, time=0.0, preemptible=True))
    req = edge(deadline=5.0)
    sched.submit_edge(req)
    assert ds.decisions[Decision.PREEMPT] == 1
    assert req.status is RequestStatus.RUNNING


def test_decision_queues_when_wait_is_short():
    eng = Engine()
    sched, ds, _ = decision_setup(eng)
    ds.config = DecisionConfig(prefer_preempt=False)
    sched.submit_cloud(CloudRequest(cycles=1 * GHZ, time=0.0, preemptible=False))
    req = edge(deadline=30.0)  # blocker done in 1 s, plenty of slack
    sched.submit_edge(req)
    assert ds.decisions[Decision.QUEUE] == 1
    eng.run_until(100.0)
    assert req.deadline_met()


def test_decision_goes_vertical_when_local_hopeless():
    eng = Engine()
    sched, ds, off = decision_setup(eng)
    sched.submit_cloud(CloudRequest(cycles=10000 * GHZ, time=0.0, preemptible=False))
    req = edge(deadline=3.0)
    sched.submit_edge(req)
    assert ds.decisions[Decision.VERTICAL] == 1
    eng.run_until(100.0)
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on == "dc"


def test_decision_rejects_hopeless_deadline():
    eng = Engine()
    sched, ds, _ = decision_setup(eng, with_dc=False)
    sched.submit_cloud(CloudRequest(cycles=10000 * GHZ, time=0.0, preemptible=False))
    req = edge(cycles=100 * GHZ, deadline=0.5)  # 100 s of work, 0.5 s budget
    sched.submit_edge(req)
    assert ds.decisions[Decision.REJECT] == 1
    assert req.status is RequestStatus.REJECTED


def test_decision_prefers_horizontal_over_vertical():
    eng = Engine()
    sched, ds, off = decision_setup(eng, with_peer=True)
    ds.config = DecisionConfig(prefer_preempt=False)
    sched.submit_cloud(CloudRequest(cycles=10000 * GHZ, time=0.0, preemptible=False))
    req = edge(deadline=5.0)
    sched.submit_edge(req)
    assert ds.decisions[Decision.HORIZONTAL] == 1
    eng.run_until(100.0)
    assert req.status is RequestStatus.COMPLETED
    assert req.executed_on.startswith("w")  # peer's worker


def test_decision_wait_estimate_counts_filler_block_cores():
    """A filler block frees ``cores × chunks`` when it ends, like its chunks."""
    estimates = []
    for blocks in (False, True):
        eng = Engine()
        sched, ds, _ = decision_setup(eng, cores=4)
        worker = sched.cluster.workers[0]
        # a 1-core blocker for 100 s, then 3 one-core filler chunks for 10 s
        sched.submit_cloud(CloudRequest(cycles=100 * GHZ, time=0.0,
                                        preemptible=False))
        if blocks:
            filler = [Task("f", 10 * GHZ, chunks=3, metadata={"kind": "filler"})]
        else:
            filler = [Task(f"f{i}", 10 * GHZ, metadata={"kind": "filler"})
                      for i in range(3)]
        assert worker.submit_batch(filler) == 3
        assert worker.free_cores == 0
        # 4 cores: the filler alone cannot make room, so DECISION estimates;
        # they are free once the blocker ends at 100 s
        req = EdgeRequest(cycles=GHZ, time=0.0, deadline_s=500.0, cores=4,
                          source="district-0/building-0")
        estimates.append(ds._queue_wait_estimate_s(req, sched))
        sched.submit_edge(req)
        assert ds.decisions[Decision.QUEUE] == 1
    assert estimates == [100.0, 100.0]
