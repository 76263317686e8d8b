"""Tests for low-power IoT protocols and duty-cycle gating."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gateway import EdgeGateway
from repro.network.lowpower import ENOCEAN, LORA, SIGFOX, ZIGBEE, LowPowerLink, LowPowerProtocol
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry, StandardNormals


def test_published_parameters():
    assert ZIGBEE.datarate_bps == 250_000.0
    assert LORA.duty_cycle == 0.01
    assert SIGFOX.datarate_bps == 100.0
    assert SIGFOX.max_payload_bytes == 12
    assert ENOCEAN.max_payload_bytes == 14


def test_protocol_validation():
    with pytest.raises(ValueError):
        LowPowerProtocol("x", 0.0, 0.01, 10, 1.0)
    with pytest.raises(ValueError):
        LowPowerProtocol("x", 100.0, 0.01, 10, 0.0)
    with pytest.raises(ValueError):
        LowPowerProtocol("x", 100.0, 0.01, 0, 1.0)


def test_fragmentation():
    link = LowPowerLink(SIGFOX)
    assert link.fragments(12) == 1
    assert link.fragments(13) == 2
    assert link.fragments(0) == 1
    with pytest.raises(ValueError):
        link.fragments(-1)


def test_zigbee_fast_delivery():
    link = LowPowerLink(ZIGBEE)
    d = link.delivery_delay(0.0, 50)
    assert d < 0.05  # tens of ms


def test_sigfox_slow_delivery():
    link = LowPowerLink(SIGFOX)
    d = link.delivery_delay(0.0, 12)
    assert d > 2.0  # seconds-scale


def test_latency_ladder_matches_protocol_speeds():
    msgs = 12
    delays = {
        p.name: LowPowerLink(p).delivery_delay(0.0, msgs)
        for p in (ZIGBEE, ENOCEAN, LORA, SIGFOX)
    }
    assert delays["zigbee"] < delays["lora"] < delays["sigfox"]
    assert delays["enocean"] < delays["lora"]


def test_duty_cycle_gates_successive_sends():
    link = LowPowerLink(LORA)
    t1 = link.send(0.0, 50)
    t2 = link.send(0.0, 50)  # immediately again: must wait out the silence
    assert t2 > t1
    air = link.airtime_s(50)
    # the second send starts no earlier than air/duty after the first start
    assert t2 - t1 >= air * (1.0 / LORA.duty_cycle - 1.0) - 1e-9


def test_no_gate_when_duty_is_one():
    link = LowPowerLink(ZIGBEE)
    t1 = link.send(0.0, 50)
    t2 = link.send(0.0, 50)
    assert t2 - t1 == pytest.approx(link.airtime_s(50))


def test_duty_budget_recovers_over_time():
    link = LowPowerLink(LORA)
    link.send(0.0, 50)
    gap = link.next_free_time
    # sending after the silence window is not delayed further
    t = link.send(gap + 1.0, 50)
    assert t == pytest.approx(gap + 1.0 + LORA.base_latency_s + link.airtime_s(50))


def test_max_message_rate_consistent_with_duty():
    link = LowPowerLink(LORA)
    rate = link.max_message_rate_hz(50)
    assert rate == pytest.approx(LORA.duty_cycle / link.airtime_s(50))


def test_sigfox_daily_budget_roughly_140_messages():
    """Sigfox's famous ~140 msgs/day budget emerges from the 1% duty cycle."""
    link = LowPowerLink(SIGFOX)
    per_day = link.max_message_rate_hz(12) * 86400.0
    assert 100 < per_day < 400


def test_airtime_accounting():
    link = LowPowerLink(ZIGBEE)
    link.send(0.0, 100)
    link.send(1.0, 100)
    assert link.messages_sent == 2
    assert link.airtime_used_s > 0


@settings(max_examples=50, deadline=None)
@given(size=st.integers(min_value=0, max_value=5000), start=st.floats(min_value=0, max_value=1e6))
def test_property_delivery_never_before_send(size, start):
    link = LowPowerLink(LORA)
    t = link.send(start, size)
    assert t >= start + LORA.base_latency_s


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=10))
def test_property_sends_are_serialised(sizes):
    """Deliveries from one device are strictly increasing in time."""
    link = LowPowerLink(SIGFOX)
    times = [link.send(0.0, s) for s in sizes]
    assert all(a < b for a, b in zip(times, times[1:]))


# --------------------------------------------------------------------------- #
# radio jitter: block standard normals == scalar normal draws, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_numpy_block_normals_equal_scalar_normal_draws(seed):
    """The numpy identity the jitter source relies on: ``standard_normal(n)``
    yields the values of ``n`` scalar draws, and ``normal(0.0, s)`` is
    ``0.0 + s·z``.  A numpy release that breaks either fails here."""
    s = 0.002
    block = np.random.default_rng(seed).standard_normal(5000).tolist()
    scalar = np.random.default_rng(seed)
    assert [(0.0 + s * z).hex() for z in block] == \
        [float(scalar.normal(0.0, s)).hex() for _ in block]


def test_standard_normals_cross_block_boundaries_seamlessly():
    normals = StandardNormals(np.random.default_rng(5))
    scalar = np.random.default_rng(5)
    n = 3 * StandardNormals.BLOCK + 5
    assert [normals.next().hex() for _ in range(n)] == \
        [float(scalar.standard_normal()).hex() for _ in range(n)]


def test_gateway_jitter_matches_scalar_normal_draws():
    """A gateway's links share one block source on its stream; deliveries
    are bit-identical to links that each draw a scalar
    ``rng.normal(0.0, 0.002)`` per send from the same stream."""
    seed = 11
    block_gw = EdgeGateway(None, Engine(), protocol=LORA,
                           rng=RngRegistry(seed).stream("edge-net-0"))
    scalar_rng = RngRegistry(seed).stream("edge-net-0")
    plain = {}    # jitter-free links: the same airtime and duty-cycle gating

    def scalar_send(now, source, size):
        link = plain.setdefault(source, LowPowerLink(LORA))
        jitter = max(float(scalar_rng.normal(0.0, 0.002)), 0.0)
        return link.send(now, size) + jitter

    pick = random.Random(3)
    sources = [f"district-0/building-{b}" for b in range(4)]
    now = 0.0
    n_sends = 1200
    for _ in range(n_sends):
        now += pick.expovariate(1.0)
        source = pick.choice(sources)
        size = pick.choice([0, 1, 64, 222, 223, 2000])
        got = block_gw._link_for(source).send(now, size)
        assert got.hex() == scalar_send(now, source, size).hex()
    assert n_sends > 4 * StandardNormals.BLOCK      # several block refills
    assert len(block_gw._links) == len(sources)
    assert {id(link.normals) for link in block_gw._links.values()} == \
        {id(block_gw.normals)}


def test_jittery_link_needs_a_normals_source():
    with pytest.raises(ValueError):
        LowPowerLink(ZIGBEE, jitter_std_s=0.002)
