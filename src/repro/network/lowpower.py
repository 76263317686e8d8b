"""Low-power IoT network protocols (paper §III-B, ref [12]).

"Low power networks and communication protocols (Zigbee, Lora, Sigfox,
Enocean etc.) are inevitable in edge computing."  The four protocols the paper
names are modelled with their published characteristics:

=========  ==========  ============  ===========  =================
protocol   datarate    base latency  max payload  duty-cycle limit
=========  ==========  ============  ===========  =================
Zigbee     250 kbps    ~15 ms        ~100 B       none (CSMA)
LoRa       5.5 kbps    ~80 ms        51–222 B     1 % (EU 868 MHz)
Sigfox     100 bps     ~2 s          12 B         1 % (≈140 msg/day)
EnOcean    125 kbps    ~10 ms        14 B         ~1 % (very short)
=========  ==========  ============  ===========  =================

Duty cycles are the defining constraint of sub-GHz ISM bands: a device that
just used the air for ``a`` seconds may not transmit again for
``a·(1/duty − 1)`` seconds.  :class:`LowPowerLink` enforces this with a
next-free-time gate, so request generators see realistic queueing delays when
they push sensor data too fast — exactly the effect that forces
sense-compute-actuate designs to stay frugal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.rng import StandardNormals

__all__ = ["LowPowerProtocol", "LowPowerLink", "ZIGBEE", "LORA", "SIGFOX", "ENOCEAN"]


@dataclass(frozen=True)
class LowPowerProtocol:
    """Published characteristics of a low-power radio protocol."""

    name: str
    datarate_bps: float
    base_latency_s: float
    max_payload_bytes: int
    duty_cycle: float  # 1.0 = unrestricted

    def __post_init__(self) -> None:
        if self.datarate_bps <= 0:
            raise ValueError("datarate must be > 0")
        if not 0 < self.duty_cycle <= 1.0:
            raise ValueError("duty cycle must be in (0, 1]")
        if self.max_payload_bytes < 1:
            raise ValueError("payload must be >= 1 byte")


ZIGBEE = LowPowerProtocol("zigbee", 250_000.0, 0.015, 100, 1.0)
LORA = LowPowerProtocol("lora", 5_500.0, 0.08, 222, 0.01)
SIGFOX = LowPowerProtocol("sigfox", 100.0, 2.0, 12, 0.01)
ENOCEAN = LowPowerProtocol("enocean", 125_000.0, 0.01, 14, 0.01)


class LowPowerLink:
    """One device's uplink on a low-power protocol.

    Messages larger than the protocol payload are fragmented; each fragment
    pays the base latency and airtime, and the duty-cycle gate applies to the
    summed airtime.  Per-device state (``next_free_time``) models the legal
    transmit-budget of that device, not channel contention.

    Jitter is ``max(N(0, jitter_std_s), 0)``, drawn from ``normals``; links
    may share one source (a gateway's links share its stream).
    """

    def __init__(self, protocol: LowPowerProtocol,
                 normals: Optional[StandardNormals] = None,
                 jitter_std_s: float = 0.0):
        if jitter_std_s < 0:
            raise ValueError("jitter std must be >= 0")
        if jitter_std_s > 0 and normals is None:
            raise ValueError("jittery link needs a normals source")
        self.protocol = protocol
        self.normals = normals
        self.jitter_std_s = jitter_std_s
        self.next_free_time = 0.0
        self.messages_sent = 0
        self.airtime_used_s = 0.0
        #: message size → (airtime, duty-cycle silence), memoised by send()
        self._by_size: Dict[int, Tuple[float, float]] = {}

    # ------------------------------------------------------------------ #
    def fragments(self, size_bytes: int) -> int:
        """Number of radio frames needed for ``size_bytes`` of payload."""
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        if size_bytes == 0:
            return 1  # an empty ping still occupies a frame
        p = self.protocol.max_payload_bytes
        return -(-size_bytes // p)

    def airtime_s(self, size_bytes: int) -> float:
        """Total on-air transmission time for a message of ``size_bytes``."""
        nfrag = self.fragments(size_bytes)
        payload_bits = max(size_bytes, 1) * 8.0
        overhead_bits = nfrag * 20 * 8.0  # ~20 B of preamble/header per frame
        return (payload_bits + overhead_bits) / self.protocol.datarate_bps

    def send(self, now: float, size_bytes: int) -> float:
        """Transmit a message starting no earlier than ``now``.

        Returns the **delivery time** (absolute).  The device's duty-cycle
        budget is consumed; subsequent sends may be gated.
        """
        sized = self._by_size.get(size_bytes)
        if sized is None:
            air = self.airtime_s(size_bytes)
            # duty cycle: after `air` seconds on air, stay silent for
            # air*(1/d - 1)
            sized = (air, air * (1.0 / self.protocol.duty_cycle - 1.0))
            self._by_size[size_bytes] = sized
        air, silence = sized
        start = max(now, self.next_free_time)
        jitter = 0.0
        if self.jitter_std_s > 0:
            # N(0, s) is 0.0 + s·z, bit for bit (see StandardNormals)
            jitter = max(0.0 + self.jitter_std_s * self.normals.next(), 0.0)
        delivered = start + self.protocol.base_latency_s + air + jitter
        self.next_free_time = start + air + silence
        self.messages_sent += 1
        self.airtime_used_s += air
        return delivered

    def delivery_delay(self, now: float, size_bytes: int) -> float:
        """Convenience: delay (s) rather than absolute delivery time."""
        return self.send(now, size_bytes) - now

    def max_message_rate_hz(self, size_bytes: int) -> float:
        """Sustainable message rate under the duty cycle (messages/s)."""
        air = self.airtime_s(size_bytes)
        return self.protocol.duty_cycle / air
