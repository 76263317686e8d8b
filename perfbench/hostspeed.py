"""The host's momentary speed, from a fixed interpreter loop.

The shared host this benchmark was defined on (2 vCPUs of a virtual Xeon)
changes speed by up to a quarter within seconds: a fixed loop timed 30
times in a row took anywhere from 0.36 to 0.57 s.  Every measured process
therefore times :func:`probe` between its units of work, at most every
:data:`PROBE_EVERY_S`, and ``run.py`` scales the process's host times by
:func:`host_factor` — ``PROBE_REF_S`` over the median probe, above 1 when
the host ran fast.  Over back-to-back iterations in one process this cut
the spread (interquartile range over median) of an iteration's sim time
from 0.19 to 0.095 on f3-mixed (33 iterations) and from 0.13 to 0.08 on
city-64x (18 iterations).
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

__all__ = ["PROBE_EVERY_S", "PROBE_REF_S", "host_factor", "probe"]

PROBE_LOOPS = 5_000
PROBE_EVERY_S = 0.01     # host seconds between probes
PROBE_REF_S = 2.0e-4     # median probe on the reference host, idle


def probe() -> float:
    """Host seconds of a fixed integer loop.

    Of the loops tried, this one (which allocates an int per step, as the
    simulator allocates objects) tracked the simulator's speed best: an
    allocation-free loop or a heap-queue loop left more of the noise in.
    """
    start = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOPS):
        total += k
    return time.perf_counter() - start


def host_factor(probes: Optional[List[float]] = None) -> float:
    """``PROBE_REF_S`` over the median probe; 50 fresh probes if none."""
    if not probes:
        probes = [probe() for _ in range(50)]
    return PROBE_REF_S / statistics.median(probes)
