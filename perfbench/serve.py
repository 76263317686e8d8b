"""``repro serve`` with a host-speed probe between engine slices.

Usage: ``python3 perfbench/serve.py PROBES_JSON <repro serve arguments>``

Runs the ``repro`` CLI's ``serve`` command unchanged, except that after
each ``Engine.run_until`` call (one engine slice of the twin) it times
:func:`hostspeed.probe` at most every ``PROBE_EVERY_S``.  The probe
timings are written to ``PROBES_JSON`` when the server exits; a server
that never ran a slice probes 50 times on its way out.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import PROBE_EVERY_S, probe  # noqa: E402


def main(argv) -> int:
    out, args = Path(argv[0]), argv[1:]
    from repro.cli import main as cli
    from repro.sim.engine import Engine

    probes = []
    next_probe = [0.0]
    run_until = Engine.run_until

    def probed_run_until(self, horizon):
        run_until(self, horizon)
        if time.perf_counter() >= next_probe[0]:
            probes.append(probe())
            next_probe[0] = time.perf_counter() + PROBE_EVERY_S

    Engine.run_until = probed_run_until
    try:
        return cli(["serve", *args])
    finally:
        if not probes:
            probes = [probe() for _ in range(50)]
        out.write_text(json.dumps(probes))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
