"""Simulation processes do not load ``networkx``.

Only :class:`~repro.network.topology.CityTopology` needs it, and no city
builds one, so a CLI run, a sweep worker or ``repro serve`` never pays its
import time and memory.  Checked in a fresh interpreter, because this test
process may already have imported it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = textwrap.dedent("""
    import sys

    import repro.cli, repro.runner.worker, repro.service  # entry points
    from repro.experiments import f3_three_flows
    from repro.experiments.common import small_city

    mw, t0, _t1, _flows = f3_three_flows.build(duration_days=0.1, seed=3)
    mw.run_until(t0 + 2 * 3600.0)
    city = small_city(seed=5)
    city.run_until(city.engine.now + 2 * 3600.0)
    assert "networkx" not in sys.modules, "a simulation imported networkx"

    from repro.network.topology import CityTopology

    assert "networkx" not in sys.modules, "importing the module loaded it"
    assert CityTopology.build().hops("district-0/building-0", "dc") == 2
    assert "networkx" in sys.modules
""")


def test_simulation_never_imports_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROGRAM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
