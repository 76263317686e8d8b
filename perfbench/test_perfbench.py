"""Self-tests of the benchmark (not part of the simulator's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_printed_metrics_match_benchmark_json():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for section, printed in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == printed, section
        assert all(m["better"] in ("higher", "lower") for m in spec[section])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


def _bench(seed: int, trace: int = 0):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "city-256x-surrogate", "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_seed_changes_inputs_not_metrics(trace):
    prov_a, res_a = _bench(1, trace)
    prov_b, res_b = _bench(2, trace)
    assert prov_a["inputs_digest"] != prov_b["inputs_digest"]
    assert prov_a["output_digests"] != prov_b["output_digests"]
    assert set(res_a) == set(res_b) == {"correct", "attempted", "failed",
                                        "metrics"}
    names = set(run.PER_LAYER if trace else run.END_TO_END)
    assert set(res_a["metrics"]) == set(res_b["metrics"]) == names
    assert res_a["correct"] and res_a["failed"] == 0


def _batch_iteration(digest: str, violations: int = 0) -> dict:
    return {"digests": {"city": digest}, "violations": violations,
            "injected": 100}


def test_corrupted_digest_counts_as_failure():
    good = [_batch_iteration("aa"), _batch_iteration("aa")]
    assert run.check_outputs(good) == {"attempted": 3, "failed": 0}
    corrupt = [_batch_iteration("aa"), _batch_iteration("ab")]
    assert run.check_outputs(corrupt) == {"attempted": 3, "failed": 1}
    leaky = [_batch_iteration("aa", violations=2), _batch_iteration("aa")]
    assert run.check_outputs(leaky)["failed"] == 1


def test_corrupted_cell_digest_fails_its_node():
    def sweep(digests):
        return {"node_checks": 15, "node_failed": 0, "digests": digests}

    first = {"none": "aa", "retry": "bb"}
    assert run.check_outputs([sweep(first), sweep(first)])["failed"] == 0
    assert run.check_outputs(
        [sweep(first), sweep({"none": "aa", "retry": "bc"})])["failed"] == 1


def test_ledger_layers_sum_to_wall():
    import time

    from ledger import Ledger

    ledger = Ledger().install()
    try:
        from repro.experiments import f3_three_flows
        from repro.sim.calendar import DAY

        t0 = time.perf_counter()
        mw, _start, t1, _w = f3_three_flows.build(duration_days=0.25, seed=3)
        mw.run_until(t1 + 0.05 * DAY)
        wall = time.perf_counter() - t0
    finally:
        ledger.uninstall()
    layers = ledger.layer_times(wall)
    total = sum(v for k, v in layers.items() if k != "ledger.wall_s")
    assert total == pytest.approx(wall, rel=1e-9)
    assert layers["core.gateway.edge_submit_s"] > 0
    assert ledger.counts["hardware.server.sync_calls"] > 0
    records = ledger.records()
    assert records and all(r.dur >= 0 for r in records)


def test_sweep_ledger_sums_to_parent_wall(tmp_path):
    import threading
    from types import SimpleNamespace

    import child
    from ledger import Ledger

    # parent: 5 s of wall, 4 s of it waiting in execute
    ledger = Ledger()
    ledger.self_s["runner.execute_s"] = 4.0
    ledger.top_s[threading.get_ident()] = 4.0
    # two workers ran three nodes (6 s of node time) of which the cells'
    # own ledgers cover 5.5 s
    cell = {"ledger.wall_s": 2.75, "sim.run_until_s": 2.0,
            "ledger.unattributed_s": 0.75}
    cells = {pid: {"layers": dict(cell), "counts": {"sim.events": 10},
                   "counters": {"retries": 1}} for pid in ("a", "b")}
    timeline = [{"node": n, "worker": w, "start_s": 0.0, "done_s": 2.0,
                 "enqueue_s": 0.0, "wall_s": 2.0}
                for n, w in (("plan", 0), ("a", 0), ("b", 1))]
    cold = SimpleNamespace(wall_s=4.5, backend_stats=SimpleNamespace(
        timeline=timeline, retried_nodes=0, worker_deaths=0))
    warm = SimpleNamespace(wall_s=0.5, cached_nodes=2)
    out = child._a6_layers(ledger, cold, warm, cells, 4.5, 0.5, 0.0,
                           tmp_path / "a6")
    layers = out["layers"]
    total = sum(v for k, v in layers.items() if k != "ledger.wall_s")
    assert layers["ledger.wall_s"] == 5.0
    assert total == pytest.approx(5.0)
    # the wait minus node time over the two workers
    assert layers["runner.execute_s"] == pytest.approx(4.0 - 6.0 / 2)
    assert layers["sim.run_until_s"] == pytest.approx(2 * 2.0 / 2)
    assert out["counts"]["sim.events"] == 20
    assert out["counts"]["core.resilience.retries"] == 2
