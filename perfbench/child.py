"""One benchmark iteration in a fresh process (spawned by ``run.py``).

Usage: ``python3 perfbench/child.py WORKLOAD SEED T_SPAWN MODE OUT_STEM``

``T_SPAWN`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by all processes of the machine), so
set-up time includes interpreter start and imports.  ``MODE`` is ``run``
or ``trace`` (run under the layer ledger, spans written to
``OUT_STEM.*``).  The iteration prints one JSON object on its last stdout
line.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import host_factor  # noqa: E402


def _batch(name: str, seed: int, t_spawn: float, ledger) -> dict:
    import workloads

    t_build = time.perf_counter()
    mw, horizon, injected = workloads.BATCH[name].build(seed)
    t_run = time.perf_counter()
    boundaries, probes = workloads.run_sliced(mw, horizon)
    t_end = time.perf_counter()
    out = {}
    if ledger is not None:
        # read the ledger before the output checks call into the city
        ledger.uninstall()
        out["layers"] = ledger.layer_times(t_end - t_build)
        out["counts"] = dict(ledger.counts)
        out["counts"]["workloads.requests"] = sum(map(len, injected.values()))
        out["counts"]["sim.run_until_total_s"] = \
            ledger.total_s["sim.run_until_s"]
        if mw.surrogate is not None:
            status = mw.surrogate.budget_status()
            out["counts"]["thermal.surrogate.materializations"] = \
                status["materializations"]
            out["counts"]["thermal.surrogate.drift_budget_share"] = \
                status["drift_budget_share"]
    violations, n_injected = workloads.conservation_violations(mw, injected)
    out.update({
        "setup_s": t_run - t_spawn,
        "run_s": boundaries[-1],
        "host_factor": host_factor(probes),
        "sim_days": workloads.BATCH[name].sim_days,
        "slices_ms": workloads.slice_ms(boundaries),
        "digests": {"city": workloads.digest(mw)},
        "inputs_digest": workloads.inputs_digest(injected),
        "violations": violations,
        "injected": n_injected,
        "events": mw.engine.events_executed,
    })
    return out


def _a6(seed: int, t_spawn: float, ledger, stem: Path) -> dict:
    import shutil

    import workloads
    from repro.runner.backend import ProcessBackend
    from repro.runner.cache import ResultCache
    from repro.runner.runner import SweepRunner

    # the sweep's set-up ends when the first node starts; BackendStats
    # times nodes from the moment execute() is entered, so note that moment
    entered = []
    execute = ProcessBackend.execute

    def timed_execute(self, *args, **kwargs):
        entered.append(time.perf_counter())
        return execute(self, *args, **kwargs)

    ProcessBackend.execute = timed_execute
    workloads.CELL_LEDGER = ledger
    cache_dir = Path(f"{stem}.cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        runner = SweepRunner(jobs=workloads.A6_JOBS,
                             cache=ResultCache(cache_dir), backend="dag")
        t_cold = time.perf_counter()
        cold = runner.run_spec(workloads.A6_SPEC, seed=seed)
        t_warm = time.perf_counter()
        warm = runner.run_spec(workloads.A6_SPEC, seed=seed)
        t_end = time.perf_counter()
    finally:
        ProcessBackend.execute = execute
        shutil.rmtree(cache_dir, ignore_errors=True)

    stats = cold.backend_stats
    timeline = stats.timeline
    first_start = min(row["start_s"] for row in timeline)
    cells = cold.result
    slices = [w for cell in cells.values() for w in cell["slices_ms"]]
    probes = [p for cell in cells.values() for p in cell["probes"]]
    # one operation per sweep node: each cold node, each warm cache read
    node_failed = {pid: int(cell["violations"] > 0
                            or warm.result[pid]["digest"] != cell["digest"])
                   for pid, cell in cells.items()}
    attempted = cold.computed_nodes + warm.cached_nodes
    expected = len(cells) + len(workloads.A6_SPEC.make_prefixes(seed=seed))
    missing = max(0, expected - cold.computed_nodes) \
        + max(0, len(cells) - warm.cached_nodes) + warm.computed_nodes
    out = {}
    if ledger is not None:
        ledger.uninstall()
        out.update(_a6_layers(ledger, cold, warm, cells, t_warm - t_cold,
                              t_end - t_warm, entered[0] - ledger.t0, stem))
    out.update({
        "setup_s": entered[0] + first_start - t_spawn,
        "run_s": cold.wall_s,
        "host_factor": host_factor(probes),
        "sim_days": workloads.A6_SIM_DAYS,
        "slices_ms": slices,
        "digests": {pid: cell["digest"] for pid, cell in cells.items()},
        "inputs_digest": workloads.a6_inputs_digest(seed),
        "node_checks": attempted,
        "node_failed": sum(node_failed.values()) + missing,
        "violations": sum(cell["violations"] for cell in cells.values()),
        "injected": sum(cell["injected"] for cell in cells.values()),
        "events": sum(cell["events"] for cell in cells.values()),
    })
    return out


def _a6_layers(ledger, cold, warm, cells, cold_wall, warm_wall, offset,
               stem) -> dict:
    """Fold the cells' ledgers into the sweep parent's own ledger.

    The result sums to the parent's traced wall (cold plus warm sweep).
    While the parent waits in ``ProcessBackend.execute``, the workers run
    the nodes side by side, so a worker second costs ``1 / A6_JOBS`` of a
    wall second: each cell layer is charged its worker seconds over
    ``A6_JOBS``, and ``runner.execute_s`` keeps only the part of the wait
    that node time over ``A6_JOBS`` does not cover, so faster cells leave
    it unchanged.  Node time outside the cells' own ledgers (the
    workload-plan prefix node, pickling in the worker) is unattributed.
    Counts are summed over the cells unscaled.
    """
    import workloads
    from repro.obs.trace import TraceRecord

    jobs = workloads.A6_JOBS
    layers = ledger.layer_times(cold_wall + warm_wall)
    counts = dict(ledger.counts)
    stats = cold.backend_stats
    node_s = sum(row.get("wall_s", 0.0) for row in stats.timeline)
    cell_s = 0.0
    for cell in cells.values():
        cell_s += cell["layers"]["ledger.wall_s"]
        for k, v in cell["layers"].items():
            if k != "ledger.wall_s":
                layers[k] += v / jobs
        for k, v in cell["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in cell["counters"].items():
            key = f"core.resilience.{k}"
            counts[key] = counts.get(key, 0.0) + v
    layers["runner.execute_s"] -= node_s / jobs
    layers["ledger.unattributed_s"] += (node_s - cell_s) / jobs
    counts.update({
        "runner.node_compute_s": node_s,
        "runner.overhead_s": cold.wall_s - node_s / workloads.A6_JOBS,
        "runner.queue_wait_s": sum(row["start_s"] - row["enqueue_s"]
                                   for row in stats.timeline),
        "runner.warm_rerun_s": warm.wall_s,
        "runner.cached_nodes": warm.cached_nodes,
        "runner.retries": stats.retried_nodes,
        "runner.worker_deaths": stats.worker_deaths,
    })
    # node rows from BackendStats become spans of the exported trace, on
    # one track per worker
    nodes = [TraceRecord(ts=offset + row["start_s"], kind="bench",
                         name="runner.node", dur=row["done_s"] - row["start_s"],
                         trace_id=f"worker-{row['worker']}",
                         args={"clock": "host", "node": row["node"],
                               "worker": row["worker"]})
             for row in stats.timeline]
    ledger.write(stem, extra=nodes)
    return {"layers": layers, "counts": counts}


def main(argv) -> int:
    name, seed, t_spawn, mode, stem = argv
    seed, t_spawn, stem = int(seed), float(t_spawn), Path(stem)
    from ledger import Ledger

    ledger = Ledger().install() if mode == "trace" else None
    if name == "a6-churn":
        out = _a6(seed, t_spawn, ledger, stem)
    else:
        out = _batch(name, seed, t_spawn, ledger)
        if ledger is not None:
            ledger.write(stem)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
