"""DF3 simulator benchmark: five workloads, one command, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload f3-mixed --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each one exists):

* ``f3-mixed`` — the paper's Fig. 3 city, all three flows, 3 sim-days;
* ``city-64x`` — 64 districts (384 Q.rads), sparse edge traffic, 1 sim-day;
* ``city-256x-surrogate`` — 256 districts on the surrogate thermal tier;
* ``a6-churn`` — A6's mtbf=2h row (7 recovery bundles) through the task-DAG
  runner with 2 workers, cold then warm from a fresh cache;
* ``twin-live`` — ``repro serve`` on the F3 scenario, one SSE subscriber and
  an open-loop injection client.

Each iteration runs in a fresh process, so set-up time counts interpreter
start and imports; iterations repeat until ``--seconds`` have passed (at
least two, three for a6-churn, four for twin-live).  Compute times are scaled to a reference host speed
measured inside each process (``hostspeed.py``), because the shared host
this was written on drifts by a quarter within seconds.

End-to-end metrics: ``setup_s`` (process start until simulated time
advances; median), ``sim_days_per_s`` (simulated city-days over the timed
phase; median over iterations), ``peak_rss_mib`` (largest resident set of
the measured processes), ``inject_p50_ms``/``inject_p90_ms`` (twin-live:
round trip of ``POST /api/inject`` from its due time; batch workloads: host
time of one engine slice, the longest an injected command waits for the
boundary where it applies) and ``delivered_ratio`` (SSE frames received
over the bus seq span seen, or injected requests accounted for by the
conservation check).  Failed checks count in ``failed``.

With ``--trace 0`` the result carries every end-to-end metric; with
``--trace 1`` untraced and traced iterations alternate and the result
carries the per-layer ledger of the median traced iteration.  Every traced
iteration writes its spans to ``.perfbench_out/`` as ``repro`` JSONL and
Chrome traces under a stem of its own; the provenance names the median
one (``trace_stem``).  The last stdout line is the JSON result; the line before it holds
provenance (commit, cpu count, versions, seed, output digests).

Self-tests: ``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger import LAYER_HOOKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("f3-mixed", "city-64x", "city-256x-surrogate", "a6-churn",
             "twin-live")
#: iterations a run makes at least; four served runs give twin-live about
#: two hundred injections, so that twenty of them lie beyond its p90, and
#: a third sweep gives a6-churn a set-up median that one slow start does
#: not move
MIN_ITERATIONS = {"twin-live": 4, "a6-churn": 3}
#: one string-hash layout for every measured process, so dict and set
#: layouts, and with them cache behaviour, do not differ between runs
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

#: end-to-end metric -> unit (directions and bounds live in BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "sim_days_per_s": "sim-day/s",
    "peak_rss_mib": "MiB",
    "inject_p50_ms": "ms",
    "inject_p90_ms": "ms",
    "delivered_ratio": "share",
}

#: per-layer metric -> unit: each wrapped layer's self time, then counts
PER_LAYER = {
    **{hook[3]: "s" for hook in LAYER_HOOKS},
    "ledger.unattributed_s": "s",
    "ledger.wall_s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "workloads.requests": "count",
    "core.gateway.edge_submits": "count",
    "hardware.server.filler_tasks": "count",
    "hardware.server.sync_calls": "count",
    "thermal.surrogate.materializations": "count",
    "thermal.surrogate.drift_budget_share": "share",
    "core.resilience.server_failures": "count",
    "core.resilience.retries": "count",
    "core.resilience.clones": "count",
    "core.resilience.wasted_gcycles": "Gcycles",
    "runner.node_compute_s": "s",
    "runner.overhead_s": "s",
    "runner.queue_wait_s": "s",
    "runner.warm_rerun_s": "s",
    "runner.cached_nodes": "count",
    "runner.retries": "count",
    "runner.worker_deaths": "count",
    "service.twin.run_until_s": "s",
    "service.events.published": "count",
    "service.events.dropped": "count",
    "obs.tracer.records": "count",
    "bench.trace_overhead": "ratio",
}


# --------------------------------------------------------------------------- #
# iterations
# --------------------------------------------------------------------------- #
def _child(workload: str, seed: int, mode: str, stem: Path) -> Dict[str, Any]:
    """Run one iteration of a batch workload in a fresh interpreter."""
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed),
         repr(t_spawn), mode, str(stem)],
        cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} iteration exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iterate(workload: str, seed: int, mode: str, stem: Path) -> Dict[str, Any]:
    """One iteration; ``mode`` is ``run`` or ``trace``.

    ``stem`` is the iteration's own: its trace files and probe timings do
    not overwrite another iteration's.
    """
    if workload != "twin-live":
        out = _child(workload, seed, mode, stem)
    else:
        import twin

        if mode == "trace":
            out = twin.traced_run(seed, stem)
        else:
            out = twin.served_run(ROOT, seed, Path(f"{stem}.probes.json"))
    out["stem"] = stem.name
    return out


# --------------------------------------------------------------------------- #
# reduction
# --------------------------------------------------------------------------- #
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def check_outputs(iterations: List[Dict[str, Any]]) -> Dict[str, int]:
    """Count output checks attempted and failed over a run's iterations.

    Batch iterations carry one conservation check each, and every
    iteration after the first one check that its output digests equal the
    first's (same seed, same outputs).  Sweep iterations count one check
    per node; a cell whose digest differs from the first iteration's fails
    its node.  Served iterations count their own operations.
    """
    attempted = failed = 0
    first = iterations[0]["digests"] if "digests" in iterations[0] else None
    for i, it in enumerate(iterations):
        if "node_checks" in it:
            attempted += it["node_checks"]
            failed += it["node_failed"]
            if i:
                failed += sum(it["digests"].get(k) != v
                              for k, v in first.items())
        elif "digests" in it:
            attempted += 1 + (i > 0)
            failed += (it["violations"] > 0) + (i > 0 and it["digests"] != first)
        else:
            attempted += it["attempted"]
            failed += it["failed"]
    return {"attempted": attempted, "failed": failed}


def end_to_end(iterations: List[Dict[str, Any]],
               peak_rss_kib: int) -> Dict[str, float]:
    """Reduce untraced iterations to the end-to-end metrics.

    Compute times are scaled by their process's ``host_factor`` (see
    ``hostspeed.py``).  Command latencies are the host time of each engine
    slice for batch workloads (scaled too), and the injection round trips
    for twin-live.  Those are left as measured: handing the interpreter
    lock between the engine and the HTTP threads (a fixed 5 ms switch
    interval) dominates them, and scaling them doubled their spread over
    seeds (0.044 to 0.08).
    """
    def scaled(it: Dict[str, Any], key: str) -> float:
        return it[key] * it["host_factor"]

    latencies = [ms * it["host_factor"] for it in iterations
                 for ms in it.get("slices_ms", ())]
    latencies += [ms for it in iterations for ms in it.get("latencies_ms", ())]
    if "frames" in iterations[0]:
        delivered = (sum(it["frames"] for it in iterations)
                     / sum(it["frame_span"] for it in iterations))
    else:
        injected = sum(it["injected"] for it in iterations)
        delivered = 1.0 - sum(it["violations"] for it in iterations) / injected
    return {
        "setup_s": statistics.median(scaled(it, "setup_s")
                                     for it in iterations),
        "sim_days_per_s": statistics.median(
            it["sim_days"] / scaled(it, "run_s") for it in iterations),
        "peak_rss_mib": peak_rss_kib / 1024.0,
        "inject_p50_ms": percentile(latencies, 50),
        "inject_p90_ms": percentile(latencies, 90),
        "delivered_ratio": delivered,
    }


def median_traced(traced: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The traced iteration with the median traced wall (lower median)."""
    ordered = sorted(traced, key=lambda it: it["layers"]["ledger.wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(traced: List[Dict[str, Any]],
              untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """The ledger of the median traced iteration, plus tracing overhead."""
    it = median_traced(traced)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(it["layers"])
    values.update({k: v for k, v in it["counts"].items() if k in PER_LAYER})
    values["sim.events"] = it["events"]
    run_until = it["counts"].get("sim.run_until_total_s", 0.0)
    values["sim.host_us_per_event"] = run_until / it["events"] * 1e6
    def speed(its: List[Dict[str, Any]]) -> float:
        return statistics.median(
            i["sim_days"] / (i["run_s"] * i["host_factor"])
            for i in its)

    values["bench.trace_overhead"] = speed(untraced) / speed(traced)
    return values


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #
def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, iterations, traced) -> Dict[str, Any]:
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    prov = {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": len(iterations),
        "host_factors": [it.get("host_factor") for it in iterations],
        "unscaled_sim_days_per_s": statistics.median(
            it["sim_days"] / it["run_s"] for it in iterations),
        "output_digests": iterations[0].get("digests"),
        "inputs_digest": iterations[0].get("inputs_digest"),
    }
    if traced:
        # the spans behind the reported ledger, under OUT
        prov["trace_stem"] = median_traced(traced)["stem"]
    if "failures" in iterations[0]:
        prov["check_failures"] = [it["failures"] for it in iterations
                                  if it["failed"]]
    if "lateness_ms" in iterations[0]:
        prov["bench.gen_late_p90_ms"] = percentile(
            [x for it in iterations for x in it["lateness_ms"]], 90)
    return prov


# --------------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    deadline = time.perf_counter() + args.seconds
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while True:
        k = len(untraced)
        untraced.append(iterate(args.workload, args.seed, "run",
                                Path(f"{stem}-run{k}")))
        if args.trace:
            traced.append(iterate(args.workload, args.seed, "trace",
                                  Path(f"{stem}-trace{k}")))
        enough = len(untraced) >= (
            1 if args.trace else MIN_ITERATIONS.get(args.workload, 2))
        if enough and time.perf_counter() >= deadline:
            break
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    checks = check_outputs(untraced + traced)
    if args.trace:
        values, units = per_layer(traced, untraced), PER_LAYER
    else:
        values, units = end_to_end(untraced, rss), END_TO_END
    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    prov = provenance(args, untraced, traced)
    Path(f"{stem}-result.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
