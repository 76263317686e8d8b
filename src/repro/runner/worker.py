"""Worker-process initialization, the per-node task and the worker loop.

Worker processes must not depend on whatever process-global state the parent
accumulated: the process-wide observability bundle is reset to the inactive
default on startup, and each cell builds its own city from its node spec
(``repro.experiments.common`` keeps no mutable module-level singletons — a
property ``tests/test_runner_worker.py`` enforces).

When the parent's bundle collects metrics, profiles or traces, the worker
builds a *fresh* bundle with the same pillars, runs the cell under it, and
ships the registry/profiler/trace records back alongside the cell value; the
parent merges them in deterministic graph order.  A parallel ``--trace``
sweep therefore yields the concatenation of per-node narratives in graph
order — the same records a serial run emits, grouped by node rather than
interleaved by wall clock.
"""

from __future__ import annotations

import gc
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro import obs as obs_mod

__all__ = ["dag_worker_main", "init_worker", "run_node_task"]


def init_worker() -> None:
    """First step of every worker process: start from a clean slate.

    Installs the inactive observability bundle (a forked worker would
    otherwise inherit whatever bundle the parent had installed, double
    counting its metrics) and pre-imports the experiment package so the
    first node does not pay the import latency under timing.
    """
    obs_mod.install(obs_mod.OBS_OFF)
    import repro.experiments.common  # noqa: F401  (warm the import cache)


# --------------------------------------------------------------------------- #
# per-node task + the work-stealing worker loop
# --------------------------------------------------------------------------- #
def run_node_task(
    node, upstream: Dict[str, Any], want_metrics: bool, want_profile: bool,
    want_trace: bool = False, trace_kinds: Optional[frozenset] = None,
) -> Tuple[str, Any, Optional[obs_mod.MetricsRegistry],
           Optional[obs_mod.Profiler],
           Optional[List[obs_mod.TraceRecord]]]:
    """Execute one :class:`~repro.runner.graph.TaskNode` with its upstream
    values injected; returns merge-back material.

    The returned tuple is ``(node_id, cell value, registry | None,
    profiler | None, trace records | None)`` — everything picklable,
    nothing process-global.
    """
    if not (want_metrics or want_profile or want_trace):
        return node.node_id, node.execute(upstream), None, None, None
    registry = obs_mod.MetricsRegistry() if want_metrics else None
    profiler = obs_mod.Profiler() if want_profile else None
    tracer = obs_mod.Tracer(kinds=trace_kinds) if want_trace else None
    if want_trace:
        # traced ids must be a pure function of the node, not of which
        # worker ran it or how many nodes that worker saw before
        from repro.core.requests import reset_ids
        reset_ids()
    bundle = obs_mod.Observability(tracer=tracer, registry=registry,
                                   profiler=profiler)
    with obs_mod.obs_session(bundle):
        value = node.execute(upstream)
    records = tracer.records if tracer is not None else None
    return node.node_id, value, registry, profiler, records


def dag_worker_main(worker_id: int, task_q, result_q, heartbeats,
                    heartbeat_interval_s: float,
                    want_metrics: bool, want_profile: bool,
                    want_trace: bool, trace_kinds: Optional[frozenset]) -> None:
    """Main loop of one DAG worker process.

    Steals chunks from the shared ``task_q`` (any idle worker takes the next
    chunk — there is no per-worker assignment), acknowledges each chunk with
    a ``claim`` message *before* executing it (so the parent knows which
    nodes die with this process), emits ``start``/``done`` per node, and
    stamps ``heartbeats[worker_id]`` from a daemon thread every
    ``heartbeat_interval_s`` so the parent can tell a frozen process from a
    slow node.  A cell that raises is reported as an ``error`` message — the
    run is deterministic, so re-running it elsewhere would fail identically
    and the parent aborts instead of retrying.

    The worker holds one cell's memory at a time: the heap it starts with
    (inherited and imported) is frozen out of collection, and each node's
    garbage is collected once its ``done`` message is sent.  A finished
    cell's city is a cyclic graph that CPython's own schedule would
    usually leave in place while the next cell builds (DESIGN.md §2.17).
    """
    init_worker()
    gc.freeze()
    stop_beat = threading.Event()

    def _beat() -> None:
        while not stop_beat.is_set():
            heartbeats[worker_id] = time.time()
            stop_beat.wait(heartbeat_interval_s)

    beat = threading.Thread(target=_beat, name=f"dag-heartbeat-{worker_id}",
                            daemon=True)
    beat.start()
    try:
        while True:
            msg = task_q.get()
            if msg[0] == "stop":
                result_q.put(("bye", worker_id))
                return
            _, chunk_id, tasks = msg
            result_q.put(("claim", worker_id, chunk_id,
                          [node.node_id for node, _ in tasks]))
            for node, upstream in tasks:
                result_q.put(("start", worker_id, node.node_id))
                wall0 = time.perf_counter()
                try:
                    node_id, value, registry, profiler, records = run_node_task(
                        node, upstream, want_metrics, want_profile,
                        want_trace, trace_kinds)
                except BaseException as exc:  # deterministic failure: report
                    result_q.put(("error", worker_id, node.node_id,
                                  f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc()))
                    continue
                # the measured wall_s rides the done message into the
                # parent's BackendStats timeline (never into the trace)
                result_q.put(("done", worker_id, node_id, value,
                              registry, profiler, records,
                              time.perf_counter() - wall0))
                del value, registry, profiler, records
                gc.collect()
    finally:
        stop_beat.set()
