"""Graph execution backends: inline, and chunked work-stealing processes.

Both backends execute a *pending subset* of a :class:`~repro.runner.graph.TaskGraph`
given the values already known (cache hits), calling back into the runner as
each node completes so per-node cache writes happen immediately.  They share
one determinism contract: node **values** are a pure function of the graph,
so execution order, worker assignment, chunking, retries — none of it can
leak into results, and observability merge-back always happens in graph
order, never completion order.

* :class:`InlineBackend` — runs pending nodes in deterministic topological
  order in this process under the ambient observability bundle.  It serves
  ``jobs=1`` and *is* the reference serial execution.
* :class:`ProcessBackend` — the multicore path.  The parent keeps the DAG's
  ready frontier flowing into one **shared task queue**; idle workers steal
  the next chunk regardless of which worker computed its upstreams (there is
  no static partition to go idle on).  Chunks amortize IPC; every chunk is
  ``claim``-acknowledged by its thief before execution so the parent knows
  exactly which nodes die with a worker.  Workers stamp a shared heartbeat
  array from a daemon thread; the parent combines ``Process.is_alive()``
  with heartbeat staleness to detect crashed or frozen workers, re-enqueues
  their claimed-but-unfinished nodes (each node is retried at most
  ``retry_limit`` times — default exactly once), and respawns replacement
  workers within a death budget.  Because cells are pure, an occasional
  double execution (watchdog re-enqueue racing a slow worker) is harmless:
  the first ``done`` message wins, duplicates are dropped.

A cell that *raises* is never retried: the run is deterministic, the same
exception would recur on any worker, so the parent aborts with
:class:`NodeExecutionError` carrying the worker's traceback.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs as obs_mod
from repro.runner.graph import TaskGraph
from repro.runner.worker import dag_worker_main

__all__ = [
    "BackendStats",
    "InlineBackend",
    "NodeExecutionError",
    "ProcessBackend",
    "WorkerCrashError",
]


class NodeExecutionError(RuntimeError):
    """A node's cell raised inside a worker (deterministic — not retried)."""

    def __init__(self, node_id: str, message: str, worker_traceback: str = ""):
        self.node_id = node_id
        self.worker_traceback = worker_traceback
        super().__init__(f"node {node_id!r} failed: {message}\n{worker_traceback}")


class WorkerCrashError(RuntimeError):
    """A node exhausted its retry budget across worker crashes."""

    def __init__(self, node_id: str, attempts: int):
        self.node_id = node_id
        self.attempts = attempts
        super().__init__(
            f"node {node_id!r} lost to {attempts} worker crash(es) — "
            "retry budget exhausted"
        )


@dataclass
class BackendStats:
    """What one graph execution did, for reports, benchmarks and tests.

    Two kinds of fields live here, with different determinism guarantees:

    * **deterministic bookkeeping** — ``executed`` (and, at ``jobs=1``,
      everything else) is a pure function of the graph;
    * **wall-clock telemetry** — ``timeline`` rows and the queue/steal/
      heartbeat counters record *how* this particular execution went
      (worker assignment, claim/start/done wall times, staleness).  They
      feed ``--progress``, ``RunReport.to_dict()`` and the report's
      worker×node Gantt panel, and are deliberately kept **out of the
      trace**, which must stay byte-identical across jobs counts.
    """

    executed: int = 0                 # first completions (cache misses run)
    chunks_dispatched: int = 0
    chunk_steals: int = 0             # chunks claim-acked by an idle worker
    queue_depth_peak: int = 0         # max nodes dispatched-but-unfinished
    worker_deaths: int = 0
    retried_nodes: int = 0            # re-enqueues after worker deaths
    respawned_workers: int = 0
    duplicate_results: int = 0        # late results discarded (idempotent)
    heartbeat_max_staleness_s: float = 0.0   # worst observed beat lag
    nodes_per_worker: Dict[int, int] = field(default_factory=dict)
    last_heartbeat: Dict[int, float] = field(default_factory=dict)
    #: per-node lifecycle rows (graph order): node, kind, worker, attempts,
    #: enqueue_s/claim_s/start_s/done_s relative to execute() start, and the
    #: worker-measured wall_s of the winning attempt
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (int worker ids become string keys)."""
        return {
            "executed": self.executed,
            "chunks_dispatched": self.chunks_dispatched,
            "chunk_steals": self.chunk_steals,
            "queue_depth_peak": self.queue_depth_peak,
            "worker_deaths": self.worker_deaths,
            "retried_nodes": self.retried_nodes,
            "respawned_workers": self.respawned_workers,
            "duplicate_results": self.duplicate_results,
            "heartbeat_max_staleness_s": round(
                self.heartbeat_max_staleness_s, 6),
            "nodes_per_worker": {str(k): v
                                 for k, v in self.nodes_per_worker.items()},
            "last_heartbeat": {str(k): v
                               for k, v in self.last_heartbeat.items()},
            "timeline": [dict(row) for row in self.timeline],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "BackendStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            executed=int(d.get("executed", 0)),
            chunks_dispatched=int(d.get("chunks_dispatched", 0)),
            chunk_steals=int(d.get("chunk_steals", 0)),
            queue_depth_peak=int(d.get("queue_depth_peak", 0)),
            worker_deaths=int(d.get("worker_deaths", 0)),
            retried_nodes=int(d.get("retried_nodes", 0)),
            respawned_workers=int(d.get("respawned_workers", 0)),
            duplicate_results=int(d.get("duplicate_results", 0)),
            heartbeat_max_staleness_s=float(
                d.get("heartbeat_max_staleness_s", 0.0)),
            nodes_per_worker={int(k): int(v) for k, v in
                              d.get("nodes_per_worker", {}).items()},
            last_heartbeat={int(k): float(v) for k, v in
                            d.get("last_heartbeat", {}).items()},
            timeline=[dict(row) for row in d.get("timeline", [])],
        )


# --------------------------------------------------------------------------- #
# deterministic runner spans
#
# Node spans are part of the trace byte-identity contract: a traced sweep
# must produce record-for-record identical output at --jobs 1 and --jobs N.
# Both backends therefore emit the SAME records in the SAME positions — one
# ``runner.node`` record per executed node immediately before that node's own
# cell records (InlineBackend: before executing; ProcessBackend: at the
# deterministic graph-order merge-back), then one ``runner.sweep`` summary.
# Record content is a pure function of the graph (ts is the node's execution
# ordinal, never a wall time); everything wall-clock-dependent — worker ids,
# claim/start/done times, retries — lives in BackendStats instead.
# --------------------------------------------------------------------------- #
def _emit_node_span(tracer, node, seq: int) -> None:
    tracer.emit("runner", "runner.node", float(seq),
                node=node.node_id, node_kind=node.kind,
                experiment=node.experiment_id, seq=seq,
                upstreams=len(node.upstream_ids), status="computed")


def _emit_sweep_summary(tracer, graph: TaskGraph,
                        pending_order: Sequence[str]) -> None:
    prefixes = sum(1 for nid in pending_order
                   if graph[nid].kind == "prefix")
    tracer.emit("runner", "runner.sweep", float(len(pending_order)),
                executed=len(pending_order), prefixes=prefixes,
                points=len(pending_order) - prefixes, graph_nodes=len(graph))


# --------------------------------------------------------------------------- #
class InlineBackend:
    """Execute pending nodes inline, in deterministic topological order."""

    def __init__(self, obs: Optional[obs_mod.Observability] = None,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None):
        self.obs = obs
        self.progress = progress

    def execute(
        self,
        graph: TaskGraph,
        pending: Sequence[str],
        values: Dict[str, Any],
        on_complete: Callable[[str, Any], None],
    ) -> BackendStats:
        stats = BackendStats()
        ambient = self.obs if self.obs is not None else obs_mod.get_obs()
        tracing = ambient.tracer.enabled
        pending_set = set(pending)
        pending_order = [nid for nid in graph.order() if nid in pending_set]
        t0 = time.perf_counter()
        for seq, nid in enumerate(pending_order):
            node = graph[nid]
            if tracing:
                # same id hygiene as the workers: traced ids are a pure
                # function of the node, not of prior nodes' request counts
                from repro.core.requests import reset_ids
                reset_ids()
                _emit_node_span(ambient.tracer, node, seq)
            start_s = time.perf_counter() - t0
            value = node.execute(values)
            done_s = time.perf_counter() - t0
            values[nid] = value
            on_complete(nid, value)
            stats.executed += 1
            stats.nodes_per_worker[0] = stats.nodes_per_worker.get(0, 0) + 1
            stats.timeline.append({
                "node": nid, "kind": node.kind, "worker": 0, "attempts": 1,
                "enqueue_s": round(start_s, 6), "claim_s": round(start_s, 6),
                "start_s": round(start_s, 6), "done_s": round(done_s, 6),
                "wall_s": round(done_s - start_s, 6),
            })
            if self.progress is not None:
                self.progress({"done": stats.executed,
                               "total": len(pending_order),
                               "inflight": 0, "deaths": 0, "retries": 0,
                               "workers": 1})
        if tracing:
            _emit_sweep_summary(ambient.tracer, graph, pending_order)
        stats.queue_depth_peak = 1 if pending_order else 0
        return stats


# --------------------------------------------------------------------------- #
class ProcessBackend:
    """Chunked work-stealing execution over a pool of worker processes."""

    def __init__(
        self,
        jobs: int,
        obs: Optional[obs_mod.Observability] = None,
        chunk_size: Optional[int] = None,
        heartbeat_interval_s: float = 0.2,
        hang_timeout_s: Optional[float] = None,
        stall_timeout_s: float = 30.0,
        retry_limit: int = 1,
        poll_s: float = 0.05,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {retry_limit}")
        self.jobs = jobs
        self.obs = obs
        self.chunk_size = chunk_size
        self.heartbeat_interval_s = heartbeat_interval_s
        self.hang_timeout_s = hang_timeout_s
        self.stall_timeout_s = stall_timeout_s
        self.retry_limit = retry_limit
        self.poll_s = poll_s
        self.progress = progress

    # ------------------------------------------------------------------ #
    def _chunk(self, ready: List[str]) -> List[List[str]]:
        """Split the ready frontier into steal-sized chunks.

        Auto-sizing aims at ~4 chunks per worker wave: big enough to
        amortize pickling, small enough that a fast worker can steal work a
        slow one would otherwise sit on.
        """
        if not ready:
            return []
        size = self.chunk_size
        if size is None:
            size = max(1, min(8, (len(ready) + 4 * self.jobs - 1)
                              // (4 * self.jobs)))
        return [ready[i:i + size] for i in range(0, len(ready), size)]

    def execute(
        self,
        graph: TaskGraph,
        pending: Sequence[str],
        values: Dict[str, Any],
        on_complete: Callable[[str, Any], None],
    ) -> BackendStats:
        import multiprocessing as mp

        bundle = self.obs if self.obs is not None else obs_mod.get_obs()
        want_metrics = bundle.metrics_enabled
        want_profile = bundle.profiler is not None
        want_trace = bundle.tracer.enabled
        trace_kinds = getattr(bundle.tracer, "kinds", None)

        stats = BackendStats()
        pending_set = set(pending)
        pending_order = [nid for nid in graph.order() if nid in pending_set]
        done: set = set()
        dispatched: set = set()
        retries: Dict[str, int] = {}
        t0 = time.perf_counter()
        events: Dict[str, Dict[str, Any]] = {}   # node id → timeline row
        chunk_nodes: Dict[int, List[str]] = {}
        chunk_claims: Dict[int, int] = {}          # chunk id → worker id
        merge_back: Dict[str, Tuple[Optional[obs_mod.MetricsRegistry],
                                    Optional[obs_mod.Profiler],
                                    Optional[list]]] = {}
        chunk_ids = itertools.count()
        respawn_budget = self.jobs
        watchdog_rounds = 3

        ctx = mp.get_context()
        task_q: Any = ctx.Queue()
        result_q: Any = ctx.Queue()
        heartbeats = ctx.Array("d", [time.time()] * (self.jobs * 2))
        workers: Dict[int, Any] = {}
        dead: set = set()

        def _spawn(slot: int) -> None:
            proc = ctx.Process(
                target=dag_worker_main,
                args=(slot, task_q, result_q, heartbeats,
                      self.heartbeat_interval_s, want_metrics, want_profile,
                      want_trace, trace_kinds),
                name=f"dag-worker-{slot}",
                daemon=True,
            )
            proc.start()
            workers[slot] = proc

        def _rel() -> float:
            return round(time.perf_counter() - t0, 6)

        def _event(nid: str) -> Dict[str, Any]:
            return events.setdefault(nid, {
                "node": nid, "kind": graph[nid].kind, "worker": None,
                "attempts": 0,
            })

        def _report_progress() -> None:
            if self.progress is None:
                return
            self.progress({
                "done": len(done), "total": len(pending_order),
                "inflight": len(dispatched - done),
                "deaths": stats.worker_deaths,
                "retries": stats.retried_nodes,
                "workers": sum(1 for s in workers if s not in dead),
            })

        def _dispatch() -> None:
            ready = [nid for nid in pending_order
                     if nid not in done and nid not in dispatched
                     and all(up in values for up in graph[nid].upstream_ids)]
            for chunk in self._chunk(ready):
                cid = next(chunk_ids)
                chunk_nodes[cid] = list(chunk)
                task_q.put(("run", cid, [
                    (graph[nid],
                     {up: values[up] for up in graph[nid].upstream_ids})
                    for nid in chunk
                ]))
                for nid in chunk:
                    _event(nid)["enqueue_s"] = _rel()
                dispatched.update(chunk)
                stats.chunks_dispatched += 1
            stats.queue_depth_peak = max(stats.queue_depth_peak,
                                         len(dispatched - done))
            if ready:
                _report_progress()

        def _reenqueue(lost: List[str], count_retry: bool) -> None:
            for nid in lost:
                if count_retry:
                    retries[nid] = retries.get(nid, 0) + 1
                    stats.retried_nodes += 1
                    if retries[nid] > self.retry_limit:
                        raise WorkerCrashError(nid, retries[nid])
                dispatched.discard(nid)

        def _lost_nodes(slot: int) -> List[str]:
            lost: List[str] = []
            for cid, wid in chunk_claims.items():
                if wid != slot:
                    continue
                lost.extend(nid for nid in chunk_nodes[cid]
                            if nid not in done and nid not in lost)
            return lost

        def _check_workers() -> None:
            now = time.time()
            deaths_before = stats.worker_deaths
            for slot, proc in list(workers.items()):
                if slot in dead:
                    continue
                stats.heartbeat_max_staleness_s = max(
                    stats.heartbeat_max_staleness_s, now - heartbeats[slot])
                hung = (self.hang_timeout_s is not None
                        and now - heartbeats[slot] > self.hang_timeout_s)
                if proc.is_alive() and not hung:
                    continue
                if proc.is_alive():  # frozen: reclaim its work forcibly
                    proc.terminate()
                    proc.join(timeout=2.0)
                dead.add(slot)
                stats.worker_deaths += 1
                _reenqueue(_lost_nodes(slot), count_retry=True)
                if (respawn_budget - stats.respawned_workers > 0
                        and len(done) < len(pending_order)):
                    new_slot = max(workers) + 1
                    if new_slot < len(heartbeats):
                        heartbeats[new_slot] = time.time()
                        _spawn(new_slot)
                        stats.respawned_workers += 1
            if all(slot in dead for slot in workers) \
                    and len(done) < len(pending_order):
                raise WorkerCrashError("<all workers dead>",
                                       stats.worker_deaths)
            if stats.worker_deaths > deaths_before:
                _report_progress()
                _dispatch()  # reclaimed nodes go back out immediately

        try:
            for slot in range(self.jobs):
                _spawn(slot)
            _dispatch()
            last_progress = time.time()
            deaths_at_last_progress = 0
            while len(done) < len(pending_order):
                try:
                    msg = result_q.get(timeout=self.poll_s)
                except queue_mod.Empty:
                    _check_workers()
                    stalled = time.time() - last_progress > self.stall_timeout_s
                    if stalled and stats.worker_deaths > deaths_at_last_progress:
                        # a death raced the claim ack: its chunk may be gone
                        # from the queue without ever being claimed.  Cells
                        # are pure, so conservatively re-enqueue everything
                        # unfinished that no live worker has claimed.
                        if watchdog_rounds == 0:
                            raise WorkerCrashError("<stalled>",
                                                   stats.worker_deaths)
                        watchdog_rounds -= 1
                        live_claims = {nid for cid, wid in chunk_claims.items()
                                       if wid in workers and wid not in dead
                                       for nid in chunk_nodes[cid]}
                        _reenqueue([nid for nid in pending_order
                                    if nid not in done
                                    and nid not in live_claims],
                                   count_retry=False)
                        last_progress = time.time()
                        _dispatch()
                    continue
                kind = msg[0]
                if kind == "claim":
                    _, wid, cid, _members = msg
                    chunk_claims[cid] = wid
                    stats.chunk_steals += 1
                    for member in chunk_nodes.get(cid, ()):
                        ev = _event(member)
                        ev["claim_s"] = _rel()
                        ev["worker"] = wid
                    last_progress = time.time()
                elif kind == "start":
                    _, wid, nid = msg
                    ev = _event(nid)
                    ev["start_s"] = _rel()
                    ev["worker"] = wid
                    ev["attempts"] += 1
                    stats.last_heartbeat[wid] = time.time()
                    last_progress = time.time()
                elif kind == "done":
                    _, wid, nid, value, registry, profiler, records, wall_s = msg
                    if nid in done:
                        stats.duplicate_results += 1
                        continue
                    done.add(nid)
                    values[nid] = value
                    merge_back[nid] = (registry, profiler, records)
                    on_complete(nid, value)
                    stats.executed += 1
                    stats.nodes_per_worker[wid] = \
                        stats.nodes_per_worker.get(wid, 0) + 1
                    ev = _event(nid)
                    ev["done_s"] = _rel()
                    ev["worker"] = wid
                    ev["wall_s"] = round(wall_s, 6)
                    last_progress = time.time()
                    deaths_at_last_progress = stats.worker_deaths
                    _report_progress()
                    _dispatch()
                elif kind == "error":
                    _, wid, nid, message, tb = msg
                    raise NodeExecutionError(nid, message, tb)
                # "bye" and unknown kinds: ignore
        finally:
            for slot, proc in workers.items():
                if proc.is_alive():
                    task_q.put(("stop",))
            deadline = time.time() + 2.0
            for proc in workers.values():
                proc.join(timeout=max(0.0, deadline - time.time()))
            for proc in workers.values():
                if proc.is_alive():
                    proc.terminate()
            task_q.close()
            result_q.close()

        for slot in workers:
            stats.last_heartbeat.setdefault(slot, heartbeats[slot])
            stats.last_heartbeat[slot] = max(stats.last_heartbeat[slot],
                                             heartbeats[slot])
        stats.timeline = [events[nid] for nid in pending_order
                          if nid in events]

        # deterministic merge-back: graph order, never completion order.
        # Runner node spans are emitted HERE (not at wall-clock completion)
        # so the traced record sequence — span(n), cell records(n), … — is
        # byte-identical to an InlineBackend run of the same pending set.
        for seq, nid in enumerate(pending_order):
            if want_trace:
                _emit_node_span(bundle.tracer, graph[nid], seq)
            registry, profiler, records = merge_back.get(nid, (None, None, None))
            if registry is not None:
                bundle.registry.merge(registry)
            if profiler is not None and bundle.profiler is not None:
                bundle.profiler.merge(profiler)
            if records:
                bundle.tracer.absorb(records)
        if want_trace:
            _emit_sweep_summary(bundle.tracer, graph, pending_order)
        return stats
