"""`SweepRunner`: execute experiment sweeps inline, in parallel, or cached.

The execution pipeline for a sweep-shaped experiment (one exporting a
``SWEEP`` spec, see :mod:`repro.runner.spec`):

1. **graph** — :func:`~repro.runner.graph.graph_of` turns the spec into a
   :class:`~repro.runner.graph.TaskGraph`: shared prefix stages become
   upstream nodes, sweep points their consumers (a spec without prefixes is
   a plain fan-out of independent points);
2. **probe** — with a cache attached, every node is keyed by
   :func:`~repro.runner.graph.node_key` (its spec, its upstream keys, the
   code version); point nodes are probed first and only the ancestors of
   missed points are needed, so a warm run executes nothing;
3. **execute** — ``jobs=1`` runs the pending nodes inline, in deterministic
   graph order, under the ambient observability bundle
   (:class:`~repro.runner.backend.InlineBackend`); ``jobs>1`` runs them on
   the work-stealing :class:`~repro.runner.backend.ProcessBackend`, which
   merges each worker's metrics, profile and trace back in graph order;
4. **reassemble** — point values are keyed by ``point_id`` and handed to
   ``spec.reduce`` strictly in points order, so completion order can never
   leak into the result (property-tested in ``tests/test_runner_properties.py``).

Experiments without a ``SWEEP`` spec still benefit: their whole
:class:`~repro.experiments.common.ExperimentResult` is cached under
(code version, experiment id, kwargs), so a warm ``run all`` skips them too.

Every ``jobs × cache`` combination is byte-identical (locked in by
``tests/test_runner_equivalence.py`` and the golden harness).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import obs as obs_mod
from repro.runner.backend import BackendStats, InlineBackend, ProcessBackend
from repro.runner.cache import ResultCache
from repro.runner.graph import graph_of, node_key
from repro.runner.hashing import code_version, kernel_cache_tag, stable_hash
from repro.runner.spec import SweepSpec, sweep_of

__all__ = ["RunReport", "SweepRunner", "reassemble", "run_sweep"]


def result_key(experiment_id: str, kwargs: Dict[str, Any]) -> str:
    """Cache key of a whole-experiment result (the non-sweep fallback)."""
    return stable_hash(("result", code_version(), kernel_cache_tag(),
                        experiment_id, tuple(sorted(kwargs.items()))))


def reassemble(
    point_ids: Sequence[str],
    outcomes: Mapping[str, Any],
) -> Dict[str, Any]:
    """Cell values keyed by point id **in points order**.

    ``outcomes`` may have been populated in any completion order; the
    returned dict's iteration order is the points order, which is what makes
    ``reduce`` deterministic under parallel execution.
    """
    missing = [pid for pid in point_ids if pid not in outcomes]
    if missing:
        raise KeyError(f"missing outcomes for points: {missing}")
    return {pid: outcomes[pid] for pid in point_ids}


@dataclass
class RunReport:
    """What one experiment run did: the result plus cache/execution counts.

    ``points``/``computed``/``cached`` count **sweep points**.  The
    node-level fields count graph nodes: ``nodes`` is the full graph size
    (points + prefixes), ``computed_nodes`` the nodes actually executed,
    ``cached_nodes`` the nodes served from the per-node cache — which is how
    tests assert a shared prefix ran *exactly once*.

    ``to_dict``/``from_dict`` round-trip everything except the in-memory
    ``result`` object itself, which is represented by ``result_digest``
    (sha256 over the rendered ``result.text`` when present) so two runs can
    be compared for outcome identity from their JSON reports alone.
    """

    result: Any
    points: int = 0        # sweep points in the decomposition (0 = non-sweep)
    computed: int = 0      # points (or whole results) actually executed
    cached: int = 0        # points (or whole results) served from the cache
    nodes: int = 0           # sweeps: total graph nodes (points + prefixes)
    computed_nodes: int = 0  # sweeps: nodes executed (incl. prefixes)
    cached_nodes: int = 0    # sweeps: nodes served from the cache
    backend_stats: Optional[BackendStats] = None
    experiment: str = ""   # experiment id (sweeps; CLI fills for non-sweeps)
    backend: str = ""      # "dag" ("" for direct construction)
    jobs: int = 0          # worker processes the runner was configured with
    wall_s: float = 0.0    # end-to-end run wall time (graph build → reduce)
    result_digest: str = ""  # sha256 of the rendered result text

    def __post_init__(self) -> None:
        if not self.result_digest and self.result is not None:
            text = getattr(self.result, "text", None)
            payload = text if isinstance(text, str) else repr(self.result)
            self.result_digest = hashlib.sha256(
                payload.encode("utf-8")).hexdigest()

    @property
    def fully_cached(self) -> bool:
        """True when nothing had to be executed."""
        return self.computed == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready view of the run (everything but the result object)."""
        return {
            "experiment": self.experiment,
            "backend": self.backend,
            "jobs": self.jobs,
            "points": self.points,
            "computed": self.computed,
            "cached": self.cached,
            "nodes": self.nodes,
            "computed_nodes": self.computed_nodes,
            "cached_nodes": self.cached_nodes,
            "fully_cached": self.fully_cached,
            "wall_s": round(self.wall_s, 6),
            "result_digest": self.result_digest,
            "backend_stats": (self.backend_stats.to_dict()
                              if self.backend_stats is not None else None),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (``result`` is lost)."""
        stats = payload.get("backend_stats")
        return cls(
            result=None,
            points=int(payload.get("points", 0)),
            computed=int(payload.get("computed", 0)),
            cached=int(payload.get("cached", 0)),
            nodes=int(payload.get("nodes", 0)),
            computed_nodes=int(payload.get("computed_nodes", 0)),
            cached_nodes=int(payload.get("cached_nodes", 0)),
            backend_stats=(BackendStats.from_dict(stats)
                           if stats is not None else None),
            experiment=str(payload.get("experiment", "")),
            backend=str(payload.get("backend", "")),
            jobs=int(payload.get("jobs", 0)),
            wall_s=float(payload.get("wall_s", 0.0)),
            result_digest=str(payload.get("result_digest", "")),
        )


@dataclass
class SweepRunner:
    """Sweep executor: ``jobs`` worker processes + optional result cache.

    ``jobs=1`` (the default) never starts a process: pending nodes run
    inline in graph order in this process, so an uncached ``jobs=1`` run is
    *the* reference serial execution.  ``obs`` overrides the bundle that
    receives worker merge-back (defaults to the process-wide current one at
    call time).  ``progress`` is an optional callback receiving small dicts
    as the run advances — a ``{"phase": "plan", ...}`` event after cache
    probing, then per-completion execution events from the backend
    (``done``/``total``/``inflight``/``deaths``/``retries``/``workers``);
    it is display-only telemetry and never influences execution.
    ``backend`` names the one sweep backend, the task-DAG executor; any
    other value is rejected.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    obs: Optional[obs_mod.Observability] = None
    backend: str = "dag"
    progress: Optional[Callable[[Dict[str, Any]], None]] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.backend != "dag":
            raise ValueError(f"backend must be 'dag', got {self.backend!r}")

    # ------------------------------------------------------------------ #
    def _emit_progress(self, event: Dict[str, Any]) -> None:
        if self.progress is not None:
            self.progress(event)

    def _finish(self, report: RunReport, experiment: str,
                t0: float) -> RunReport:
        """Stamp provenance fields shared by every execution path."""
        report.experiment = experiment
        report.backend = self.backend
        report.jobs = self.jobs
        report.wall_s = time.perf_counter() - t0
        return report

    def run_experiment(self, fn: Callable[..., Any], **kwargs: Any) -> RunReport:
        """Run ``fn`` (an experiment ``run`` callable) through the runner.

        Sweep-shaped experiments are decomposed into a task graph;
        everything else falls back to whole-result execution + caching.
        """
        spec = sweep_of(fn)
        if spec is not None:
            return self.run_spec(spec, **kwargs)
        t0 = time.perf_counter()
        if self.cache is None:
            return self._finish(RunReport(result=fn(**kwargs), computed=1),
                                "", t0)
        key = result_key(f"{fn.__module__}:{fn.__qualname__}", kwargs)
        hit, value = self.cache.get(key)
        if hit:
            return self._finish(RunReport(result=value, cached=1), "", t0)
        value = fn(**kwargs)
        self.cache.put(key, value)
        return self._finish(RunReport(result=value, computed=1), "", t0)

    def run_spec(self, spec: SweepSpec, **kwargs: Any) -> RunReport:
        """Graph build → probe per-node cache → execute subgraph → reduce.

        Cache probing is **points-first**: only the ancestors of cache-missed
        points are needed, so a fully warm run executes nothing (prefixes
        included) and a partially warm run computes each needed prefix at
        most once.  ``on_complete`` persists every node's value the moment
        it lands, so a crash mid-sweep still leaves finished nodes cached.
        """
        t0 = time.perf_counter()
        graph = graph_of(spec, **kwargs)
        memo: Dict[str, str] = {}
        keys: Dict[str, str] = {}
        values: Dict[str, Any] = {}
        point_ids = [node.node_id for node in graph.points()]

        def probe(node_id: str) -> bool:
            """Key the node, try the cache; True (and record value) on hit."""
            if self.cache is None:
                return False
            key = keys[node_id] = node_key(graph, node_id, memo)
            hit, value = self.cache.get(key)
            if hit:
                values[node_id] = value
            return hit

        pending_points = [nid for nid in point_ids if not probe(nid)]
        pending: List[str] = []
        cached_nodes = len(point_ids) - len(pending_points)
        if pending_points:
            needed_upstream = graph.ancestors(pending_points)
            for nid in graph.node_ids:     # deterministic declaration order
                if nid in needed_upstream:
                    if probe(nid):
                        cached_nodes += 1
                    else:
                        pending.append(nid)
            pending.extend(pending_points)

        self._emit_progress({
            "phase": "plan", "experiment": spec.experiment_id,
            "points": len(point_ids),
            "cached": len(point_ids) - len(pending_points),
            "pending": len(pending), "graph_nodes": len(graph),
        })
        stats: Optional[BackendStats] = None
        if pending:
            def on_complete(nid: str, value: Any) -> None:
                key = keys.get(nid)
                if key is not None:        # keyed only with a cache attached
                    self.cache.put(key, value)

            if self.jobs == 1:
                engine: Any = InlineBackend(obs=self.obs,
                                            progress=self.progress)
            else:
                engine = ProcessBackend(self.jobs, obs=self.obs,
                                        progress=self.progress)
            stats = engine.execute(graph, pending, values, on_complete)

        return self._finish(RunReport(
            result=spec.reduce(reassemble(point_ids, values), **kwargs),
            points=len(point_ids),
            computed=len(pending_points),
            cached=len(point_ids) - len(pending_points),
            nodes=len(graph),
            computed_nodes=stats.executed if stats is not None else 0,
            cached_nodes=cached_nodes,
            backend_stats=stats,
        ), spec.experiment_id, t0)


def run_sweep(spec: SweepSpec, jobs: int = 1,
              cache: Optional[ResultCache] = None, **kwargs: Any) -> Any:
    """Run one sweep spec and return its ``ExperimentResult``.

    ``run_sweep(SWEEP, **kwargs)`` with the defaults is the drop-in body for
    an experiment module's ``run()``: serial, uncached, inline in graph
    order — the reference execution every other ``jobs × cache``
    combination must match byte for byte.
    """
    return SweepRunner(jobs=jobs, cache=cache).run_spec(spec, **kwargs).result
