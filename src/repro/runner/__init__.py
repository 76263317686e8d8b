"""Parallel sweep execution with content-addressed result caching.

The experiment layer (``repro.experiments``) is embarrassingly parallel at
the *sweep point* level: every cell of A6's policy × MTBF grid, every month
of E3's capacity sweep, every scale point of E14 builds its own city from a
seed and never talks to its neighbours.  This subpackage exploits that:

* :class:`~repro.runner.spec.SweepPoint` / :class:`~repro.runner.spec.SweepPrefix`
  / :class:`~repro.runner.spec.SweepSpec` — the decomposition protocol an
  experiment module opts into by exporting a ``SWEEP`` object: a *points*
  function (kwargs → picklable point specs, each naming a cell by
  ``module:name`` so it pickles by reference), an optional *prefixes*
  function declaring shared upstream work, and a *reduce* function that
  reassembles the cells — always in points order, never in completion
  order — into the experiment's
  :class:`~repro.experiments.common.ExperimentResult`;
* :class:`~repro.runner.graph.TaskGraph` — what a sweep runs as:
  :func:`~repro.runner.graph.graph_of` turns prefixes and points into nodes
  wired by their ``needs``, and :func:`~repro.runner.graph.node_key` keys
  each node by its spec, its upstream keys and the code version;
* :class:`~repro.runner.cache.ResultCache` — a content-addressed store under
  ``.repro_cache/``, so a warm re-run only recomputes nodes whose inputs —
  or whose code — changed;
* :class:`~repro.runner.runner.SweepRunner` — executes the pending nodes
  either inline (``jobs=1``, :class:`~repro.runner.backend.InlineBackend`)
  or on the work-stealing :class:`~repro.runner.backend.ProcessBackend`
  (``--jobs N``), merging each worker's metrics registry, profiler and trace
  back into the parent observability bundle in graph order.

Determinism contract: for a fixed seed, ``jobs=1``, ``jobs=N`` and a warm
cache hit all yield byte-identical ``ExperimentResult.text`` (locked in by
``tests/test_runner_equivalence.py`` and the golden harness).
"""

from __future__ import annotations

from repro.runner.backend import (
    BackendStats,
    InlineBackend,
    NodeExecutionError,
    ProcessBackend,
    WorkerCrashError,
)
from repro.runner.cache import ResultCache
from repro.runner.graph import (
    GraphCycleError,
    TaskGraph,
    TaskNode,
    graph_of,
    node_key,
)
from repro.runner.hashing import code_version, kernel_cache_tag, stable_hash
from repro.runner.runner import RunReport, SweepRunner, run_sweep
from repro.runner.spec import SweepPoint, SweepPrefix, SweepSpec, sweep_of
from repro.runner.worker import init_worker

__all__ = [
    "BackendStats",
    "GraphCycleError",
    "InlineBackend",
    "NodeExecutionError",
    "ProcessBackend",
    "ResultCache",
    "RunReport",
    "SweepPoint",
    "SweepPrefix",
    "SweepRunner",
    "SweepSpec",
    "TaskGraph",
    "TaskNode",
    "WorkerCrashError",
    "code_version",
    "graph_of",
    "init_worker",
    "kernel_cache_tag",
    "node_key",
    "run_sweep",
    "stable_hash",
    "sweep_of",
]
