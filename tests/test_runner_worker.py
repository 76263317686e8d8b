"""Worker initialization: explicit, fork-safe, observable.

The sweep runner forks/execs worker processes; anything mutable created at
module import time would silently diverge between parent and workers.  These
tests pin the three defences: ``init_worker`` resets process-global state,
the experiment plumbing module keeps no mutable singletons, and per-worker
observability is collected in a fresh bundle and merged back to the parent.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro.experiments.common as common
from repro import obs as obs_mod
from repro.runner import SweepRunner
from repro.runner.backend import ProcessBackend
from repro.runner.graph import TaskGraph, TaskNode
from repro.runner.spec import SweepPoint, SweepSpec
from repro.runner.worker import init_worker, run_node_task
from repro.sim.calendar import SimCalendar


# module-level cells so they pickle by reference into pool workers
def _obs_probe_cell(tag: str) -> dict:
    obs = obs_mod.get_obs()
    obs.counter("probe_cells").inc()
    obs.histogram("probe_values").observe(float(len(tag)))
    return {"tag": tag, "parent_obs_active": obs.active}


def _plain_cell(x: int) -> int:
    return x * x


def _probe_points(n: int = 3):
    return [SweepPoint("WX", f"p{i}", "tests.test_runner_worker:_obs_probe_cell",
                       params=(("tag", f"tag{i}"),)) for i in range(n)]


def _probe_reduce(cells, n: int = 3):
    return [cells[f"p{i}"] for i in range(n)]


PROBE_SWEEP = SweepSpec("WX", points=_probe_points, reduce=_probe_reduce)


class _SelfCycle:
    """Kept alive only by a reference to itself: garbage for the collector."""

    def __init__(self):
        self.me = self


#: in a DAG worker, a weak reference to what the last ``_leave_cycle`` built
_LEFT_BEHIND = None


def _leave_cycle() -> str:
    global _LEFT_BEHIND
    obj = _SelfCycle()
    _LEFT_BEHIND = weakref.ref(obj)
    # promote it to the oldest generation, where a finished cell's city
    # sits: from there only a full collection frees it
    gc.collect(1)
    return "left"


def _cycle_is_gone(left: str) -> bool:
    return _LEFT_BEHIND is not None and _LEFT_BEHIND() is None


# --------------------------------------------------------------------------- #
def test_init_worker_resets_observability():
    active = obs_mod.Observability(registry=obs_mod.MetricsRegistry())
    previous = obs_mod.install(active)
    try:
        assert obs_mod.get_obs() is active
        init_worker()
        assert obs_mod.get_obs() is obs_mod.OBS_OFF
        assert not obs_mod.get_obs().active
    finally:
        obs_mod.install(previous)


def test_common_module_keeps_no_singletons():
    """No instance state at module level — every worker import is identical.

    (The old module-level ``_CAL = SimCalendar()`` was the benign version of
    this hazard; a mutable one would fork into silently divergent copies.)
    """
    for name, value in vars(common).items():
        if name.startswith("__"):
            continue
        assert not isinstance(value, (SimCalendar, dict, list, set)), (
            f"module-level instance {name!r} would be re-created per worker"
        )


def test_run_point_task_without_obs_returns_no_merge_material():
    """A point node's worker task with no pillar asked for ships the value
    alone."""
    point = TaskNode("WX", "p", "tests.test_runner_worker:_plain_cell",
                     params=(("x", 7),))
    point_id, value, registry, profiler, records = run_node_task(
        point, {}, want_metrics=False, want_profile=False)
    assert (point_id, value, registry, profiler, records) == (
        "p", 49, None, None, None)


def test_run_point_task_collects_fresh_bundle():
    """A point node's worker task runs the cell under a fresh bundle and
    ships its registry back."""
    point = TaskNode("WX", "p", "tests.test_runner_worker:_obs_probe_cell",
                     params=(("tag", "abc"),))
    point_id, value, registry, profiler, records = run_node_task(
        point, {}, want_metrics=True, want_profile=False)
    assert value["parent_obs_active"] is True  # the cell saw the task bundle
    assert registry is not None and profiler is None and records is None
    assert registry.counter("probe_cells").value == 1
    # and the task bundle was uninstalled afterwards
    assert not obs_mod.get_obs().active


def test_worker_processes_start_with_inactive_obs():
    """A pool worker never inherits the parent's installed bundle."""
    parent_bundle = obs_mod.Observability(registry=obs_mod.MetricsRegistry())
    previous = obs_mod.install(parent_bundle)
    try:
        report = SweepRunner(jobs=2, obs=obs_mod.OBS_OFF).run_spec(PROBE_SWEEP)
    finally:
        obs_mod.install(previous)
    # obs=OBS_OFF → workers asked for nothing → cells saw the inactive bundle
    assert [c["parent_obs_active"] for c in report.result] == [False] * 3


def test_parallel_metrics_and_profile_merge_back():
    bundle = obs_mod.Observability(registry=obs_mod.MetricsRegistry(),
                                   profiler=obs_mod.Profiler())
    report = SweepRunner(jobs=2, obs=bundle).run_spec(PROBE_SWEEP, n=4)
    assert report.computed == 4
    assert bundle.registry.counter("probe_cells").value == 4
    hist = bundle.registry.histogram("probe_values")
    assert hist.count == 4
    # merge is deterministic: a second identical run doubles the counter
    SweepRunner(jobs=2, obs=bundle).run_spec(PROBE_SWEEP, n=4)
    assert bundle.registry.counter("probe_cells").value == 8


def test_serial_path_uses_ambient_bundle():
    bundle = obs_mod.Observability(registry=obs_mod.MetricsRegistry())
    with obs_mod.obs_session(bundle):
        report = SweepRunner(jobs=1).run_spec(PROBE_SWEEP)
    assert bundle.registry.counter("probe_cells").value == 3
    assert all(c["parent_obs_active"] for c in report.result)


def test_dag_worker_collects_each_node_garbage_before_the_next():
    """A node's cyclic garbage is freed before the same worker's next node
    starts, though the two nodes allocate far too little for CPython to
    start a full collection of its own (DESIGN.md §2.17)."""
    graph = TaskGraph([
        TaskNode("GC", "leave", "tests.test_runner_worker:_leave_cycle",
                 kind="prefix"),
        TaskNode("GC", "check", "tests.test_runner_worker:_cycle_is_gone",
                 needs=(("left", "leave"),)),
    ])
    values: dict = {}
    ProcessBackend(jobs=1, poll_s=0.05).execute(
        graph, graph.node_ids, values, lambda nid, value: None)
    assert values == {"leave": "left", "check": True}


def test_sweep_point_validation():
    with pytest.raises(ValueError, match="module:function"):
        SweepPoint("X", "p", "not-a-ref")
    with pytest.raises(ValueError, match="duplicate point id"):
        SweepSpec("WX", points=lambda: [_probe_points(1)[0]] * 2,
                  reduce=lambda cells: cells).make_points()
    with pytest.raises(ValueError, match="belongs to"):
        SweepSpec("OTHER", points=_probe_points,
                  reduce=lambda cells: cells).make_points()
