"""The sweep decomposition protocol experiment modules opt into.

An experiment becomes runnable in parallel (and cacheable per point) by
exporting a module-level ``SWEEP``::

    def sweep_points(seed: int = 101) -> List[SweepPoint]: ...
    def _cell(**params) -> Any: ...          # module-level → pickles by name
    def sweep_reduce(cells: Dict[str, Any], seed: int = 101) -> ExperimentResult: ...

    SWEEP = SweepSpec("A6", points=sweep_points, reduce=sweep_reduce)

    def run(seed: int = 101) -> ExperimentResult:
        return run_sweep(SWEEP, seed=seed)    # serial, uncached, inline

Contract:

* every point is **independent**: its cell builds its own city from the spec
  and shares no state with other points (no module-level singletons — see
  ``tests/test_runner_worker.py``);
* ``params`` values must be picklable (they cross the process boundary) and
  canonically hashable (they become cache-key material) — plain scalars,
  tuples and frozen dataclasses all qualify;
* ``reduce`` receives cells keyed by ``point_id`` **in points order** no
  matter which worker finished first, and must be a pure function of them.

**Prefix stage** (the task-DAG extension).  A spec may additionally export a
``prefixes`` factory declaring shared upstream work — workload plans, city
blueprints, warm-up — as :class:`SweepPrefix` nodes::

    def sweep_prefixes(seed: int = 101) -> List[SweepPrefix]:
        return [SweepPrefix("A6", "workload-plan",
                            "repro.experiments.a6_churn:_workload_plan",
                            params=(("seed", seed),))]

    SWEEP = SweepSpec("A6", points=sweep_points, reduce=sweep_reduce,
                      prefixes=sweep_prefixes)

A point opts into a prefix via ``needs=(("plan", "workload-plan"),)``: the
prefix cell runs **once**, its value is cached per node and injected into
each consuming point's cell as the named kwarg.  The cell must still accept
that kwarg with a ``None`` default and recompute the prefix itself when
unset: code that calls a cell directly, outside any graph (A5 reusing E3's
capacity cell, tests such as the service's step-wise A6 run), gets exactly
the value the injected prefix would have produced.

Prefix cells must be **pure and globally inert**: deterministic in their
params, touching no process-global state (in particular the request-id
counter — a prefix that constructed request objects would shift every
downstream id and break byte-identity between a direct call and a graph
run).

:func:`~repro.runner.graph.graph_of` turns a spec into the task graph the
runner executes; :class:`SweepPoint` and :class:`SweepPrefix` are only its
declarations.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SweepPoint", "SweepPrefix", "SweepSpec", "sweep_of"]


@dataclass(frozen=True)
class SweepPrefix:
    """A shared upstream stage of a sweep (city construction, workload plan).

    Computed once per distinct ``params`` and fanned out to every point that
    ``needs`` it.  The cell must be pure: same params → same value, no
    process-global side effects.
    """

    experiment_id: str
    prefix_id: str
    cell: str
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if ":" not in self.cell:
            raise ValueError(f"cell must be 'module:function', got {self.cell!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))


@dataclass(frozen=True)
class SweepPoint:
    """One independent unit of an experiment sweep.

    ``cell`` is a ``"package.module:function"`` reference rather than a
    callable so the spec pickles by name and hashes stably; ``params`` is a
    sorted tuple of ``(name, value)`` kwargs for that function.  ``needs``
    optionally maps extra kwarg names to :class:`SweepPrefix` ids whose
    values the runner injects.
    """

    experiment_id: str
    point_id: str
    cell: str
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    needs: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if ":" not in self.cell:
            raise ValueError(f"cell must be 'module:function', got {self.cell!r}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        object.__setattr__(self, "needs", tuple(sorted(self.needs)))


@dataclass(frozen=True)
class SweepSpec:
    """An experiment's decomposition: points factory + deterministic reduce.

    ``prefixes`` optionally declares the shared upstream stage (see the
    module docstring); specs without one decompose into a fan-out of
    independent points.
    """

    experiment_id: str
    points: Callable[..., List[SweepPoint]]
    reduce: Callable[..., Any]
    prefixes: Optional[Callable[..., List["SweepPrefix"]]] = None

    def make_points(self, **kwargs: Any) -> List[SweepPoint]:
        """Build the point list for one run, validating id uniqueness."""
        points = self.points(**kwargs)
        seen: Dict[str, SweepPoint] = {}
        for p in points:
            if p.experiment_id != self.experiment_id:
                raise ValueError(
                    f"point {p.point_id!r} belongs to {p.experiment_id!r}, "
                    f"not {self.experiment_id!r}"
                )
            if p.point_id in seen:
                raise ValueError(f"duplicate point id {p.point_id!r}")
            seen[p.point_id] = p
        return points

    def make_prefixes(self, **kwargs: Any) -> List["SweepPrefix"]:
        """Build the prefix list for one run (empty without a prefix stage)."""
        if self.prefixes is None:
            return []
        prefixes = self.prefixes(**kwargs)
        seen: Dict[str, SweepPrefix] = {}
        for p in prefixes:
            if p.experiment_id != self.experiment_id:
                raise ValueError(
                    f"prefix {p.prefix_id!r} belongs to {p.experiment_id!r}, "
                    f"not {self.experiment_id!r}"
                )
            if p.prefix_id in seen:
                raise ValueError(f"duplicate prefix id {p.prefix_id!r}")
            seen[p.prefix_id] = p
        return prefixes


def sweep_of(fn: Callable[..., Any]) -> SweepSpec | None:
    """The ``SWEEP`` spec of the module defining ``fn``, if it exports one."""
    module = importlib.import_module(fn.__module__)
    spec = getattr(module, "SWEEP", None)
    return spec if isinstance(spec, SweepSpec) else None
